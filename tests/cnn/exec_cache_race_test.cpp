// Regression test for first-touch weight packing: many threads running the
// fast engine on the same fresh ConvWeights race the pack it builds on
// first use (ConvWeights::packed: one slot per lane width, each under its
// own once-guard, read-only after). This test is the TSan witness — run
// under -fsanitize=thread it fails on any unsynchronized first touch, and
// in a plain build it still checks every thread's result is bit-exact.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "cnn/exec_engine.hpp"
#include "tensor_bits.hpp"

namespace de::cnn {
namespace {

Tensor random_tensor(int h, int w, int c, Rng& rng) {
  Tensor t(h, w, c);
  for (auto& v : t.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

TEST(FirstTouchPackRace, SharedWeightsPackOnceAndStayBitExact) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  Rng rng(4242);
  const auto l = LayerConfig::conv(19, 19, 4, 13, 3, 1, 1);
  const auto in = random_tensor(19, 19, 4, rng);
  const auto isas = supported_kernel_isas();

  for (int round = 0; round < kRounds; ++round) {
    // Fresh weights every round: every round is a first touch of every
    // lane width the host's targets use.
    const auto w = ConvWeights::random(l, rng);
    const auto ref = conv_forward_rows(l, in, 0, RowInterval{0, l.out_h()}, w);

    std::vector<Tensor> results(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Threads start on different targets, so 8- and 16-lane slots are
        // first touched concurrently, then every slot is read many times.
        for (std::size_t i = 0; i < 2 * isas.size(); ++i) {
          ExecContext ctx = ExecContext::fast();
          ctx.isa = isas[(static_cast<std::size_t>(t) + i) % isas.size()];
          results[static_cast<std::size_t>(t)] =
              conv_forward_rows(l, in, 0, RowInterval{0, l.out_h()}, w, ctx);
        }
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      expect_bitexact(results[static_cast<std::size_t>(t)], ref,
                      "round " + std::to_string(round) + " thread " +
                          std::to_string(t));
    }
  }
}

TEST(FirstTouchPackRace, DistinctWeightsPackConcurrently) {
  // Threads first-touching *different* weights, each through its own slot
  // set, plus a copy of each made mid-race: the copy starts unpacked and
  // packs on its own first use.
  constexpr int kThreads = 8;
  Rng rng(777);
  const auto l = LayerConfig::conv(11, 11, 3, 9, 3, 1, 1);
  const auto in = random_tensor(11, 11, 3, rng);
  std::vector<ConvWeights> weights;
  std::vector<Tensor> refs;
  for (int t = 0; t < kThreads; ++t) {
    weights.push_back(ConvWeights::random(l, rng));
    refs.push_back(
        conv_forward_rows(l, in, 0, RowInterval{0, l.out_h()}, weights.back()));
  }
  const ExecContext ctx = ExecContext::fast();

  std::vector<Tensor> results(kThreads);
  std::vector<Tensor> copy_results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto& w = weights[static_cast<std::size_t>(t)];
      results[static_cast<std::size_t>(t)] =
          conv_forward_rows(l, in, 0, RowInterval{0, l.out_h()}, w, ctx);
      const ConvWeights copy = w;
      copy_results[static_cast<std::size_t>(t)] =
          conv_forward_rows(l, in, 0, RowInterval{0, l.out_h()}, copy, ctx);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    const std::string what = "thread " + std::to_string(t);
    expect_bitexact(results[static_cast<std::size_t>(t)],
                    refs[static_cast<std::size_t>(t)], what);
    expect_bitexact(copy_results[static_cast<std::size_t>(t)],
                    refs[static_cast<std::size_t>(t)], what + " copy");
  }
}

}  // namespace
}  // namespace de::cnn
