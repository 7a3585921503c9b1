// Live mid-stream strategy swaps on the real data plane: a stream that cuts
// over between strategies at image boundaries — with images of the old
// epoch still in flight — must produce, for *every* image, the exact bits
// of the single-device reference forward. Covered across InProc and
// loopback TCP, idle->active/active->idle device transitions, and a
// fault-injected fabric where the kReconfigure frame itself rides the
// retransmission protocol. Plus EpochTable unit coverage.
#include <gtest/gtest.h>

#include "core/strategy.hpp"
#include "common/require.hpp"
#include "runtime/epoch.hpp"
#include "runtime/serve.hpp"

namespace de::runtime {
namespace {

cnn::CnnModel mini() {
  return cnn::ModelBuilder("mini", 20, 20, 3)
      .conv_same(6, 3)
      .conv_same(6, 3)
      .maxpool(2, 2)
      .conv_same(8, 3)
      .conv(8, 3, 2, 1)
      .build();
}

std::vector<cnn::Tensor> random_inputs(const cnn::CnnModel& m, int n, Rng& rng) {
  std::vector<cnn::Tensor> inputs;
  for (int k = 0; k < n; ++k) {
    cnn::Tensor t(m.input_h(), m.input_w(), m.input_c());
    for (auto& v : t.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    inputs.push_back(std::move(t));
  }
  return inputs;
}

/// Strategy with the given per-device weights on every volume (weight 0
/// gives a device an empty share for the whole stream).
sim::RawStrategy weighted_strategy(const cnn::CnnModel& m,
                                   const std::vector<int>& boundaries,
                                   const std::vector<double>& weights) {
  sim::RawStrategy strategy;
  strategy.volumes = cnn::volumes_from_boundaries(boundaries, m.num_layers());
  for (const auto& v : strategy.volumes) {
    strategy.cuts.push_back(
        core::proportional_split(cnn::volume_out_height(m, v), weights).cuts);
  }
  return strategy;
}

void expect_all_equal_reference(const cnn::CnnModel& m,
                                const std::vector<cnn::ConvWeights>& weights,
                                const std::vector<cnn::Tensor>& inputs,
                                const std::vector<cnn::Tensor>& outputs) {
  ASSERT_EQ(outputs.size(), inputs.size());
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const auto reference = run_reference(m, weights, inputs[k]);
    ASSERT_EQ(outputs[k].h, reference.h);
    ASSERT_EQ(outputs[k].w, reference.w);
    ASSERT_EQ(outputs[k].c, reference.c);
    ASSERT_EQ(outputs[k].data, reference.data)
        << "image " << k << " diverged from the reference bits";
  }
}

TEST(EpochTable, LookupAndMonotonicAppend) {
  TransferPlan plan;
  plan.n_devices = 2;
  EpochTable table(EpochPlan{0, 0, {}, plan});
  EXPECT_EQ(table.at(0).epoch, 0);
  EXPECT_EQ(table.at(1000).epoch, 0);

  table.add(EpochPlan{1, 10, {}, plan});
  table.add(EpochPlan{2, 10, {}, plan});  // same boundary is legal
  table.add(EpochPlan{3, 25, {}, plan});
  EXPECT_EQ(table.at(9).epoch, 0);
  EXPECT_EQ(table.at(10).epoch, 2);  // the newer epoch at the same seq wins
  EXPECT_EQ(table.at(24).epoch, 2);
  EXPECT_EQ(table.at(25).epoch, 3);
  EXPECT_EQ(table.latest(), 3);
  EXPECT_TRUE(table.knows(2));
  EXPECT_FALSE(table.knows(7));

  table.add(EpochPlan{3, 25, {}, plan});  // retransmitted: idempotent
  EXPECT_EQ(table.size(), 4);
  EXPECT_THROW(table.add(EpochPlan{2, 30, {}, plan}), Error);  // conflicting
  EXPECT_THROW(table.add(EpochPlan{4, 20, {}, plan}), Error);  // seq regress
}

TEST(EpochTable, AbsorbsOutOfOrderAnnouncements) {
  // Under faults, epoch E's announcement can be retransmitted after E+1
  // already landed; the table must slot it into id order, and references
  // held across the insert must stay valid.
  TransferPlan plan;
  plan.n_devices = 2;
  EpochTable table(EpochPlan{0, 0, {}, plan});
  table.add(EpochPlan{2, 20, {}, plan});  // E+1 first
  const EpochPlan& late = table.at(25);   // reference across the insert
  table.add(EpochPlan{1, 10, {}, plan});  // E arrives late
  EXPECT_EQ(table.size(), 3);
  EXPECT_EQ(table.at(5).epoch, 0);
  EXPECT_EQ(table.at(15).epoch, 1);
  EXPECT_EQ(table.at(25).epoch, 2);
  EXPECT_EQ(&table.at(25), &late);
  // A late arrival whose cutover would overtake its successor is invalid.
  table.add(EpochPlan{4, 40, {}, plan});
  EXPECT_THROW(table.add(EpochPlan{3, 45, {}, plan}), Error);
}

TEST(EpochTable, RetirePrunesSupersededHistoryOnly) {
  TransferPlan plan;
  plan.n_devices = 2;
  EpochTable table(EpochPlan{0, 0, {}, plan});
  table.add(EpochPlan{1, 10, {}, plan});
  table.add(EpochPlan{2, 30, {}, plan});
  table.retire(9);  // epoch 0 still serves image 9
  EXPECT_EQ(table.size(), 3);
  EXPECT_EQ(table.oldest(), 0);
  table.retire(15);  // epoch 0 can never serve >= 15 again
  EXPECT_EQ(table.size(), 2);
  EXPECT_EQ(table.oldest(), 1);
  EXPECT_EQ(table.at(15).epoch, 1);
  // A stale retransmission of retired history is a silent no-op.
  table.add(EpochPlan{0, 0, {}, plan});
  EXPECT_EQ(table.size(), 2);
  table.retire(1000);
  EXPECT_EQ(table.size(), 1);
  EXPECT_EQ(table.oldest(), 2);
}

TEST(EpochTable, LaneOpenedByALaterEpochAcceptsTheEarlierOne) {
  // A lane's first announcement (epoch 1, from seq 0) is lost and the next
  // one (epoch 2, from seq 4) opens the lane. Images 0..3 still need epoch
  // 1, so its retransmission must register — until the table has retired
  // past epoch 2's cutover, after which epoch 1 can serve nothing.
  TransferPlan plan;
  plan.n_devices = 2;
  EpochTable table(EpochPlan{2, 4, {}, plan});
  table.retire(3);  // the provider's cursor is still before the cutover
  table.add(EpochPlan{1, 0, {}, plan});
  EXPECT_TRUE(table.knows(1));
  EXPECT_EQ(table.at(3).epoch, 1);
  EXPECT_EQ(table.at(4).epoch, 2);

  EpochTable later(EpochPlan{2, 4, {}, plan});
  later.retire(4);  // image 4 onward is epoch 2's: epoch 1 is history
  later.add(EpochPlan{1, 0, {}, plan});
  EXPECT_FALSE(later.knows(1));
  EXPECT_EQ(later.size(), 1);
}

struct SwapCase {
  const char* name;
  bool use_tcp;
};

class MidStreamSwap : public ::testing::TestWithParam<SwapCase> {};

TEST_P(MidStreamSwap, EveryImageBitExactAcrossEpochBoundaries) {
  const auto c = GetParam();
  Rng rng(17);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const int n_devices = 3;
  const auto inputs = random_inputs(m, 16, rng);

  // Three genuinely different regimes: balanced, front-loaded, layerwise
  // staggered — consecutive epochs move most rows between devices.
  const auto a = weighted_strategy(m, {0, 2, 3, 5}, {1, 1, 1});
  const auto b = weighted_strategy(m, {0, 2, 3, 5}, {4, 1.5, 1});
  const auto d = weighted_strategy(m, {0, 1, 2, 3, 4, 5}, {1, 2, 3});

  ServeOptions options;
  options.use_tcp = c.use_tcp;
  options.inflight = 4;  // images 2..4 are in flight across the first swap
  options.keep_outputs = true;
  options.swaps = {{5, b}, {11, d}};
  const auto result = serve_stream(m, a, weights, inputs, n_devices, options);

  // The initial strategy is announced as epoch 1, so the swaps are 2 and 3.
  ASSERT_EQ(result.reconfigurations.size(), 2u);
  EXPECT_EQ(result.reconfigurations[0].epoch, 2);
  EXPECT_EQ(result.reconfigurations[0].from_image, 5);
  EXPECT_EQ(result.reconfigurations[1].epoch, 3);
  EXPECT_EQ(result.reconfigurations[1].from_image, 11);
  expect_all_equal_reference(m, weights, inputs, result.outputs);
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, MidStreamSwap,
    ::testing::Values(SwapCase{"InProcOverlap", false},
                      SwapCase{"TcpOverlap", true}),
    [](const ::testing::TestParamInfo<SwapCase>& info) {
      return std::string(info.param.name);
    });

TEST(MidStreamSwapEdge, SwapActivatesAndRetiresDevices) {
  // Epoch 0 leaves device 2 completely idle; epoch 1 activates it; epoch 2
  // retires device 0. The idle provider must keep listening across epochs
  // it does not serve and pick up exactly where its next epoch starts.
  Rng rng(23);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const auto inputs = random_inputs(m, 12, rng);

  const auto idle2 = weighted_strategy(m, {0, 3, 5}, {1, 1, 0});
  const auto all3 = weighted_strategy(m, {0, 3, 5}, {1, 1, 2});
  const auto idle0 = weighted_strategy(m, {0, 3, 5}, {0, 1, 1});

  ServeOptions options;
  options.use_tcp = true;
  options.inflight = 3;
  options.keep_outputs = true;
  options.swaps = {{4, all3}, {8, idle0}};
  const auto result = serve_stream(m, idle2, weights, inputs, 3, options);
  ASSERT_EQ(result.reconfigurations.size(), 2u);
  expect_all_equal_reference(m, weights, inputs, result.outputs);
}

TEST(MidStreamSwapEdge, BackToBackSwapsAtOneBoundary) {
  // Two scripted swaps at the same image: the second epoch supersedes the
  // first before any of its images were scattered (from_seq ties are legal;
  // the newest epoch at a boundary wins).
  Rng rng(29);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const auto inputs = random_inputs(m, 8, rng);

  const auto a = weighted_strategy(m, {0, 2, 5}, {1, 1});
  const auto b = weighted_strategy(m, {0, 2, 5}, {3, 1});
  const auto d = weighted_strategy(m, {0, 1, 3, 5}, {1, 2});

  ServeOptions options;
  options.inflight = 2;
  options.keep_outputs = true;
  options.swaps = {{3, b}, {3, d}};
  const auto result = serve_stream(m, a, weights, inputs, 2, options);
  ASSERT_EQ(result.reconfigurations.size(), 2u);
  EXPECT_EQ(result.reconfigurations[0].from_image, 3);
  EXPECT_EQ(result.reconfigurations[1].from_image, 3);
  expect_all_equal_reference(m, weights, inputs, result.outputs);
}

TEST(MidStreamSwapEdge, InvalidSwapStrategyFailsCleanly) {
  // A scripted swap whose strategy does not fit the model must surface as
  // de::Error with an orderly fabric teardown — not std::terminate from
  // unwinding past live provider threads.
  Rng rng(41);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const auto inputs = random_inputs(m, 8, rng);
  const auto a = weighted_strategy(m, {0, 2, 5}, {1, 1});

  sim::RawStrategy bogus;  // no volumes at all
  ServeOptions options;
  options.inflight = 2;
  options.swaps = {{3, bogus}};
  EXPECT_THROW(serve_stream(m, a, weights, inputs, 2, options), Error);
}

TEST(MidStreamSwapFaults, ReconfigureSurvivesTheDegradedFabric) {
  // 6% drop + duplicates + delay-reordering on every link, reliability on:
  // the kReconfigure frames ride the same ack/retransmit/dedup protocol as
  // the chunks they gate, scatters of a new epoch may overtake their own
  // announcement (parked until it lands), and every image must still equal
  // the reference bits.
  Rng rng(31);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const auto inputs = random_inputs(m, 14, rng);

  const auto a = weighted_strategy(m, {0, 2, 3, 5}, {1, 1, 1});
  const auto b = weighted_strategy(m, {0, 2, 3, 5}, {1, 3, 2});
  const auto d = weighted_strategy(m, {0, 3, 5}, {2, 1, 0});

  rpc::FaultSpec faults;
  faults.seed = 99;
  faults.drop_prob = 0.06;
  faults.dup_prob = 0.04;
  faults.delay_prob = 0.08;
  faults.delay_min_ms = 1;
  faults.delay_max_ms = 6;

  ServeOptions options;
  options.inflight = 4;
  options.keep_outputs = true;
  options.faults = &faults;
  options.reliability.enabled = true;
  options.swaps = {{4, b}, {9, d}};
  const auto result = serve_stream(m, a, weights, inputs, 3, options);
  ASSERT_EQ(result.reconfigurations.size(), 2u);
  expect_all_equal_reference(m, weights, inputs, result.outputs);
}

TEST(MidStreamSwapFaults, AdjacentSwapsUnderHeavyLossStayBitExact) {
  // Back-to-back epochs one image apart under 15% drop: announcements can
  // be lost and retransmitted after their successor delivered — the
  // out-of-order registration path. Run several seeds to vary which frames
  // the injector kills.
  Rng rng(37);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const auto inputs = random_inputs(m, 10, rng);

  const auto a = weighted_strategy(m, {0, 2, 3, 5}, {1, 1, 1});
  const auto b = weighted_strategy(m, {0, 2, 3, 5}, {3, 1, 2});
  const auto d = weighted_strategy(m, {0, 3, 5}, {1, 2, 1});

  for (const std::uint64_t seed : {11ull, 222ull, 3333ull}) {
    rpc::FaultSpec faults;
    faults.seed = seed;
    faults.drop_prob = 0.15;
    faults.delay_prob = 0.10;
    faults.delay_min_ms = 1;
    faults.delay_max_ms = 8;

    ServeOptions options;
    options.inflight = 4;
    options.keep_outputs = true;
    options.faults = &faults;
    options.reliability.enabled = true;
    options.swaps = {{3, b}, {4, d}};
    const auto result = serve_stream(m, a, weights, inputs, 3, options);
    ASSERT_EQ(result.reconfigurations.size(), 2u) << "seed " << seed;
    expect_all_equal_reference(m, weights, inputs, result.outputs);
  }
}

}  // namespace
}  // namespace de::runtime
