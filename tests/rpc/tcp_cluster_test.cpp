// Acceptance test of the networked data plane: a strategy executed over
// loopback TcpTransport endpoints — every chunk wire-encoded, framed, and
// pushed through the kernel's TCP stack — must produce output bit-identical
// to the single-device reference forward, exactly like the in-process path.
#include <gtest/gtest.h>

#include "core/strategy.hpp"
#include "runtime/cluster.hpp"
#include "runtime/serve.hpp"
#include "tensor_bits.hpp"

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

cnn::Tensor random_input(const cnn::CnnModel& m, Rng& rng) {
  cnn::Tensor t(m.input_h(), m.input_w(), m.input_c());
  for (auto& v : t.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

sim::RawStrategy equal_strategy(const cnn::CnnModel& m,
                                const std::vector<int>& boundaries,
                                int n_devices) {
  sim::RawStrategy strategy;
  strategy.volumes = cnn::volumes_from_boundaries(boundaries, m.num_layers());
  for (const auto& v : strategy.volumes) {
    strategy.cuts.push_back(
        core::equal_split(cnn::volume_out_height(m, v), n_devices).cuts);
  }
  return strategy;
}

struct ClusterCase {
  std::vector<int> boundaries;
  int n_devices;
};

class TcpDistributedEqualsReference
    : public ::testing::TestWithParam<ClusterCase> {};

TEST_P(TcpDistributedEqualsReference, BitExact) {
  const auto c = GetParam();
  Rng rng(11);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const auto input = random_input(m, rng);
  const auto reference = run_reference(m, weights, input);

  const auto strategy = equal_strategy(m, c.boundaries, c.n_devices);
  const auto result = run_distributed_tcp(m, strategy, weights, input, c.n_devices);
  expect_bitexact(result.output, reference);
  EXPECT_GT(result.messages_exchanged, 0);
  EXPECT_GT(result.bytes_moved, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TcpDistributedEqualsReference,
    ::testing::Values(ClusterCase{{0, 5}, 2},          // one fused volume
                      ClusterCase{{0, 3, 5}, 3},       // two volumes
                      ClusterCase{{0, 2, 3, 5}, 2},    // three volumes
                      ClusterCase{{0, 1, 2, 3, 4, 5}, 3},  // layer-by-layer
                      ClusterCase{{0, 5}, 7}));        // devices > some heights

TEST(TcpCluster, MatchesInProcessPathExactly) {
  Rng rng(29);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const auto input = random_input(m, rng);
  const auto strategy = equal_strategy(m, {0, 2, 5}, 3);

  const auto tcp = run_distributed_tcp(m, strategy, weights, input, 3);
  const auto inproc = run_distributed(m, strategy, weights, input, 3);
  expect_bitexact(tcp.output, inproc.output);
  // Same plan, same chunks — the transport must not change the traffic.
  EXPECT_EQ(tcp.messages_exchanged, inproc.messages_exchanged);
  EXPECT_EQ(tcp.bytes_moved, inproc.bytes_moved);
}

TEST(TcpCluster, EmptySharesAndSkewedCuts) {
  Rng rng(5);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const auto input = random_input(m, rng);
  const auto reference = run_reference(m, weights, input);

  sim::RawStrategy strategy;
  strategy.volumes = cnn::volumes_from_boundaries({0, 3, 5}, m.num_layers());
  // Device 1 gets nothing in volume 0; device 0 gets nothing in volume 1.
  strategy.cuts = {{0, 10, 10, 10}, {0, 0, 3, 5}};
  const auto result = run_distributed_tcp(m, strategy, weights, input, 3);
  expect_bitexact(result.output, reference);
}

class ServeStreamBothTransports : public ::testing::TestWithParam<bool> {};

TEST_P(ServeStreamBothTransports, PipelinedStreamStaysBitExact) {
  const bool use_tcp = GetParam();
  Rng rng(41);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const auto strategy = equal_strategy(m, {0, 2, 5}, 3);

  std::vector<cnn::Tensor> inputs;
  std::vector<cnn::Tensor> references;
  for (int k = 0; k < 12; ++k) {
    inputs.push_back(random_input(m, rng));
    references.push_back(run_reference(m, weights, inputs.back()));
  }

  ServeOptions options;
  options.use_tcp = use_tcp;
  options.inflight = 4;
  options.keep_outputs = true;
  const auto result = serve_stream(m, strategy, weights, inputs, 3, options);

  EXPECT_EQ(result.images, 12);
  ASSERT_EQ(result.outputs.size(), references.size());
  for (std::size_t k = 0; k < references.size(); ++k) {
    expect_bitexact(result.outputs[k], references[k]);
  }
  EXPECT_GT(result.measured_ips, 0.0);
  EXPECT_GT(result.messages_exchanged, 0);
}

INSTANTIATE_TEST_SUITE_P(Transports, ServeStreamBothTransports,
                         ::testing::Values(false, true));

TEST(ServeStream, InactiveDeviceDoesNotHangTheStream) {
  Rng rng(13);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  // Device 2 never gets a share of any volume: its provider loop must idle
  // until the shutdown frame instead of spinning or wedging the stream.
  sim::RawStrategy strategy;
  strategy.volumes = cnn::volumes_from_boundaries({0, 3, 5}, m.num_layers());
  strategy.cuts = {{0, 6, 10, 10}, {0, 3, 5, 5}};

  std::vector<cnn::Tensor> inputs;
  for (int k = 0; k < 4; ++k) inputs.push_back(random_input(m, rng));

  ServeOptions options;
  options.inflight = 2;
  options.keep_outputs = true;
  const auto result = serve_stream(m, strategy, weights, inputs, 3, options);
  ASSERT_EQ(result.outputs.size(), inputs.size());
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    expect_bitexact(result.outputs[k], run_reference(m, weights, inputs[k]));
  }
}

}  // namespace
}  // namespace de::runtime
