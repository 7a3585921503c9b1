// System-level proof of the Vertical-Splitting Law: the multi-threaded
// cluster moving real tensor chunks must reproduce the single-device forward
// bit-for-bit, for arbitrary partitions and splits (including empty shares).
#include "runtime/cluster.hpp"

#include <gtest/gtest.h>

#include "core/strategy.hpp"
#include "common/require.hpp"
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

struct ClusterCase {
  std::vector<int> boundaries;
  int n_devices;
};

class DistributedEqualsReference : public ::testing::TestWithParam<ClusterCase> {};

TEST_P(DistributedEqualsReference, BitExact) {
  const auto c = GetParam();
  Rng rng(11);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const auto input = random_input(m, rng);
  const auto reference = run_reference(m, weights, input);

  sim::RawStrategy strategy;
  strategy.volumes = cnn::volumes_from_boundaries(c.boundaries, m.num_layers());
  for (const auto& v : strategy.volumes) {
    strategy.cuts.push_back(
        core::equal_split(cnn::volume_out_height(m, v), c.n_devices).cuts);
  }
  const auto result = run_distributed(m, strategy, weights, input, c.n_devices);
  expect_bitexact(result.output, reference);
  EXPECT_GT(result.messages_exchanged, 0);
  EXPECT_GT(result.bytes_moved, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DistributedEqualsReference,
    ::testing::Values(ClusterCase{{0, 5}, 2},          // one fused volume
                      ClusterCase{{0, 5}, 4},          // more devices
                      ClusterCase{{0, 3, 5}, 3},       // two volumes
                      ClusterCase{{0, 2, 3, 5}, 2},    // three volumes
                      ClusterCase{{0, 1, 2, 3, 4, 5}, 3},  // layer-by-layer
                      ClusterCase{{0, 5}, 7}));        // devices > some heights

TEST(Cluster, EmptySharesAndSkewedCuts) {
  Rng rng(5);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const auto input = random_input(m, rng);
  const auto reference = run_reference(m, weights, input);

  sim::RawStrategy strategy;
  strategy.volumes = cnn::volumes_from_boundaries({0, 3, 5}, m.num_layers());
  // Device 1 gets nothing in volume 0; device 0 gets nothing in volume 1.
  strategy.cuts = {{0, 10, 10, 10}, {0, 0, 3, 5}};
  const auto result = run_distributed(m, strategy, weights, input, 3);
  expect_bitexact(result.output, reference);
}

TEST(Cluster, DifferentSplitsSameResult) {
  Rng rng(17);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const auto input = random_input(m, rng);

  sim::RawStrategy a, b;
  a.volumes = b.volumes = cnn::volumes_from_boundaries({0, 3, 5}, m.num_layers());
  a.cuts = {{0, 4, 10}, {0, 3, 5}};
  b.cuts = {{0, 7, 10}, {0, 1, 5}};
  const auto ra = run_distributed(m, a, weights, input, 2);
  const auto rb = run_distributed(m, b, weights, input, 2);
  expect_bitexact(ra.output, rb.output);
}

TEST(Cluster, StressManyIterationsStayConsistent) {
  Rng rng(23);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const auto input = random_input(m, rng);
  const auto reference = run_reference(m, weights, input);
  // Repeated runs exercise thread interleavings; all must agree.
  sim::RawStrategy strategy;
  strategy.volumes = cnn::volumes_from_boundaries({0, 2, 4, 5}, m.num_layers());
  for (const auto& v : strategy.volumes) {
    strategy.cuts.push_back(
        core::equal_split(cnn::volume_out_height(m, v), 4).cuts);
  }
  for (int run = 0; run < 20; ++run) {
    const auto result = run_distributed(m, strategy, weights, input, 4);
    expect_bitexact(result.output, reference);
  }
}

// Mailbox-level tests live in tests/runtime/mailbox_test.cpp.

}  // namespace
}  // namespace de::runtime
