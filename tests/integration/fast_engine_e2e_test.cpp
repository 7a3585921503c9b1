// End-to-end determinism of the fast execution engine on real zoo models:
// a loopback-TCP cluster whose workers run ExecEngine::kFast (packed kernels
// + shared-pool row bands) must reproduce the single-device kReference
// forward bit-for-bit — including over a degraded fabric with the 5%-drop +
// reorder fault profile of the resilience suite. This is the system-level
// closure of the conformance suite: engine equivalence composed with
// vertical splitting, halo redistribution, and the wire-v2 reliability
// protocol.
//
// The two cheapest zoo models by conv-chain FLOPs are used (resnet50 ~7.4
// GFLOP, ssd_resnet50 ~11.3 GFLOP); the single-threaded reference forward
// dominates this test's runtime.
#include <gtest/gtest.h>

#include "cnn/model_zoo.hpp"
#include "core/strategy.hpp"
#include "runtime/cluster.hpp"
#include "tensor_bits.hpp"

namespace de::runtime {
namespace {

cnn::Tensor random_input(const cnn::CnnModel& m, Rng& rng) {
  cnn::Tensor t(m.input_h(), m.input_w(), m.input_c());
  for (auto& v : t.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

sim::RawStrategy halves_strategy(const cnn::CnnModel& m, int n_devices) {
  sim::RawStrategy strategy;
  strategy.volumes = cnn::volumes_from_boundaries(
      {0, m.num_layers() / 2, m.num_layers()}, m.num_layers());
  for (const auto& v : strategy.volumes) {
    strategy.cuts.push_back(
        core::equal_split(cnn::volume_out_height(m, v), n_devices).cuts);
  }
  return strategy;
}

class FastEngineZooE2E : public ::testing::TestWithParam<const char*> {};

TEST_P(FastEngineZooE2E, TcpClusterMatchesReferenceBitExact) {
  Rng rng(31);
  const auto m = cnn::model_by_name(GetParam());
  const auto weights = random_weights(m, rng);
  const auto input = random_input(m, rng);
  const auto reference = run_reference(m, weights, input);

  RunOptions options;  // defaults: ExecEngine::kFast on the shared pool
  ASSERT_EQ(options.exec.engine, cnn::ExecEngine::kFast);
  const auto result = run_distributed_tcp(m, halves_strategy(m, 3), weights,
                                          input, 3, options);
  expect_bitexact(result.output, reference);
  EXPECT_GT(result.messages_exchanged, 0);
}

INSTANTIATE_TEST_SUITE_P(Models, FastEngineZooE2E,
                         ::testing::Values("resnet50", "ssd_resnet50"));

// Same run with the resilience suite's 5%-drop + reorder profile: the
// reliability protocol and the fast engine compose without breaking
// bit-exactness.
TEST(FastEngineZooE2E_Faults, TcpBitExactUnderDropAndReorder) {
  Rng rng(32);
  const auto m = cnn::resnet50();
  const auto weights = random_weights(m, rng);
  const auto input = random_input(m, rng);
  const auto reference = run_reference(m, weights, input);

  rpc::FaultSpec faults;
  faults.seed = 0xBEEF;
  faults.drop_prob = 0.05;
  faults.delay_prob = 0.15;  // delay doubles as reordering
  faults.delay_min_ms = 1;
  faults.delay_max_ms = 10;

  RunOptions options;
  options.exec = cnn::ExecContext::fast_shared();
  options.reliability.enabled = true;
  options.reliability.recv_timeout_ms = 50;
  options.reliability.rto_ms = 20;
  options.reliability.max_attempts = 60;
  options.reliability.max_recv_timeouts = 500;
  options.faults = &faults;

  const auto result = run_distributed_tcp(m, halves_strategy(m, 3), weights,
                                          input, 3, options);
  expect_bitexact(result.output, reference);
}

}  // namespace
}  // namespace de::runtime
