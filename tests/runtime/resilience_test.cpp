// Correctness under adversarial scheduling: the cluster data plane must
// reproduce the single-device reference bit-for-bit while the transport
// drops, duplicates, delays/reorders, and partitions frames — and must fail
// loudly within a bounded time when a link stays severed past recovery,
// instead of hanging. This is the acceptance proof of the wire-v2
// reliability protocol (ack/retransmit/dedup/timeout, DESIGN.md
// §fault-model).
#include <gtest/gtest.h>

#include "common/require.hpp"
#include "core/strategy.hpp"
#include "rpc/inproc_transport.hpp"
#include "runtime/cluster.hpp"
#include "runtime/reliable.hpp"
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

ReliabilityOptions fast_reliability() {
  ReliabilityOptions r;
  r.enabled = true;
  r.recv_timeout_ms = 20;
  r.rto_ms = 15;
  r.max_attempts = 60;
  r.max_recv_timeouts = 500;  // ample budget; starvation tests shrink it
  return r;
}

TEST(ChunkDedupUnit, FreshOncePerSenderAndId) {
  ChunkDedup dedup;
  EXPECT_TRUE(dedup.fresh(0, 1));
  EXPECT_FALSE(dedup.fresh(0, 1));
  EXPECT_TRUE(dedup.fresh(1, 1));  // other sender, independent id space
  // Out-of-order ids still dedup exactly once.
  EXPECT_TRUE(dedup.fresh(0, 5));
  EXPECT_TRUE(dedup.fresh(0, 3));
  EXPECT_FALSE(dedup.fresh(0, 5));
  EXPECT_TRUE(dedup.fresh(0, 2));
  EXPECT_TRUE(dedup.fresh(0, 4));
  EXPECT_FALSE(dedup.fresh(0, 2));
  EXPECT_FALSE(dedup.fresh(0, 3));
  EXPECT_FALSE(dedup.fresh(0, 4));
  // Untracked chunks (id 0) are never deduped.
  EXPECT_TRUE(dedup.fresh(0, 0));
  EXPECT_TRUE(dedup.fresh(0, 0));
}

TEST(RetransmitterUnit, ChunkIdsCountPerLink) {
  // Ids must be gapless per destination link — a receiver that saw global
  // ids (1, 4, 7, ...) could never advance its dedup watermark and its
  // out-of-order set would grow for the life of the stream.
  rpc::InProcFabric fabric(1);
  auto& transport = fabric.endpoint(0);
  transport.open_mailbox(rpc::kCtrlMailbox);
  DataPlaneStats stats;
  ReliabilityOptions options;
  options.enabled = true;
  Retransmitter rtx(transport, options, stats);
  EXPECT_EQ(rtx.next_chunk_id(0), 1u);
  EXPECT_EQ(rtx.next_chunk_id(0), 2u);
  EXPECT_EQ(rtx.next_chunk_id(1), 1u);  // an independent link
  EXPECT_EQ(rtx.next_chunk_id(0), 3u);
  EXPECT_EQ(rtx.next_chunk_id(1), 2u);
  rtx.stop();
}

TEST(RetransmitterUnit, DrainedOutboxReportsZeroDepth) {
  // The ops-plane gauge sampler overwrites whatever it gets back, so a
  // drained peer must still appear (at depth 0) — otherwise the last
  // nonzero reliable.outbox_depth{node=N} sticks on /metrics forever.
  rpc::InProcFabric fabric(1);
  auto& transport = fabric.endpoint(0);
  transport.open_mailbox(rpc::kCtrlMailbox);
  DataPlaneStats stats;
  ReliabilityOptions options;
  options.enabled = true;
  Retransmitter rtx(transport, options, stats);
  EXPECT_TRUE(rtx.outbox_depth_by_peer().empty());

  rtx.track(rpc::Address{1, rpc::kDataMailbox}, rtx.next_chunk_id(1),
            rpc::Frame(rpc::Payload{1, 2, 3}));
  auto depths = rtx.outbox_depth_by_peer();
  ASSERT_EQ(depths.count(1), 1u);
  EXPECT_EQ(depths[1], 1u);

  EXPECT_EQ(rtx.cancel_to(1), 1u);
  depths = rtx.outbox_depth_by_peer();
  ASSERT_EQ(depths.count(1), 1u);  // still listed...
  EXPECT_EQ(depths[1], 0u);        // ...at zero
  rtx.stop();
}

// Acceptance criterion: run_distributed_tcp stays bit-exact vs the
// single-device reference with 5% frame drop + reordering enabled (seeded).
TEST(Resilience, TcpBitExactUnderDropAndReorder) {
  Rng rng(11);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const auto input = random_input(m, rng);
  const auto reference = run_reference(m, weights, input);
  const auto strategy = equal_strategy(m, {0, 2, 5}, 3);

  rpc::FaultSpec faults;
  faults.seed = 0xBEEF;
  faults.drop_prob = 0.05;
  faults.delay_prob = 0.15;  // delay doubles as reordering
  faults.delay_min_ms = 1;
  faults.delay_max_ms = 10;

  RunOptions options;
  options.reliability = fast_reliability();
  options.faults = &faults;
  const auto result = run_distributed_tcp(m, strategy, weights, input, 3, options);
  expect_bitexact(result.output, reference);
  EXPECT_GT(result.messages_exchanged, 0);
}

TEST(Resilience, InProcBitExactUnderHeavyLoss) {
  Rng rng(23);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const auto input = random_input(m, rng);
  const auto reference = run_reference(m, weights, input);
  const auto strategy = equal_strategy(m, {0, 1, 3, 5}, 3);

  rpc::FaultSpec faults;
  faults.seed = 1;
  faults.drop_prob = 0.25;  // every fourth frame vanishes
  RunOptions options;
  options.reliability = fast_reliability();
  options.faults = &faults;
  const auto result = run_distributed(m, strategy, weights, input, 3, options);
  expect_bitexact(result.output, reference);
  // A quarter of the traffic was dropped: recovery must have happened.
  EXPECT_GT(result.retransmits, 0);
}

TEST(Resilience, DuplicationIsAbsorbedByDedup) {
  Rng rng(5);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const auto input = random_input(m, rng);
  const auto reference = run_reference(m, weights, input);
  // Layer-by-layer on 3 devices: dozens of chunk frames, so at 60%
  // duplication at least one data chunk arrives twice regardless of how
  // scheduling noise (e.g. sanitizer slowdown causing extra nack rounds)
  // shifts the per-link send indices the dup decisions hash on.
  const auto strategy = equal_strategy(m, {0, 1, 2, 3, 4, 5}, 3);

  rpc::FaultSpec faults;
  faults.seed = 77;
  faults.dup_prob = 0.6;
  RunOptions options;
  options.reliability = fast_reliability();
  options.faults = &faults;
  const auto result = run_distributed(m, strategy, weights, input, 3, options);
  expect_bitexact(result.output, reference);
  EXPECT_GT(result.duplicates_dropped, 0);
}

TEST(Resilience, ReliabilityOnCleanFabricChangesNothing) {
  Rng rng(29);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const auto input = random_input(m, rng);
  const auto strategy = equal_strategy(m, {0, 2, 5}, 3);

  RunOptions options;
  options.reliability = fast_reliability();
  // Huge rto: acks happen on dequeue, so a scheduling stall longer than the
  // rto (easy under sanitizers) would otherwise fire a legitimate timer
  // retransmit on a perfectly clean fabric and flake the == 0 assertions.
  options.reliability.rto_ms = 60000;
  const auto reliable = run_distributed(m, strategy, weights, input, 3, options);
  const auto plain = run_distributed(m, strategy, weights, input, 3);
  expect_bitexact(reliable.output, plain.output);
  // Clean wire: no drops, so no retransmissions and no duplicates.
  EXPECT_EQ(reliable.retransmits, 0);
  EXPECT_EQ(reliable.duplicates_dropped, 0);
  EXPECT_EQ(reliable.messages_exchanged, plain.messages_exchanged);
}

TEST(Resilience, FaultsWithoutReliabilityAreRefused) {
  Rng rng(3);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const auto input = random_input(m, rng);
  const auto strategy = equal_strategy(m, {0, 5}, 2);
  rpc::FaultSpec faults;
  faults.drop_prob = 0.1;
  RunOptions options;  // reliability left disabled
  options.faults = &faults;
  EXPECT_THROW(run_distributed(m, strategy, weights, input, 2, options), Error);
}

TEST(Resilience, StreamBitExactUnderDropsBothTransports) {
  for (const bool use_tcp : {false, true}) {
    Rng rng(41);
    const auto m = mini();
    const auto weights = random_weights(m, rng);
    const auto strategy = equal_strategy(m, {0, 2, 5}, 3);

    std::vector<cnn::Tensor> inputs;
    std::vector<cnn::Tensor> references;
    for (int k = 0; k < 8; ++k) {
      inputs.push_back(random_input(m, rng));
      references.push_back(run_reference(m, weights, inputs.back()));
    }

    rpc::FaultSpec faults;
    faults.seed = 1234;
    faults.drop_prob = 0.05;
    faults.delay_prob = 0.1;
    faults.delay_min_ms = 1;
    faults.delay_max_ms = 5;

    ServeOptions options;
    options.use_tcp = use_tcp;
    options.inflight = 3;
    options.keep_outputs = true;
    options.reliability = fast_reliability();
    options.faults = &faults;
    const auto result = serve_stream(m, strategy, weights, inputs, 3, options);

    ASSERT_EQ(result.outputs.size(), references.size());
    for (std::size_t k = 0; k < references.size(); ++k) {
      expect_bitexact(result.outputs[k], references[k]);
    }
  }
}

TEST(Resilience, PartitionSeveredThenHealedRecovers) {
  Rng rng(13);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const auto strategy = equal_strategy(m, {0, 3, 5}, 2);

  std::vector<cnn::Tensor> inputs;
  std::vector<cnn::Tensor> references;
  for (int k = 0; k < 4; ++k) {
    inputs.push_back(random_input(m, rng));
    references.push_back(run_reference(m, weights, inputs.back()));
  }

  // The requester->provider-0 link loses its first scatter entirely (sends
  // 0..3 severed); recovery must come from nack-triggered retransmission
  // once the link heals.
  rpc::FaultSpec faults;
  faults.outages.push_back(rpc::LinkOutage{/*to=*/0, /*sever_at=*/0,
                                           /*heal_at=*/4});

  ServeOptions options;
  options.inflight = 2;
  options.keep_outputs = true;
  options.reliability = fast_reliability();
  options.faults = &faults;
  const auto result = serve_stream(m, strategy, weights, inputs, 2, options);

  ASSERT_EQ(result.outputs.size(), references.size());
  for (std::size_t k = 0; k < references.size(); ++k) {
    expect_bitexact(result.outputs[k], references[k]);
  }
  EXPECT_GT(result.retransmits, 0);
}

TEST(Resilience, UnhealedPartitionFailsBoundedInsteadOfHanging) {
  Rng rng(7);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const auto input = random_input(m, rng);
  const auto strategy = equal_strategy(m, {0, 5}, 2);

  // Provider 1 never hears from anyone: severed forever. With a tight
  // timeout budget the run must throw quickly rather than hang.
  rpc::FaultSpec faults;
  faults.outages.push_back(rpc::LinkOutage{/*to=*/1, /*sever_at=*/0});

  RunOptions options;
  options.reliability = fast_reliability();
  options.reliability.max_recv_timeouts = 10;
  options.reliability.max_attempts = 5;
  options.faults = &faults;
  EXPECT_THROW(run_distributed(m, strategy, weights, input, 2, options), Error);
}

}  // namespace
}  // namespace de::runtime
