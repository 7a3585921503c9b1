// The halo-first overlapped data plane must reproduce the single-device
// reference bit for bit — over shared memory, loopback TCP, and the
// resilience suite's 5%-drop + reorder fault profile. Plus the schedule
// algebra itself (bands partition the part, boundary rows first, sends
// ready exactly when covered) and the observable copy discipline: <= 2
// userspace copies per halo byte, wire_bytes accounting for every header,
// and steady-state streaming that stops allocating frame buffers.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/strategy.hpp"
#include "rpc/inproc_transport.hpp"
#include "runtime/cluster.hpp"
#include "runtime/serve.hpp"
#include "runtime/transfer_plan.hpp"
#include "tensor_bits.hpp"

namespace de::runtime {
namespace {

cnn::CnnModel test_model() {
  return cnn::ModelBuilder("overlap-test", 64, 64, 3)
      .conv_same(8, 3)
      .conv_same(8, 3)
      .maxpool(2, 2)
      .conv_same(16, 3)
      .conv_same(16, 5)
      .maxpool(2, 2)
      .conv_same(24, 3)
      .build();
}

sim::RawStrategy three_volume_strategy(const cnn::CnnModel& m, int n_devices) {
  sim::RawStrategy strategy;
  strategy.volumes = cnn::volumes_from_boundaries({0, 3, 5, m.num_layers()},
                                                  m.num_layers());
  for (const auto& v : strategy.volumes) {
    strategy.cuts.push_back(
        core::equal_split(cnn::volume_out_height(m, v), n_devices).cuts);
  }
  return strategy;
}

cnn::Tensor random_input(const cnn::CnnModel& m, Rng& rng) {
  cnn::Tensor t(m.input_h(), m.input_w(), m.input_c());
  for (auto& v : t.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

TEST(PartSchedule, BandsPartitionEveryPartBoundaryFirst) {
  const auto m = test_model();
  const int n_devices = 4;
  const auto strategy = three_volume_strategy(m, n_devices);
  const auto plan = build_transfer_plan(m, strategy, n_devices);

  for (int l = 0; l < plan.num_volumes(); ++l) {
    for (int i = 0; i < n_devices; ++i) {
      const auto part = plan.parts[static_cast<std::size_t>(l)]
                                  [static_cast<std::size_t>(i)];
      const auto sched = plan_part_schedule(plan, l, i);
      if (part.empty()) {
        EXPECT_TRUE(sched.bands.empty());
        EXPECT_TRUE(sched.sends.empty());
        continue;
      }
      // Bands are disjoint and cover the part exactly.
      auto bands = sched.bands;
      std::sort(bands.begin(), bands.end(),
                [](const cnn::RowInterval& a, const cnn::RowInterval& b) {
                  return a.begin < b.begin;
                });
      int covered = part.begin;
      for (const auto& band : bands) {
        EXPECT_FALSE(band.empty());
        EXPECT_EQ(band.begin, covered);
        covered = band.end;
      }
      EXPECT_EQ(covered, part.end);

      // Every send's rows lie inside the part and are fully computed by the
      // bands up to and including ready_after_band.
      for (const auto& send : sched.sends) {
        EXPECT_TRUE(part.contains(send.rows));
        int rows_ready = 0;
        for (int b = 0; b <= send.ready_after_band; ++b) {
          rows_ready +=
              send.rows.intersect(sched.bands[static_cast<std::size_t>(b)])
                  .size();
        }
        EXPECT_EQ(rows_ready, send.rows.size());
      }

      if (l + 1 < plan.num_volumes()) {
        // One halo send per neighbor whose next need overlaps my part, with
        // exactly that overlap.
        std::size_t expected_sends = 0;
        for (int k = 0; k < n_devices; ++k) {
          if (k == i) continue;
          const auto need = plan.needs[static_cast<std::size_t>(l + 1)]
                                      [static_cast<std::size_t>(k)]
                                .intersect(part);
          if (need.empty()) continue;
          ++expected_sends;
          const bool found = std::any_of(
              sched.sends.begin(), sched.sends.end(),
              [&](const OutboundChunk& o) {
                return o.to == k && o.rows == need;
              });
          EXPECT_TRUE(found) << "volume " << l << " device " << i
                             << " neighbor " << k;
        }
        EXPECT_EQ(sched.sends.size(), expected_sends);
        // Boundary-first: every halo row computes before any interior band.
        // Equivalently, each send is ready strictly before the band count
        // when interior bands exist.
        for (const auto& send : sched.sends) {
          for (std::size_t b = 0;
               b <= static_cast<std::size_t>(send.ready_after_band); ++b) {
            const bool touches_some_send = std::any_of(
                sched.sends.begin(), sched.sends.end(),
                [&](const OutboundChunk& o) {
                  return !o.rows.intersect(sched.bands[b]).empty();
                });
            EXPECT_TRUE(touches_some_send)
                << "interior band scheduled before a halo band";
          }
        }
      } else {
        // Final volume: the sends stream the whole part to the requester.
        int streamed = 0;
        for (const auto& send : sched.sends) {
          EXPECT_EQ(send.to, plan.requester_node());
          streamed += send.rows.size();
        }
        EXPECT_EQ(streamed, part.size());
      }
    }
  }
}

class OverlapBitExact : public ::testing::TestWithParam<bool> {};

TEST_P(OverlapBitExact, MatchesReferenceSingleImage) {
  const bool use_tcp = GetParam();
  Rng rng(41);
  const auto m = test_model();
  const int n_devices = 4;
  const auto strategy = three_volume_strategy(m, n_devices);
  const auto weights = random_weights(m, rng);
  const auto input = random_input(m, rng);

  const auto result =
      use_tcp ? run_distributed_tcp(m, strategy, weights, input, n_devices)
              : run_distributed(m, strategy, weights, input, n_devices);
  expect_bitexact(result.output, run_reference(m, weights, input));
}

TEST_P(OverlapBitExact, StreamMatchesReferencePerImage) {
  const bool use_tcp = GetParam();
  Rng rng(43);
  const auto m = test_model();
  // Two devices gives final parts big enough that the gather genuinely
  // streams in multiple bands; four exercises denser halo exchange.
  for (const int n_devices : {2, 4}) {
    const auto strategy = three_volume_strategy(m, n_devices);
    const auto weights = random_weights(m, rng);
    std::vector<cnn::Tensor> images;
    for (int k = 0; k < 6; ++k) images.push_back(random_input(m, rng));

    ServeOptions options;
    options.use_tcp = use_tcp;
    options.keep_outputs = true;
    const auto result =
        serve_stream(m, strategy, weights, images, n_devices, options);
    ASSERT_EQ(result.outputs.size(), images.size());
    for (std::size_t k = 0; k < images.size(); ++k) {
      expect_bitexact(result.outputs[k], run_reference(m, weights, images[k]));
    }
    // A clean run posts exactly the scheduled chunks: one scatter per
    // device with input rows, then every band send of every part.
    const auto plan = build_transfer_plan(m, strategy, n_devices);
    std::int64_t per_image = 0;
    std::size_t gather_sends = 0;
    for (int i = 0; i < n_devices; ++i) {
      if (!plan.needs[0][static_cast<std::size_t>(i)].empty()) ++per_image;
      for (int l = 0; l < plan.num_volumes(); ++l) {
        const auto sends = plan_part_schedule(plan, l, i).sends.size();
        per_image += static_cast<std::int64_t>(sends);
        if (l + 1 == plan.num_volumes()) gather_sends += sends;
      }
    }
    EXPECT_EQ(result.messages_exchanged,
              per_image * static_cast<std::int64_t>(images.size()));
    if (n_devices == 2) {
      // Final parts are 8 rows with 2 devices, so each holder's gather
      // streams as more than one chunk.
      EXPECT_GT(gather_sends, static_cast<std::size_t>(n_devices));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, OverlapBitExact,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Tcp" : "InProc";
                         });

TEST(OverlapBitExact, TcpBitExactUnderDropAndReorder) {
  // The resilience suite's 5%-drop + reorder profile: retransmission,
  // dedup, and the overlapped banded schedule must compose bit-exactly.
  Rng rng(47);
  const auto m = test_model();
  const int n_devices = 3;
  const auto strategy = three_volume_strategy(m, n_devices);
  const auto weights = random_weights(m, rng);

  rpc::FaultSpec faults;
  faults.seed = 0xFEED;
  faults.drop_prob = 0.05;
  faults.delay_prob = 0.15;  // delay doubles as reordering
  faults.delay_min_ms = 1;
  faults.delay_max_ms = 10;

  ServeOptions options;
  options.use_tcp = true;
  options.keep_outputs = true;
  options.inflight = 3;
  options.reliability.enabled = true;
  options.reliability.recv_timeout_ms = 50;
  options.reliability.rto_ms = 20;
  options.reliability.max_attempts = 60;
  options.reliability.max_recv_timeouts = 500;
  options.faults = &faults;

  std::vector<cnn::Tensor> images;
  for (int k = 0; k < 4; ++k) images.push_back(random_input(m, rng));
  const auto result =
      serve_stream(m, strategy, weights, images, n_devices, options);
  ASSERT_EQ(result.outputs.size(), images.size());
  for (std::size_t k = 0; k < images.size(); ++k) {
    expect_bitexact(result.outputs[k],
                 run_reference(m, weights, images[k]));
  }
}

TEST(CopyDiscipline, ZeroCopyPlaneStaysUnderTwoCopiesPerHaloByte) {
  Rng rng(53);
  const auto m = test_model();
  const int n_devices = 4;
  const auto strategy = three_volume_strategy(m, n_devices);
  const auto weights = random_weights(m, rng);
  std::vector<cnn::Tensor> images;
  for (int k = 0; k < 8; ++k) images.push_back(random_input(m, rng));

  ServeOptions overlap;
  overlap.use_tcp = true;
  const auto zc = serve_stream(m, strategy, weights, images, n_devices, overlap);
  ASSERT_GT(zc.bytes_moved, 0);
  // Exactly one encode copy into the frame and one blit out of it.
  EXPECT_LE(zc.bytes_copied, 2 * zc.bytes_moved);
  // Headers are on the wire and accounted: a chunk header is >= 40 bytes.
  EXPECT_GE(zc.wire_bytes, zc.bytes_moved + 40 * Bytes{zc.messages_exchanged});
}

TEST(CopyDiscipline, RetransmitterOutboxSharesTheInFlightFrame) {
  // Tracking a chunk for retransmission must not duplicate it: the outbox
  // entry and the frame the transport is sending are one allocation.
  rpc::InProcFabric fabric(1);
  auto& node = fabric.endpoint(0);
  node.open_mailbox(rpc::kCtrlMailbox);
  DataPlaneStats stats;
  ReliabilityOptions reliability;
  reliability.enabled = true;
  {
    Retransmitter rtx(node, reliability, stats);
    rpc::Frame frame(rpc::Payload{1, 2, 3, 4});
    ASSERT_EQ(frame.use_count(), 1);
    rtx.track(rpc::Address{0, rpc::kDataMailbox}, rtx.next_chunk_id(0), frame);
    EXPECT_EQ(frame.use_count(), 2);  // caller + outbox, no byte copy
    rtx.stop();
  }
}

TEST(CopyDiscipline, SteadyStateStreamingStopsAllocatingFrames) {
  Rng rng(59);
  const auto m = test_model();
  const int n_devices = 4;
  const auto strategy = three_volume_strategy(m, n_devices);
  const auto weights = random_weights(m, rng);

  const auto allocs_for = [&](int n_images) {
    std::vector<cnn::Tensor> images;
    for (int k = 0; k < n_images; ++k) images.push_back(random_input(m, rng));
    ServeOptions options;  // in-process: every frame flows through the arenas
    const auto result =
        serve_stream(m, strategy, weights, images, n_devices, options);
    EXPECT_GT(result.messages_exchanged, 0);
    return std::pair{result.frame_allocs, result.messages_exchanged};
  };

  const auto [allocs, messages] = allocs_for(32);
  // A copying plane would allocate at least one buffer per message; the
  // arenas must amortize far below that (bounded by the in-flight window,
  // not the stream length).
  EXPECT_LT(allocs, messages / 4);
}

}  // namespace
}  // namespace de::runtime
