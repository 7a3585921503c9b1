// The multi-tenant serving front door: N concurrent client streams over one
// shared provider fleet must each reproduce the single-device reference
// bit-for-bit — across tenants with different models, across mid-stream
// per-stream strategy swaps (which must never reconfigure another tenant),
// over InProc and loopback TCP fabrics including faulted and shaped wires —
// a slow consumer may stall only its own stream, never the fleet, and a
// mis-shaped input is refused at the door. The pump's dispatch order
// (detail::fair_pick) is tested on its own, without threads, and its depth
// cap on the recorded trace of a real door.
#include "serve/stream_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/strategy.hpp"
#include "common/require.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/planner.hpp"
#include "device/device.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "runtime/cluster.hpp"
#include "runtime/fabric.hpp"

namespace de::serve {
namespace {

cnn::CnnModel model_a() {
  return cnn::ModelBuilder("tenant-a", 20, 20, 3)
      .conv_same(6, 3)
      .conv_same(6, 3)
      .maxpool(2, 2)
      .conv_same(8, 3)
      .conv(8, 3, 2, 1)
      .build();
}

cnn::CnnModel model_b() {
  return cnn::ModelBuilder("tenant-b", 16, 16, 2)
      .conv_same(4, 3)
      .maxpool(2, 2)
      .conv_same(8, 3)
      .build();
}

std::vector<cnn::Tensor> random_inputs(const cnn::CnnModel& m, int n,
                                       Rng& rng) {
  std::vector<cnn::Tensor> inputs;
  for (int k = 0; k < n; ++k) {
    cnn::Tensor t(m.input_h(), m.input_w(), m.input_c());
    for (auto& v : t.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    inputs.push_back(std::move(t));
  }
  return inputs;
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

void expect_equal(const cnn::Tensor& a, const cnn::Tensor& b,
                  const std::string& what) {
  ASSERT_EQ(a.h, b.h) << what;
  ASSERT_EQ(a.w, b.w) << what;
  ASSERT_EQ(a.c, b.c) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data[i], b.data[i]) << what << " flat index " << i;
  }
}

/// One fleet + door, everything wired: two tenant models, the provider
/// threads, and the server. Joins the fleet on destruction.
struct Harness {
  int n_devices;
  cnn::CnnModel ma = model_a();
  cnn::CnnModel mb = model_b();
  std::vector<cnn::ConvWeights> wa;
  std::vector<cnn::ConvWeights> wb;
  runtime::ClusterFabric fabric;
  runtime::DataPlaneStats stats;
  std::vector<runtime::TenantModel> fleet_models;
  std::vector<TenantSpec> fleet;
  runtime::Supervisor providers;
  std::unique_ptr<StreamServer> server;

  Harness(int n_devices_, bool use_tcp, StreamServerOptions options = {},
          const rpc::FaultSpec* faults = nullptr,
          const rpc::ShapingSpec* shaping = nullptr, int telemetry_every = 0,
          int heartbeat_ms = 0, int max_restarts = 0)
      : n_devices(n_devices_) {
    Rng rng(23);
    wa = runtime::random_weights(ma, rng);
    wb = runtime::random_weights(mb, rng);
    fabric = runtime::make_fabric(n_devices, use_tcp, faults,
                                  runtime::DataPlaneMode::kOverlapZeroCopy,
                                  shaping);
    fleet_models = {{&ma, &wa}, {&mb, &wb}};
    fleet = {TenantSpec{&ma, &wa, equal_strategy(ma, {0, 5}, n_devices)},
             TenantSpec{&mb, &wb, equal_strategy(mb, {0, 3}, n_devices)}};
    providers = runtime::spawn_providers_multi(
        fabric, n_devices, fleet_models, stats, options.reliability,
        cnn::ExecContext::fast_shared(), telemetry_every, heartbeat_ms,
        max_restarts);
    server = std::make_unique<StreamServer>(fabric.requester(), n_devices,
                                            fleet, stats, options);
  }

  ~Harness() {
    server->close();
    providers.join_all();
  }

  const cnn::CnnModel& model(int id) const { return id == 0 ? ma : mb; }
  const std::vector<cnn::ConvWeights>& weights(int id) const {
    return id == 0 ? wa : wb;
  }
};

/// Closes `h`'s server when it leaves scope. Declared after an attached
/// controller that is itself declared after `h`, it stops the pump — which
/// calls into the controller until it stops — before the controller dies.
struct ClosesServerFirst {
  Harness& h;
  ~ClosesServerFirst() { h.server->close(); }
};

/// Runs one client stream to completion: submit all inputs (from this
/// thread or a helper), pop all outputs, compare each against the
/// single-device reference.
void run_and_check_stream(Harness& h, int stream, int model_id,
                          const std::vector<cnn::Tensor>& inputs) {
  std::thread producer([&h, stream, &inputs] {
    for (const auto& input : inputs) {
      ASSERT_TRUE(h.server->submit(stream, input));
    }
  });
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    auto out = h.server->pop(stream);
    ASSERT_TRUE(out.has_value()) << "stream " << stream << " image " << k;
    const auto reference =
        runtime::run_reference(h.model(model_id), h.weights(model_id), inputs[k]);
    expect_equal(*out, reference,
                 "stream " + std::to_string(stream) + " image " +
                     std::to_string(k));
  }
  producer.join();
}

/// Serves `streams` concurrent client streams, alternating the two
/// tenants, `images` each, every one from its own client thread, and checks
/// every output bit-exact and every stream's accounting.
void serve_concurrent_streams(Harness& h, int streams, int images, Rng& rng) {
  std::vector<int> models(static_cast<std::size_t>(streams));
  std::vector<int> ids(static_cast<std::size_t>(streams));
  std::vector<std::vector<cnn::Tensor>> inputs(
      static_cast<std::size_t>(streams));
  for (std::size_t s = 0; s < models.size(); ++s) {
    models[s] = static_cast<int>(s % 2);
    ids[s] = h.server->open_stream(models[s]);
    ASSERT_GE(ids[s], 0);
    inputs[s] = random_inputs(h.model(models[s]), images, rng);
  }
  std::vector<std::thread> clients;
  for (std::size_t s = 0; s < models.size(); ++s) {
    clients.emplace_back([&h, &ids, &models, &inputs, s] {
      run_and_check_stream(h, ids[s], models[s], inputs[s]);
    });
  }
  for (auto& t : clients) t.join();
  for (const int id : ids) {
    const auto snap = h.server->snapshot(id);
    EXPECT_EQ(snap.submitted, images);
    EXPECT_EQ(snap.delivered, images);
    EXPECT_EQ(snap.queued, 0);
    EXPECT_EQ(static_cast<int>(snap.latency_ms.size()), images);
  }
}

TEST(StreamServer, TwoTenantsConcurrentStreamsBitExact) {
  {
    SCOPED_TRACE("4 streams on 3 devices (cap 6)");
    Harness h(3, /*use_tcp=*/false);
    Rng rng(7);
    serve_concurrent_streams(h, 4, 5, rng);
  }
  {
    // 8 streams x window 4 on a cap of 4: most images wait at the pump.
    SCOPED_TRACE("8 streams on 2 devices (cap 4)");
    Harness h(2, /*use_tcp=*/false);
    Rng rng(8);
    serve_concurrent_streams(h, 8, 6, rng);
  }
}

TEST(StreamServer, InflightNeverExceedsTheDepthCap) {
  // The door thread records one kScatter span per dispatched image and one
  // kGather span per gathered one, in program order. Walking that order,
  // the images between their scatter start and their gather end may never
  // exceed 2 x n_devices — an invariant of the recorded order, not a
  // timing bound.
  constexpr int kDevices = 2;
  constexpr int kStreams = 8;
  constexpr int kImages = 6;
  obs::TraceRecorder::instance().enable();
  {
    Harness h(kDevices, /*use_tcp=*/false);
    Rng rng(19);
    serve_concurrent_streams(h, kStreams, kImages, rng);
  }
  const auto dump = obs::TraceRecorder::instance().snapshot();
  obs::TraceRecorder::instance().disable();

  int door_threads = 0;
  for (const auto& thread : dump.threads) {
    if (thread.name != "serve-door") continue;
    ++door_threads;
    EXPECT_EQ(thread.dropped, 0u);
    int scattered = 0;
    int gathered = 0;
    int peak = 0;
    for (const auto& ev : thread.events) {
      if (ev.cat == static_cast<std::uint16_t>(obs::Cat::kScatter)) {
        ++scattered;
        peak = std::max(peak, scattered - gathered);
      } else if (ev.cat == static_cast<std::uint16_t>(obs::Cat::kGather)) {
        ++gathered;
      }
    }
    EXPECT_EQ(scattered, kStreams * kImages);
    EXPECT_EQ(gathered, kStreams * kImages);
    EXPECT_LE(peak, 2 * kDevices);
  }
  EXPECT_EQ(door_threads, 1);
}

TEST(StreamServer, MisShapedInputIsRefusedAndTheDoorStaysUp) {
  Harness h(3, /*use_tcp=*/false);
  Rng rng(11);
  const int sa = h.server->open_stream(0);  // 20x20x3 input
  const int sb = h.server->open_stream(1);
  ASSERT_GE(sa, 0);
  ASSERT_GE(sb, 0);
  EXPECT_FALSE(h.server->submit(sa, cnn::Tensor(1, 1, 1)));
  EXPECT_FALSE(h.server->submit(sa, cnn::Tensor(20, 5, 3)));  // wrong width
  EXPECT_FALSE(h.server->submit(sa, cnn::Tensor(20, 20, 2)));  // channels
  EXPECT_FALSE(h.server->submit(
      sa, cnn::Tensor(h.mb.input_h(), h.mb.input_w(), h.mb.input_c())));
  // Nothing was queued or counted as submitted.
  const auto refused = h.server->snapshot(sa);
  EXPECT_EQ(refused.submitted, 0);
  EXPECT_EQ(refused.queued, 0);
  EXPECT_FALSE(h.server->down());

  // The refusing stream and the other tenant both keep serving bit-exact.
  const auto in_a = random_inputs(h.ma, 5, rng);
  const auto in_b = random_inputs(h.mb, 5, rng);
  std::thread client_a([&] { run_and_check_stream(h, sa, 0, in_a); });
  std::thread client_b([&] { run_and_check_stream(h, sb, 1, in_b); });
  client_a.join();
  client_b.join();
  EXPECT_EQ(h.server->snapshot(sa).delivered, 5);
  EXPECT_FALSE(h.server->down());
}

TEST(StreamServer, PerStreamSwapNeverTouchesOtherTenants) {
  Harness h(3, /*use_tcp=*/false);
  Rng rng(13);
  const int sa = h.server->open_stream(0);
  const int sb = h.server->open_stream(1);
  ASSERT_GE(sa, 0);
  ASSERT_GE(sb, 0);
  const auto in_a = random_inputs(h.ma, 6, rng);
  const auto in_b = random_inputs(h.mb, 6, rng);

  // Tenant A swaps to a skewed partition (and an extra volume boundary)
  // mid-stream; tenant B keeps serving untouched throughout.
  std::thread client_a([&] {
    for (int k = 0; k < 6; ++k) {
      if (k == 3) {
        h.server->swap_strategy(
            sa, weighted_strategy(h.ma, {0, 3, 5}, {3.0, 1.0, 1.0}));
      }
      ASSERT_TRUE(h.server->submit(sa, in_a[static_cast<std::size_t>(k)]));
      auto out = h.server->pop(sa);
      ASSERT_TRUE(out.has_value());
      expect_equal(*out, runtime::run_reference(h.ma, h.wa, in_a[static_cast<std::size_t>(k)]),
                   "tenant A image " + std::to_string(k));
    }
  });
  std::thread client_b([&] {
    run_and_check_stream(h, sb, 1, in_b);
  });
  client_a.join();
  client_b.join();

  // The swap really happened — and only on tenant A's lane.
  EXPECT_EQ(h.server->snapshot(sa).epochs_pushed, 2);
  EXPECT_EQ(h.server->snapshot(sb).epochs_pushed, 1);
}

TEST(StreamServer, SlowConsumerStallsOnlyItsOwnStream) {
  StreamServerOptions options;
  options.default_window = 2;
  Harness h(2, /*use_tcp=*/false, options);
  Rng rng(31);
  const int slow = h.server->open_stream(0);
  const int fast = h.server->open_stream(0);
  ASSERT_GE(slow, 0);
  ASSERT_GE(fast, 0);

  // The slow stream fills its whole window and its consumer never pops.
  const auto slow_inputs = random_inputs(h.ma, 2, rng);
  for (const auto& input : slow_inputs) {
    ASSERT_TRUE(h.server->submit(slow, input));
  }

  // The fast stream pushes 8 images straight through the shared fleet
  // while the slow stream's window stays exhausted. If the slow stream
  // could block the pump (head-of-line), this would deadlock the test.
  const auto fast_inputs = random_inputs(h.ma, 8, rng);
  run_and_check_stream(h, fast, 0, fast_inputs);
  EXPECT_EQ(h.server->snapshot(fast).delivered, 8);
  EXPECT_EQ(h.server->snapshot(slow).delivered, 0);

  // The slow consumer finally shows up; nothing was lost.
  for (const auto& input : slow_inputs) {
    auto out = h.server->pop(slow);
    ASSERT_TRUE(out.has_value());
    expect_equal(*out, runtime::run_reference(h.ma, h.wa, input), "slow stream");
  }
}

TEST(StreamServer, AdmissionControl) {
  StreamServerOptions options;
  options.max_streams = 2;
  Harness h(2, /*use_tcp=*/false, options);
  EXPECT_EQ(h.server->open_stream(/*model_id=*/7), -1);   // unknown tenant
  EXPECT_EQ(h.server->open_stream(0, /*window=*/-1), -1); // malformed
  const int a = h.server->open_stream(0);
  const int b = h.server->open_stream(1);
  EXPECT_GE(a, 0);
  EXPECT_GE(b, 0);
  EXPECT_EQ(h.server->open_stream(0), -1);  // cap reached
  // Closing a stream frees its admission slot.
  h.server->close_stream(a);
  EXPECT_GE(h.server->open_stream(0), 0);
}

TEST(StreamServer, TcpFabricMultiStreamBitExact) {
  Harness h(2, /*use_tcp=*/true);
  Rng rng(41);
  const int sa = h.server->open_stream(0);
  const int sb = h.server->open_stream(1);
  ASSERT_GE(sa, 0);
  ASSERT_GE(sb, 0);
  const auto in_a = random_inputs(h.ma, 4, rng);
  const auto in_b = random_inputs(h.mb, 4, rng);
  std::thread client_a([&] { run_and_check_stream(h, sa, 0, in_a); });
  std::thread client_b([&] { run_and_check_stream(h, sb, 1, in_b); });
  client_a.join();
  client_b.join();
}

TEST(StreamServer, FaultedFabricMultiStreamBitExact) {
  rpc::FaultSpec faults;
  faults.seed = 77;
  faults.drop_prob = 0.05;
  faults.dup_prob = 0.05;
  faults.delay_prob = 0.10;
  StreamServerOptions options;
  options.reliability.enabled = true;
  Harness h(2, /*use_tcp=*/false, options, &faults);
  Rng rng(59);
  const int sa = h.server->open_stream(0);
  const int sb = h.server->open_stream(1);
  ASSERT_GE(sa, 0);
  ASSERT_GE(sb, 0);
  const auto in_a = random_inputs(h.ma, 4, rng);
  const auto in_b = random_inputs(h.mb, 4, rng);
  std::thread client_a([&] {
    for (int k = 0; k < 4; ++k) {
      if (k == 2) {
        // The swap's kReconfigure rides the same retransmission protocol
        // as the data it gates.
        h.server->swap_strategy(
            sa, weighted_strategy(h.ma, {0, 5}, {1.0, 2.0}));
      }
      ASSERT_TRUE(h.server->submit(sa, in_a[static_cast<std::size_t>(k)]));
      auto out = h.server->pop(sa);
      ASSERT_TRUE(out.has_value());
      expect_equal(*out, runtime::run_reference(h.ma, h.wa, in_a[static_cast<std::size_t>(k)]),
                   "faulted tenant A image " + std::to_string(k));
    }
  });
  std::thread client_b([&] { run_and_check_stream(h, sb, 1, in_b); });
  client_a.join();
  client_b.join();
  EXPECT_EQ(h.server->snapshot(sa).epochs_pushed, 2);
  EXPECT_EQ(h.server->snapshot(sb).epochs_pushed, 1);
}

TEST(StreamServer, ShapedFabricMultiStreamBitExact) {
  const auto shaping = rpc::ShapingSpec::uniform(/*n_nodes=*/3, /*rate=*/400.0);
  Harness h(2, /*use_tcp=*/false, {}, nullptr, &shaping);
  Rng rng(67);
  const int sa = h.server->open_stream(0);
  const int sb = h.server->open_stream(1);
  ASSERT_GE(sa, 0);
  ASSERT_GE(sb, 0);
  const auto in_a = random_inputs(h.ma, 3, rng);
  const auto in_b = random_inputs(h.mb, 3, rng);
  std::thread client_a([&] { run_and_check_stream(h, sa, 0, in_a); });
  std::thread client_b([&] { run_and_check_stream(h, sb, 1, in_b); });
  client_a.join();
  client_b.join();
}

TEST(StreamServer, PerTenantControllerFedFromSharedTelemetry) {
  ctrl::BandwidthProportionalPlanner planner;
  Harness h(2, /*use_tcp=*/false, {}, nullptr, nullptr,
            /*telemetry_every=*/1);
  ctrl::ControllerConfig config;
  config.planner = &planner;
  config.model = &h.ma;
  for (int i = 0; i < 2; ++i) {
    config.latency.push_back(
        device::make_latency_model(device::DeviceType::kNano));
  }
  config.network = net::Network(2, 100.0);
  ctrl::Controller controller(config);
  controller.start_external(h.fleet[0].strategy);
  const ClosesServerFirst closes_first{h};

  Rng rng(71);
  const int sa = h.server->open_stream(0);
  ASSERT_GE(sa, 0);
  h.server->attach_controller(sa, &controller);
  const auto in_a = random_inputs(h.ma, 6, rng);
  run_and_check_stream(h, sa, 0, in_a);
  // Providers published one frame per finished image; the door fanned them
  // into the tenant's controller.
  EXPECT_GT(controller.stats().telemetry_frames, 0);
}

TEST(StreamServer, RetiredLaneIsEvictedAcrossTheFleet) {
  // Epoch-lane GC: a closed, fully drained stream must not pin its epoch
  // lane (schedules, owner rows, epoch history) on the providers forever.
  // The door posts kLaneEvict once the lane is quiescent; every provider
  // drops the lane as soon as its dispatch cursor passes the watermark.
  Harness h(2, /*use_tcp=*/false);
  Rng rng(97);
  const int sa = h.server->open_stream(0);
  ASSERT_GE(sa, 0);
  run_and_check_stream(h, sa, 0, random_inputs(h.ma, 3, rng));
  h.server->close_stream(sa);

  // Unrelated traffic advances the providers past the eviction watermark.
  const int sb = h.server->open_stream(1);
  ASSERT_GE(sb, 0);
  run_and_check_stream(h, sb, 1, random_inputs(h.mb, 6, rng));

  // Both providers eventually drop tenant A's retired lane.
  for (int spin = 0; spin < 500 && h.stats.lanes_evicted.load() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(h.stats.lanes_evicted.load(), 2);

  // The fleet is still fully serviceable after the eviction.
  const int sc = h.server->open_stream(0);
  ASSERT_GE(sc, 0);
  run_and_check_stream(h, sc, 0, random_inputs(h.ma, 2, rng));
}

TEST(StreamServer, StreamsSurviveFleetChurn) {
  // Front-door churn: a device dies while two tenants are mid-stream, the
  // attached controller's lease lapses, the pump cancels + re-dispatches
  // the dead device's in-flight work for EVERY stream (the non-owning
  // tenant is masked off the dead device too), and when the device comes
  // back it is adopted as a joiner. Both streams stay bit-exact throughout.
  rpc::FaultSpec faults;  // zero probabilities: a pure kill switch
  faults.seed = 5;
  StreamServerOptions options;
  options.reliability.enabled = true;
  Harness h(3, /*use_tcp=*/false, options, &faults, nullptr,
            /*telemetry_every=*/1, /*heartbeat_ms=*/5, /*max_restarts=*/8);

  ctrl::BandwidthProportionalPlanner planner;
  ctrl::ControllerConfig config;
  config.planner = &planner;
  config.model = &h.ma;
  for (int i = 0; i < 3; ++i) {
    config.latency.push_back(
        device::make_latency_model(device::DeviceType::kNano));
  }
  config.network = net::Network(3, 100.0);
  config.poll_ms = 2;
  config.lease_ms = 80;
  config.drift_threshold = 1e9;  // membership decisions only
  ctrl::Controller controller(config);
  controller.start_external(h.fleet[0].strategy);
  const ClosesServerFirst closes_first{h};

  Rng rng(89);
  const int sa = h.server->open_stream(0);
  const int sb = h.server->open_stream(1);
  ASSERT_GE(sa, 0);
  ASSERT_GE(sb, 0);
  h.server->attach_controller(sa, &controller);
  const auto in_a = random_inputs(h.ma, 12, rng);
  const auto in_b = random_inputs(h.mb, 12, rng);

  const auto serve_range = [&](int stream, int model_id,
                               const std::vector<cnn::Tensor>& inputs,
                               int begin, int end) {
    for (int k = begin; k < end; ++k) {
      const auto& input = inputs[static_cast<std::size_t>(k)];
      ASSERT_TRUE(h.server->submit(stream, input));
      auto out = h.server->pop(stream);
      ASSERT_TRUE(out.has_value()) << "stream " << stream << " image " << k;
      expect_equal(*out,
                   runtime::run_reference(h.model(model_id),
                                          h.weights(model_id), input),
                   "churn stream " + std::to_string(stream) + " image " +
                       std::to_string(k));
    }
  };

  // Healthy fleet.
  serve_range(sa, 0, in_a, 0, 4);
  serve_range(sb, 1, in_b, 0, 4);

  // Device 1 dies. The next pops block until the lease lapses and the pump
  // replans both tenants over the survivors — then complete bit-exact.
  h.fabric.set_node_down(1, true);
  serve_range(sa, 0, in_a, 4, 8);
  serve_range(sb, 1, in_b, 4, 8);
  EXPECT_EQ(controller.stats().deaths, 1);

  // Device 1 comes back and is adopted as a joiner at an epoch boundary.
  h.fabric.set_node_down(1, false);
  for (int spin = 0; spin < 1000 && controller.stats().joins < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(controller.stats().joins, 1);
  serve_range(sa, 0, in_a, 8, 12);
  serve_range(sb, 1, in_b, 8, 12);

  EXPECT_EQ(h.server->snapshot(sa).delivered, 12);
  EXPECT_EQ(h.server->snapshot(sb).delivered, 12);
}

// ---------------------------------------------------------------------------
// The pump's dispatch order without threads: detail::fair_pick.

using Stamp = std::chrono::steady_clock::time_point;

/// A stream with a deep queue and a wide window whose oldest input was
/// submitted `age_us` after the clock's epoch (smaller = older).
detail::FairEntry backlog(Ops cost, int age_us = 0) {
  detail::FairEntry e;
  e.cost = cost;
  e.queued = 1000;
  e.credits = 1000;
  e.head = Stamp{} + std::chrono::microseconds(age_us);
  return e;
}

/// `n` picks with nothing in flight, queues and credits left as they are.
std::vector<int> picks(std::vector<detail::FairEntry>& entries, Ops& vtime,
                       int n) {
  std::vector<int> order;
  for (int i = 0; i < n; ++i) {
    order.push_back(detail::fair_pick(entries, vtime, 0, /*cap=*/1));
  }
  return order;
}

int count_of(const std::vector<int>& order, int index) {
  return static_cast<int>(std::count(order.begin(), order.end(), index));
}

TEST(FairPick, CheaperModelGoesFirst) {
  // The heavy stream's head is older, so it would win a tie: cost decides.
  std::vector<detail::FairEntry> e{backlog(10, 0), backlog(1, 5)};
  Ops vtime = 0;
  EXPECT_EQ(detail::fair_pick(e, vtime, 0, 1), 1);
}

TEST(FairPick, ServiceIsSharedByCostAndNothingStarves) {
  // Both always ready: ten light picks per heavy one. A heavy stream whose
  // tag floated with the virtual time would never be picked here.
  std::vector<detail::FairEntry> e{backlog(10, 0), backlog(1, 5)};
  Ops vtime = 0;
  const auto order = picks(e, vtime, 21);
  EXPECT_EQ(count_of(order, 0), 2);
  EXPECT_EQ(count_of(order, 1), 19);
}

TEST(FairPick, EqualCostStreamsAlternate) {
  std::vector<detail::FairEntry> e{backlog(7), backlog(7)};
  Ops vtime = 0;
  const auto order = picks(e, vtime, 10);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(i % 2)) << "pick " << i;
  }
}

TEST(FairPick, TiesGoToTheOlderHead) {
  std::vector<detail::FairEntry> e{backlog(7, /*age_us=*/9),
                                   backlog(7, /*age_us=*/3)};
  Ops vtime = 0;
  EXPECT_EQ(detail::fair_pick(e, vtime, 0, 1), 1);
  EXPECT_EQ(detail::fair_pick(e, vtime, 0, 1), 0);
}

TEST(FairPick, StreamsWithoutCreditOrInputAreSkipped) {
  std::vector<detail::FairEntry> e{backlog(1), backlog(1), backlog(100)};
  e[0].credits = 0;  // slow consumer: queued input, no credit
  e[1].queued = 0;   // idle: credits, no input
  Ops vtime = 0;
  EXPECT_EQ(detail::fair_pick(e, vtime, 0, 1), 2);
  e[2].queued = 0;
  const Ops before = vtime;
  EXPECT_EQ(detail::fair_pick(e, vtime, 0, 1), -1);
  EXPECT_EQ(vtime, before);
}

TEST(FairPick, NewStreamStartsAtTheVirtualTime) {
  std::vector<detail::FairEntry> e{backlog(7), backlog(7)};
  Ops vtime = 0;
  (void)picks(e, vtime, 100);
  ASSERT_GT(vtime, 0);
  // A newcomer (finish 0) neither catches up on the 100 picks it missed
  // nor waits behind them: it takes an equal share from its first pick.
  e.push_back(backlog(7));
  const Ops start = vtime;
  EXPECT_EQ(detail::fair_pick(e, vtime, 0, 1), 2);
  EXPECT_EQ(e[2].finish, start + 7);
  auto order = picks(e, vtime, 29);
  order.push_back(2);
  for (int k = 0; k < 3; ++k) EXPECT_EQ(count_of(order, k), 10) << k;
}

TEST(FairPick, TimeAwayBanksNoService) {
  // Stream 0 sits out `away` picks while stream 1 is served, then both are
  // ready again. Under plain least-attained-service it would win `away`
  // picks in a row on return; with finish tags it restarts at the virtual
  // time, so a long absence wins no more than a short one.
  const auto run_after = [](int away) {
    std::vector<detail::FairEntry> e{backlog(7), backlog(7)};
    e[0].queued = 0;
    Ops vtime = 0;
    (void)picks(e, vtime, away);
    e[0].queued = 1000;
    const auto order = picks(e, vtime, 10);
    int streak = 0;
    while (streak < static_cast<int>(order.size()) && order[streak] == 0) {
      ++streak;
    }
    return streak;
  };
  const int after_long = run_after(1000);
  const int after_short = run_after(1);
  EXPECT_GE(after_short, 1);
  EXPECT_LE(after_long, after_short);
  EXPECT_LE(after_long, 2);
}

TEST(FairPick, NothingIsPickedAtTheCap) {
  std::vector<detail::FairEntry> e{backlog(7), backlog(3)};
  Ops vtime = 0;
  EXPECT_EQ(detail::fair_pick(e, vtime, /*inflight=*/4, /*cap=*/4), -1);
  EXPECT_EQ(detail::fair_pick(e, vtime, /*inflight=*/5, /*cap=*/4), -1);
  EXPECT_EQ(vtime, 0);
  EXPECT_EQ(e[0].finish, 0);
  EXPECT_EQ(e[1].finish, 0);
  EXPECT_EQ(detail::fair_pick(e, vtime, /*inflight=*/3, /*cap=*/4), 1);
}

}  // namespace
}  // namespace de::serve
