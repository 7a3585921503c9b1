// The multi-tenant serving front door: N concurrent client streams over one
// shared provider fleet must each reproduce the single-device reference
// bit-for-bit — across tenants with different models, across mid-stream
// per-stream strategy swaps (which must never reconfigure another tenant),
// over InProc and loopback TCP fabrics including faulted and shaped wires —
// and a slow consumer may stall only its own stream, never the fleet.
#include "serve/stream_server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/strategy.hpp"
#include "common/require.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/planner.hpp"
#include "device/device.hpp"
#include "net/network.hpp"
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
        cnn::ExecContext::fast_shared(),
        runtime::DataPlaneMode::kOverlapZeroCopy, telemetry_every,
        heartbeat_ms, max_restarts);
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

TEST(StreamServer, TwoTenantsConcurrentStreamsBitExact) {
  Harness h(3, /*use_tcp=*/false);
  Rng rng(7);
  constexpr int kStreams = 4;
  constexpr int kImages = 5;
  std::vector<int> models = {0, 1, 0, 1};
  std::vector<int> ids(kStreams);
  std::vector<std::vector<cnn::Tensor>> inputs(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    ids[s] = h.server->open_stream(models[static_cast<std::size_t>(s)]);
    ASSERT_GE(ids[s], 0);
    inputs[static_cast<std::size_t>(s)] =
        random_inputs(h.model(models[static_cast<std::size_t>(s)]), kImages,
                      rng);
  }
  std::vector<std::thread> clients;
  for (int s = 0; s < kStreams; ++s) {
    clients.emplace_back([&h, &ids, &models, &inputs, s] {
      run_and_check_stream(h, ids[static_cast<std::size_t>(s)],
                           models[static_cast<std::size_t>(s)],
                           inputs[static_cast<std::size_t>(s)]);
    });
  }
  for (auto& t : clients) t.join();
  for (int s = 0; s < kStreams; ++s) {
    const auto snap = h.server->snapshot(ids[static_cast<std::size_t>(s)]);
    EXPECT_EQ(snap.submitted, kImages);
    EXPECT_EQ(snap.delivered, kImages);
    EXPECT_EQ(static_cast<int>(snap.latency_ms.size()), kImages);
  }
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

}  // namespace
}  // namespace de::serve
