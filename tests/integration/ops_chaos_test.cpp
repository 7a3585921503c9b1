// Ops-plane chaos gate: a seeded kill/revive schedule runs under the PR-9
// membership machinery while a scraper watches the cluster purely through
// the live admin endpoints — the death, the adoption, and the stream's SLO
// stats must all be observable from /membership and /streams alone, with
// no ServeResult inspection. A second, fully deterministic test drives an
// external-mode controller through dead -> joining -> alive and checks the
// /membership JSON at each step.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/require.hpp"
#include "core/strategy.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/planner.hpp"
#include "device/device.hpp"
#include "obs/admin.hpp"
#include "obs/trace.hpp"
#include "runtime/serve.hpp"

namespace de::runtime {
namespace {

cnn::CnnModel mini() {
  return cnn::ModelBuilder("mini", 24, 24, 3)
      .conv_same(6, 3)
      .conv_same(6, 3)
      .maxpool(2, 2)
      .conv_same(8, 3)
      .conv(8, 3, 2, 1)
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

sim::RawStrategy even_strategy(const cnn::CnnModel& m, int n_devices) {
  sim::RawStrategy strategy;
  strategy.volumes =
      cnn::volumes_from_boundaries({0, 2, 3, 5}, m.num_layers());
  for (const auto& v : strategy.volumes) {
    strategy.cuts.push_back(
        core::proportional_split(
            cnn::volume_out_height(m, v),
            std::vector<double>(static_cast<std::size_t>(n_devices), 1.0))
            .cuts);
  }
  return strategy;
}

TEST(OpsChaos, DeathAndSloObservedThroughLiveEndpointsOnly) {
  Rng rng(71);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const int n_devices = 4;
  const int n_images = 24;
  const auto inputs = random_inputs(m, n_images, rng);
  const auto strategy = even_strategy(m, n_devices);

  rpc::FaultSpec faults;  // zero probabilities: the death comes from the
  faults.seed = 17;       // seeded schedule, not random loss
  rpc::ShapingSpec shaping;  // pace the links so the tail outlives a scrape
  shaping.node_traces.assign(static_cast<std::size_t>(n_devices) + 1,
                             net::ThroughputTrace::constant(40.0));

  ctrl::BandwidthProportionalPlanner planner;
  ctrl::ControllerConfig config;
  config.planner = &planner;
  config.model = &m;
  for (int i = 0; i < n_devices; ++i) {
    config.latency.push_back(
        device::make_latency_model(device::DeviceType::kNano));
  }
  config.network = net::Network(n_devices, 100.0);
  config.lease_ms = 80;
  config.drift_threshold = 1e9;  // membership decisions only
  ctrl::Controller controller(config);

  obs::AdminServer admin;
  ServeOptions options;
  options.use_tcp = true;
  options.inflight = 4;
  options.faults = &faults;
  options.shaping = &shaping;
  options.reliability.enabled = true;
  options.heartbeat_ms = 5;
  options.provider_max_restarts = 8;
  options.controller = &controller;
  options.admin = &admin;
  options.slo_ms = 60000;  // never violated; the field must still render
  // Node 1 dies early and revives late: its lease lapse and re-adoption
  // must both show up on /membership while the stream is still serving.
  options.chaos = {{/*at_image=*/4, /*node=*/1, /*kill=*/true},
                   {/*at_image=*/12, /*node=*/1, /*kill=*/false}};

  std::thread streamer([&] {
    (void)serve_stream(m, strategy, weights, inputs, n_devices, options);
  });

  // Everything asserted below comes from the wire, not from ServeResult.
  bool saw_dead_state = false;
  bool saw_death_count = false;
  bool saw_join_count = false;
  bool saw_swap_epoch = false;
  bool saw_slo_stats = false;
  for (int attempt = 0; attempt < 30000; ++attempt) {
    const auto membership = obs::http_get(admin.port(), "/membership");
    if (!membership.has_value() || membership->status != 200) {
      if (saw_death_count && saw_join_count) break;  // stream torn down
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    const std::string& mj = membership->body;
    if (mj.find("\"node\":1,\"state\":\"dead\"") != std::string::npos) {
      saw_dead_state = true;
    }
    if (mj.find("\"deaths\":1") != std::string::npos) saw_death_count = true;
    if (mj.find("\"joins\":1") != std::string::npos) saw_join_count = true;
    // Once a membership swap applied, the serving loop's epoch shows up.
    if (saw_death_count &&
        mj.find("\"last_swap_epoch\":-1") == std::string::npos) {
      saw_swap_epoch = true;
    }
    const auto streams = obs::http_get(admin.port(), "/streams");
    if (streams.has_value() && streams->status == 200 &&
        streams->body.find("\"delivered\":0,") == std::string::npos &&
        streams->body.find("\"p50_ms\":0.000000,") == std::string::npos &&
        streams->body.find("\"slo_ms\":60000") != std::string::npos &&
        streams->body.find("\"slo_violations\":0") != std::string::npos) {
      saw_slo_stats = true;
    }
    if (saw_dead_state && saw_death_count && saw_join_count &&
        saw_swap_epoch && saw_slo_stats) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  streamer.join();
  obs::TraceRecorder::instance().disable();
  admin.close();

  EXPECT_TRUE(saw_dead_state) << "no /membership scrape showed node 1 dead";
  EXPECT_TRUE(saw_death_count) << "deaths counter never reached 1";
  EXPECT_TRUE(saw_join_count) << "joins counter never reached 1";
  EXPECT_TRUE(saw_swap_epoch) << "last_swap_epoch never left -1";
  EXPECT_TRUE(saw_slo_stats) << "/streams never showed live SLO stats";
}

TEST(OpsChaos, ExternalControllerMembershipJsonTracksDeadJoiningAlive) {
  const auto m = mini();
  const int n_devices = 2;
  ctrl::BandwidthProportionalPlanner planner;
  ctrl::ControllerConfig config;
  config.planner = &planner;
  config.model = &m;
  for (int i = 0; i < n_devices; ++i) {
    config.latency.push_back(
        device::make_latency_model(device::DeviceType::kNano));
  }
  config.network = net::Network(n_devices, 100.0);
  config.lease_ms = 10;  // 10 ms lease on our fully synthetic clock
  config.drift_threshold = 1e9;
  ctrl::Controller controller(config);
  controller.start(even_strategy(m, n_devices));

  const auto hb = [&](rpc::NodeId node, std::uint32_t seq,
                      std::int64_t at_us) {
    rpc::HeartbeatMsg msg;
    msg.from_node = node;
    msg.hb_seq = seq;
    msg.steady_now_us = at_us;
    controller.ingest_heartbeat(msg, at_us);
  };
  const auto json_at = [&](std::int64_t now_us) {
    return ctrl::membership_json(controller.membership_view(now_us), -1);
  };

  // Both devices heartbeat: alive, lease ages on our synthetic clock.
  hb(0, 1, 1000);
  hb(1, 1, 1000);
  {
    const std::string j = json_at(2000);
    EXPECT_NE(j.find("\"node\":0,\"state\":\"alive\""), std::string::npos);
    EXPECT_NE(j.find("\"node\":1,\"state\":\"alive\""), std::string::npos);
    EXPECT_NE(j.find("\"lease_age_ms\":1.0"), std::string::npos);
    EXPECT_NE(j.find("\"deaths\":0"), std::string::npos);
  }

  // Node 1 goes silent past the 10 ms lease; node 0 keeps renewing. The
  // sweep rides the next heartbeat ingest.
  hb(0, 2, 15000);
  {
    const std::string j = json_at(15000);
    EXPECT_NE(j.find("\"node\":1,\"state\":\"dead\""), std::string::npos);
    EXPECT_NE(j.find("\"deaths\":1"), std::string::npos);
    EXPECT_NE(j.find("\"swap_pending\":true"), std::string::npos);
  }
  // The serving loop takes the death decision.
  const auto death = controller.take_swap();
  ASSERT_TRUE(death.has_value());
  ASSERT_EQ(death->died.size(), 1u);
  EXPECT_EQ(death->died[0], 1);

  // Node 1 restarts: a fresh heartbeat life (seq starts over) revives the
  // lease and the controller publishes an adoption decision. Until the
  // serving loop takes it, /membership must show the device as *joining* —
  // heartbeating, but not yet serving rows.
  hb(1, 1, 20000);
  hb(0, 3, 20000);
  {
    const std::string j = json_at(20000);
    EXPECT_NE(j.find("\"node\":1,\"state\":\"joining\""), std::string::npos);
    EXPECT_NE(j.find("\"joins\":1"), std::string::npos);
  }
  const auto join = controller.take_swap();
  ASSERT_TRUE(join.has_value());
  ASSERT_EQ(join->joined.size(), 1u);
  {
    const std::string j = json_at(21000);
    EXPECT_NE(j.find("\"node\":1,\"state\":\"alive\""), std::string::npos);
  }
}

}  // namespace
}  // namespace de::runtime
