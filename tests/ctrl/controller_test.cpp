// Control-plane unit + loop tests: the telemetry book's rate attribution
// and network refresh, the scaled latency view, the bandwidth-proportional
// planner's sensitivity to observed rates, and the controller end-to-end —
// telemetry frames in, a predicted-better strategy out, with re-baselining
// so one regime change yields one swap.
#include "ctrl/controller.hpp"

#include <gtest/gtest.h>

#include "common/require.hpp"
#include "ctrl/planner.hpp"
#include "device/device.hpp"
#include "obs/trace.hpp"

namespace de::ctrl {
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

sim::ClusterLatency nano_cluster(int n) {
  sim::ClusterLatency latency;
  for (int i = 0; i < n; ++i) {
    latency.push_back(device::make_latency_model(device::DeviceType::kNano));
  }
  return latency;
}

/// Rows device `i` produces across all volumes of a strategy.
int total_rows(const sim::RawStrategy& strategy, int i) {
  int rows = 0;
  for (const auto& cuts : strategy.cuts) {
    rows += cuts[static_cast<std::size_t>(i) + 1] -
            cuts[static_cast<std::size_t>(i)];
  }
  return rows;
}

TEST(TelemetryBook, AttributesRequesterLinkSamplesToTheirDevice) {
  TelemetryBook book(3, /*smoothing=*/1.0);
  // Provider 0 reporting its link to the requester (node 3) at 80: that is
  // an estimate of device 0's radio.
  rpc::TelemetryMsg msg;
  msg.from_node = 0;
  msg.compute_ms = 4.0;
  msg.images = 2;
  msg.links = {{3, 80.0, 1.0}};
  book.ingest(msg);
  auto rates = book.device_rates();
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_NEAR(rates[0], 80.0, 1e-9);
  EXPECT_EQ(rates[1], 0.0);  // never observed
  EXPECT_NEAR(book.compute_ms()[0], 4.0, 1e-9);

  // Provider 1's batch: the provider-to-provider halo sample (min of two
  // unknown radios) is ignored; the requester-link sample counts.
  book.ingest_links(1, {{0, 30.0, 1.0}, {3, 95.0, 1.0}});
  rates = book.device_rates();
  EXPECT_NEAR(rates[1], 95.0, 1e-9);
  EXPECT_NEAR(rates[0], 80.0, 1e-9);  // untouched by the halo sample

  // The requester's own (locally sampled) links estimate their device end.
  book.ingest_links(3, {{2, 60.0, 1.0}});
  EXPECT_NEAR(book.device_rates()[2], 60.0, 1e-9);

  // Out-of-range nodes are ignored, not fatal.
  book.ingest_links(99, {{98, 10.0, 1.0}});
  rpc::TelemetryMsg stray;
  stray.from_node = 42;
  book.ingest(stray);
}

TEST(TelemetryBook, RefreshedNetworkReplacesObservedLinksOnly) {
  TelemetryBook book(2, 1.0);
  book.ingest_links(0, {{2, 25.0, 1.0}});
  net::Network baseline(2, /*default_mbps=*/300.0, /*requester_mbps=*/200.0);
  const auto fresh = book.refreshed_network(baseline);
  EXPECT_NEAR(fresh.device_rate(0, 0.0), 25.0, 1e-9);
  EXPECT_NEAR(fresh.device_rate(1, 0.0), 300.0, 1e-9);  // unobserved: baseline
  // The requester radio is presumed provisioned: baseline, never rewritten.
  EXPECT_NEAR(fresh.link(net::kRequester).rate_at(0.0), 200.0, 1e-9);
}

TEST(ScaledLatency, ClampsAndScales) {
  const auto base = nano_cluster(2);
  const auto model = mini();
  const auto& layer = model.layer(0);
  const Ms raw = base[0]->layer_ms(layer, 10);
  const auto scaled = scale_latency(base, {2.0, 1e9});
  EXPECT_NEAR(scaled[0]->layer_ms(layer, 10), 2.0 * raw, 1e-9);
  EXPECT_NEAR(scaled[1]->layer_ms(layer, 10), 32.0 * raw, 1e-9);  // clamped
}

TEST(ProportionalPlanner, ShiftsRowsTowardFastLinks) {
  const auto model = mini();
  const auto latency = nano_cluster(3);
  BandwidthProportionalPlanner planner;

  core::PlanContext ctx;
  ctx.model = &model;
  ctx.latency = latency;
  net::Network balanced(3, 100.0);
  ctx.network = &balanced;
  const auto equal = planner.plan(ctx).to_raw(model);

  net::Network skewed(3, 100.0);
  skewed.set_device_link(0, net::Link::constant(2.0));  // collapsed radio
  ctx.network = &skewed;
  const auto adapted = planner.plan(ctx).to_raw(model);

  EXPECT_LT(total_rows(adapted, 0), total_rows(equal, 0));
  EXPECT_GT(total_rows(adapted, 1), total_rows(equal, 1));
}

TEST(Controller, RegimeShiftYieldsExactlyOneSwap) {
  const auto model = mini();
  const int n = 3;
  BandwidthProportionalPlanner planner;

  ControllerConfig config;
  config.planner = &planner;
  config.model = &model;
  config.latency = nano_cluster(n);
  config.network = net::Network(n, 100.0);
  config.min_swap_gap_s = 0.0;
  Controller controller(config);

  // Node n is the requester; each tick feeds one report per device and
  // polls, as the serving door's control thread does.
  core::PlanContext ctx;
  ctx.model = &model;
  ctx.latency = config.latency;
  ctx.network = &config.network;
  const auto serving = planner.plan(ctx).to_raw(model);
  controller.start(serving);

  // Device 0's radio collapses 100 -> 1 Mbps; everyone else holds. (On the
  // tiny test model, per-transfer fixed I/O costs dominate until the link
  // is truly dead — the event simulator, not this test, decides when
  // dropping the device beats keeping it.)
  const auto report = [&](rpc::NodeId from, double mbps) {
    rpc::TelemetryMsg msg;
    msg.from_node = from;
    msg.compute_ms = 1.0;
    msg.images = 1;
    msg.links = {{n, mbps, 0.5}};
    controller.ingest(msg);
  };
  std::optional<SwapDecision> decision;
  for (int tick = 0; tick < 500 && !decision.has_value(); ++tick) {
    report(0, 1.0);
    report(1, 100.0);
    report(2, 100.0);
    controller.poll(obs::now_us());
    decision = controller.take_swap();
  }
  ASSERT_TRUE(decision.has_value()) << "controller never offered a swap";
  EXPECT_LT(decision->predicted_next_ms, decision->predicted_serving_ms);
  EXPECT_LT(total_rows(decision->strategy, 0), total_rows(serving, 0));
  ASSERT_EQ(decision->device_mbps.size(), 3u);
  EXPECT_LT(decision->device_mbps[0], 20.0);

  // Same regime again: the controller re-baselined on the swap, so no
  // second decision appears.
  for (int tick = 0; tick < 25; ++tick) {
    report(0, 1.0);
    report(1, 100.0);
    report(2, 100.0);
    controller.poll(obs::now_us());
    ASSERT_FALSE(controller.take_swap().has_value());
  }

  const auto stats = controller.stats();
  EXPECT_GT(stats.telemetry_frames, 0);
  EXPECT_GE(stats.replans, 1);
  EXPECT_EQ(stats.swaps, 1);
}

TEST(Controller, RejectsInvalidConfigs) {
  const auto model = mini();
  BandwidthProportionalPlanner planner;
  ControllerConfig config;
  EXPECT_THROW(Controller{config}, Error);  // no planner/model
  config.planner = &planner;
  config.model = &model;
  config.latency = nano_cluster(2);
  config.network = net::Network(3, 100.0);  // count mismatch
  EXPECT_THROW(Controller{config}, Error);
}

}  // namespace
}  // namespace de::ctrl
