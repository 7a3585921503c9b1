// Elastic membership on the real data plane (in-process fabric): a seeded
// chaos schedule kills (and revives) devices mid-stream while a
// lease-tracking controller detects the deaths from missed heartbeats,
// replans over the survivors, and the serving loop cancels + re-dispatches
// every in-flight image the dead device owned. The gates are the same as
// every other serving test: every delivered image bit-exact against the
// single-device reference, and forward progress (the stream finishes
// instead of starving out).
#include <gtest/gtest.h>

#include "core/strategy.hpp"
#include "common/require.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/planner.hpp"
#include "device/device.hpp"
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

void expect_all_equal_reference(const cnn::CnnModel& m,
                                const std::vector<cnn::ConvWeights>& weights,
                                const std::vector<cnn::Tensor>& inputs,
                                const std::vector<cnn::Tensor>& outputs) {
  ASSERT_EQ(outputs.size(), inputs.size());
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const auto reference = run_reference(m, weights, inputs[k]);
    ASSERT_EQ(outputs[k].data, reference.data)
        << "image " << k << " diverged from the reference bits";
  }
}

/// A lease-tracking controller tuned for churn tests: heartbeat-driven
/// membership only (drift replanning effectively disabled so deaths are
/// the only decisions the stream sees).
struct ChurnController {
  cnn::CnnModel model;
  ctrl::BandwidthProportionalPlanner planner;
  ctrl::ControllerConfig config;
  std::unique_ptr<ctrl::Controller> controller;

  ChurnController(const cnn::CnnModel& m, int n_devices) : model(m) {
    config.planner = &planner;
    config.model = &model;
    for (int i = 0; i < n_devices; ++i) {
      config.latency.push_back(
          device::make_latency_model(device::DeviceType::kNano));
    }
    config.network = net::Network(n_devices, 100.0);
    config.lease_ms = 80;
    config.drift_threshold = 1e9;  // membership decisions only
    controller = std::make_unique<ctrl::Controller>(config);
  }
};

TEST(MembershipServe, KillOneDeviceMidStreamStaysBitExact) {
  Rng rng(53);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const int n_devices = 3;
  const auto inputs = random_inputs(m, 20, rng);
  const auto strategy = even_strategy(m, n_devices);

  rpc::FaultSpec faults;  // no random faults: a pure kill switch
  faults.seed = 7;
  ChurnController churn(m, n_devices);

  ServeOptions options;
  options.inflight = 4;
  options.keep_outputs = true;
  options.faults = &faults;
  options.reliability.enabled = true;
  options.heartbeat_ms = 5;
  options.provider_max_restarts = 4;
  options.controller = churn.controller.get();
  options.chaos = {{/*at_image=*/6, /*node=*/1, /*kill=*/true}};

  const auto result = serve_stream(m, strategy, weights, inputs, n_devices,
                                   options);

  expect_all_equal_reference(m, weights, inputs, result.outputs);
  EXPECT_EQ(result.images, 20);
  EXPECT_EQ(result.deaths, 1);
  EXPECT_EQ(result.joins, 0);
  EXPECT_GT(result.heartbeats, 0);
  // The gather the death interrupted was itself in flight, so at least one
  // image was voided and re-dispatched — and none was lost or duplicated.
  EXPECT_GE(result.images_cancelled, 1);
  ASSERT_GE(result.reconfigurations.size(), 1u);
  int death_swaps = 0;
  for (const auto& r : result.reconfigurations) death_swaps += r.deaths;
  EXPECT_EQ(death_swaps, 1);
}

TEST(MembershipServe, KillThenReviveAdoptsTheJoinerMidStream) {
  Rng rng(59);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const int n_devices = 3;
  const auto inputs = random_inputs(m, 26, rng);
  const auto strategy = even_strategy(m, n_devices);

  rpc::FaultSpec faults;
  faults.seed = 11;
  // Pace the links: the raw in-proc fabric drains the post-revive tail in
  // microseconds, far faster than a heartbeat round-trip, so the join would
  // race the end of the stream. A few ms per image makes the adoption
  // deterministic while keeping the test fast.
  rpc::ShapingSpec shaping;
  shaping.node_traces.assign(static_cast<std::size_t>(n_devices) + 1,
                             net::ThroughputTrace::constant(30.0));
  ChurnController churn(m, n_devices);

  ServeOptions options;
  options.inflight = 4;
  options.keep_outputs = true;
  options.faults = &faults;
  options.shaping = &shaping;
  options.reliability.enabled = true;
  options.heartbeat_ms = 5;
  options.provider_max_restarts = 6;
  options.controller = churn.controller.get();
  // Kill node 2 early, revive it in the middle: the same physical node
  // comes back as a *joiner* (fresh chunk-id incarnation, adopted at an
  // epoch boundary) and serves the tail of the stream.
  options.chaos = {{6, 2, true}, {13, 2, false}};

  const auto result = serve_stream(m, strategy, weights, inputs, n_devices,
                                   options);

  expect_all_equal_reference(m, weights, inputs, result.outputs);
  EXPECT_EQ(result.deaths, 1);
  EXPECT_EQ(result.joins, 1);
  EXPECT_GE(result.images_cancelled, 1);
  int death_swaps = 0;
  int join_swaps = 0;
  for (const auto& r : result.reconfigurations) {
    death_swaps += r.deaths;
    join_swaps += r.joins;
  }
  EXPECT_EQ(death_swaps, 1);
  EXPECT_EQ(join_swaps, 1);
}

TEST(MembershipServe, ChaosRequiresFaultsControllerAndHeartbeats) {
  Rng rng(61);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const auto inputs = random_inputs(m, 2, rng);
  const auto strategy = even_strategy(m, 2);

  ServeOptions options;
  options.chaos = {{1, 0, true}};  // no faults/controller/heartbeats: invalid
  EXPECT_THROW(serve_stream(m, strategy, weights, inputs, 2, options), Error);
}

}  // namespace
}  // namespace de::runtime
