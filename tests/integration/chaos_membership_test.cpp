// The chaos gate from DESIGN.md §membership: a 6-device loopback-TCP
// cluster serves a stream under a seeded kill/revive schedule — two
// distinct devices die mid-stream and one of them comes back and is
// adopted as a joiner while the other is still down. The bar is absolute:
// every delivered image is bit-exact against the single-device reference
// (nothing corrupted, nothing silently dropped, nothing duplicated) and
// the stream makes forward progress to completion instead of starving.
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

TEST(ChaosMembership, SixDeviceTcpClusterSurvivesTwoDeathsAndARejoin) {
  Rng rng(71);
  const auto m = mini();
  const auto weights = random_weights(m, rng);
  const int n_devices = 6;
  const int n_images = 24;
  const auto inputs = random_inputs(m, n_images, rng);
  const auto strategy = even_strategy(m, n_devices);

  rpc::FaultSpec faults;  // zero probabilities: deaths come from the
  faults.seed = 17;       // schedule below, not from random loss
  rpc::ShapingSpec shaping;  // pace the links so the rejoin cannot race
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

  ServeOptions options;
  options.use_tcp = true;
  options.inflight = 4;
  options.keep_outputs = true;
  options.faults = &faults;
  options.shaping = &shaping;
  options.reliability.enabled = true;
  options.heartbeat_ms = 5;
  options.provider_max_restarts = 8;
  options.controller = &controller;
  // Seeded schedule: node 1 dies early, node 3 dies while the fleet is
  // already down a member, then node 1 comes back — a revive-as-joiner
  // adopted at an epoch boundary while node 3 is STILL dead.
  options.chaos = {{/*at_image=*/4, /*node=*/1, /*kill=*/true},
                   {/*at_image=*/8, /*node=*/3, /*kill=*/true},
                   {/*at_image=*/12, /*node=*/1, /*kill=*/false}};

  const auto result =
      serve_stream(m, strategy, weights, inputs, n_devices, options);

  // Forward progress: the whole stream was delivered.
  EXPECT_EQ(result.images, n_images);
  ASSERT_EQ(result.outputs.size(), inputs.size());
  // Bit-exactness: every image, including the cancelled-and-re-dispatched
  // ones, matches the single-device reference bits.
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const auto reference = run_reference(m, weights, inputs[k]);
    ASSERT_EQ(result.outputs[k].data, reference.data)
        << "image " << k << " diverged after churn";
  }

  EXPECT_EQ(result.deaths, 2);
  EXPECT_EQ(result.joins, 1);
  EXPECT_GT(result.heartbeats, 0);
  EXPECT_GE(result.images_cancelled, 1);
  int death_swaps = 0;
  int join_swaps = 0;
  for (const auto& r : result.reconfigurations) {
    death_swaps += r.deaths;
    join_swaps += r.joins;
  }
  EXPECT_EQ(death_swaps, 2);
  EXPECT_EQ(join_swaps, 1);
}

}  // namespace
}  // namespace de::runtime
