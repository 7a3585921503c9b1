// Elastic-membership churn bench: the same image stream is served three
// times over a paced loopback-TCP fabric —
//
//  * stable      — no chaos; the reference run and the IPS baseline;
//  * kill-one    — one device is killed mid-stream; the controller's lease
//                  lapses, the fleet replans over the survivors, and every
//                  in-flight image the dead device owned is re-dispatched;
//  * kill-rejoin — the device is killed, then revived later; it comes back
//                  as a fresh joiner (new chunk-id incarnation) adopted at
//                  an epoch boundary and serves the tail of the stream.
//
// Reported per churn scenario: time from the kill to the survivor epoch
// (recovery), time from the revive to the adoption epoch (kill-rejoin), and
// the serving-rate dip — min sliding-window IPS over the run against the
// stable run's throughput. Results land in BENCH_churn.json. Exit status
// gates on bit-exactness against the single-device reference plus the
// expected membership transitions (>=1 death per churn run, >=1 join on the
// rejoin run), NOT on the timing numbers (CI runners are noisy).
//
//   bench_runtime_churn [--quick] [--out PATH] [--images N] [--devices N]
//                       [--inflight K] [--model NAME] [--mbps R]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cnn/model_zoo.hpp"
#include "common/require.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/planner.hpp"
#include "device/device.hpp"
#include "runtime/serve.hpp"

namespace {

using namespace de;

/// Min sliding-window IPS over the delivery timeline (window = `w` images).
double min_window_ips(const std::vector<double>& delivered_at_s, int w) {
  double lowest = 0.0;
  for (std::size_t i = static_cast<std::size_t>(w);
       i < delivered_at_s.size(); ++i) {
    const double span =
        delivered_at_s[i] - delivered_at_s[i - static_cast<std::size_t>(w)];
    if (span <= 0.0) continue;
    const double ips = static_cast<double>(w) / span;
    if (lowest == 0.0 || ips < lowest) lowest = ips;
  }
  return lowest;
}

/// Stream time of the first reconfiguration that removed (or adopted)
/// devices; negative when none happened.
double first_event_at_s(const std::vector<runtime::ReconfigEvent>& events,
                        bool joins) {
  for (const auto& ev : events) {
    if ((joins ? ev.joins : ev.deaths) > 0) return ev.at_s;
  }
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_churn.json";
  std::string model_name = "edgenet";
  int n_images = 0;
  int n_devices = 6;
  int inflight = 4;
  double mbps = 60.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--images") == 0 && i + 1 < argc) {
      n_images = std::max(8, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--devices") == 0 && i + 1 < argc) {
      n_devices = std::max(2, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--inflight") == 0 && i + 1 < argc) {
      inflight = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--model") == 0 && i + 1 < argc) {
      model_name = argv[++i];
    } else if (std::strcmp(argv[i], "--mbps") == 0 && i + 1 < argc) {
      mbps = std::max(1.0, std::atof(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out PATH] [--images N] "
                   "[--devices N] [--inflight K] [--model NAME] [--mbps R]\n",
                   argv[0]);
      return 2;
    }
  }
  if (n_images == 0) n_images = quick ? 48 : 96;

  const auto model = cnn::model_by_name(model_name);
  Rng rng(211);
  const auto weights = runtime::random_weights(model, rng);
  std::vector<cnn::Tensor> images;
  images.reserve(static_cast<std::size_t>(n_images));
  for (int k = 0; k < n_images; ++k) {
    cnn::Tensor t(model.input_h(), model.input_w(), model.input_c());
    for (auto& v : t.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    images.push_back(std::move(t));
  }
  std::vector<cnn::Tensor> reference;
  reference.reserve(images.size());
  for (const auto& image : images) {
    reference.push_back(runtime::run_reference(model, weights, image));
  }

  // Paced fabric: constant-rate radios make the recovery dip measurable
  // (and give the rejoin time to be adopted before the stream ends).
  rpc::FaultSpec faults;  // zero probabilities: deaths come from the
  faults.seed = 29;       // chaos schedule, not random loss
  rpc::ShapingSpec shaping;
  shaping.node_traces.assign(static_cast<std::size_t>(n_devices) + 1,
                             net::ThroughputTrace::constant(mbps));

  net::Network baseline_net(n_devices, mbps, mbps);
  sim::ClusterLatency latency;
  for (int i = 0; i < n_devices; ++i) {
    latency.push_back(device::make_latency_model(device::DeviceType::kNano));
  }
  ctrl::BandwidthProportionalPlanner planner;
  core::PlanContext plan_ctx;
  plan_ctx.model = &model;
  plan_ctx.latency = latency;
  plan_ctx.network = &baseline_net;
  const auto initial = planner.plan(plan_ctx).to_raw(model);

  const int kill_at = n_images / 4;
  const int revive_at = n_images / 2;
  const rpc::NodeId victim = 1;

  std::printf("model %s: %dx%dx%d, %d layers; %d devices, %d images, K=%d, "
              "loopback TCP paced at %.0f Mbps/radio\n",
              model.name().c_str(), model.input_h(), model.input_w(),
              model.input_c(), model.num_layers(), n_devices, n_images,
              inflight, mbps);
  std::printf("schedule: kill device %d after %d deliveries; rejoin run "
              "revives it after %d\n\n",
              victim, kill_at, revive_at);

  const auto serve = [&](const std::vector<runtime::ChaosEvent>& chaos) {
    ctrl::ControllerConfig config;
    config.planner = &planner;
    config.model = &model;
    config.latency = latency;
    config.network = baseline_net;
    config.lease_ms = 80;
    config.drift_threshold = 1e9;  // membership decisions only
    ctrl::Controller controller(config);

    runtime::ServeOptions options;
    options.use_tcp = true;
    options.inflight = inflight;
    options.keep_outputs = true;
    options.faults = &faults;
    options.shaping = &shaping;
    options.reliability.enabled = true;
    options.heartbeat_ms = 5;
    options.provider_max_restarts = 8;
    options.controller = &controller;
    options.chaos = chaos;
    return runtime::serve_stream(model, initial, weights, images, n_devices,
                                 options);
  };

  const auto bit_exact = [&](const runtime::ServeResult& result) {
    if (result.outputs.size() != reference.size()) return false;
    for (std::size_t k = 0; k < reference.size(); ++k) {
      if (result.outputs[k].data != reference[k].data) return false;
    }
    return true;
  };

  const int dip_window = std::max(4, inflight);
  struct Row {
    const char* name;
    runtime::ServeResult result;
    bool exact = false;
    double recovery_ms = -1.0;
    double adoption_ms = -1.0;
    double min_ips = 0.0;
  };
  std::vector<Row> rows;
  rows.push_back({"stable", serve({}), false, -1.0, -1.0, 0.0});
  rows.push_back(
      {"kill_one", serve({{kill_at, victim, true}}), false, -1.0, -1.0, 0.0});
  rows.push_back({"kill_rejoin",
                  serve({{kill_at, victim, true}, {revive_at, victim, false}}),
                  false, -1.0, -1.0, 0.0});

  const double stable_ips = rows[0].result.measured_ips;
  for (auto& row : rows) {
    const auto& r = row.result;
    row.exact = bit_exact(r);
    row.min_ips = min_window_ips(r.delivered_at_s, dip_window);
    const double death_at = first_event_at_s(r.reconfigurations, false);
    const double join_at = first_event_at_s(r.reconfigurations, true);
    if (death_at >= 0.0 && !r.chaos_applied_at_s.empty()) {
      row.recovery_ms = (death_at - r.chaos_applied_at_s[0]) * 1000.0;
    }
    if (join_at >= 0.0 && r.chaos_applied_at_s.size() >= 2) {
      row.adoption_ms = (join_at - r.chaos_applied_at_s[1]) * 1000.0;
    }
    std::printf("%-12s %6.2f IPS  wall %6.3f s  dip->%6.2f IPS  "
                "deaths %d joins %d cancelled %lld  recovery %7.1f ms  "
                "adoption %7.1f ms  bit-exact %s\n",
                row.name, r.measured_ips, r.wall_s, row.min_ips, r.deaths,
                r.joins, static_cast<long long>(r.images_cancelled),
                row.recovery_ms, row.adoption_ms, row.exact ? "yes" : "NO");
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"runtime_churn\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(f,
               "  \"workload\": {\"model\": \"%s\", \"images\": %d, "
               "\"devices\": %d, \"inflight\": %d, \"transport\": "
               "\"tcp-loopback-shaped\", \"mbps\": %.1f, \"kill_at\": %d, "
               "\"revive_at\": %d, \"victim\": %d, \"lease_ms\": 80, "
               "\"heartbeat_ms\": 5, \"dip_window_images\": %d},\n",
               model.name().c_str(), n_images, n_devices, inflight, mbps,
               kill_at, revive_at, victim, dip_window);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    const auto& r = row.result;
    std::fprintf(
        f,
        "  \"%s\": {\"ips\": %.3f, \"wall_s\": %.4f, \"min_window_ips\": "
        "%.3f, \"ips_dip_frac\": %.3f, \"recovery_ms\": %.1f, "
        "\"adoption_ms\": %.1f, \"deaths\": %d, \"joins\": %d, "
        "\"images_cancelled\": %lld, \"retx_cancelled\": %lld, "
        "\"provider_restarts\": %lld, \"bit_exact\": %s}%s\n",
        row.name, r.measured_ips, r.wall_s, row.min_ips,
        stable_ips > 0.0 ? 1.0 - row.min_ips / stable_ips : 0.0,
        row.recovery_ms, row.adoption_ms, r.deaths, r.joins,
        static_cast<long long>(r.images_cancelled),
        static_cast<long long>(r.retx_cancelled),
        static_cast<long long>(r.provider_restarts),
        row.exact ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());

  const bool gate = rows[0].exact && rows[1].exact && rows[2].exact &&
                    rows[0].result.deaths == 0 && rows[1].result.deaths == 1 &&
                    rows[2].result.deaths == 1 && rows[2].result.joins == 1;
  return gate ? 0 : 1;
}
