// Multi-tenant serving front door: two models share one provider fleet,
// several client streams run concurrently — each with its own in-flight
// window and its own epoch lane — and one stream swaps its partitioning
// strategy mid-stream without touching anybody else. Every output is
// checked bit-exact against the single-device reference.
//
// With --admin the demo also brings up the live ops plane on an ephemeral
// loopback port (printed as "admin: listening on 127.0.0.1:PORT"), and
// after the streams finish it holds the endpoint open for --hold-ms so an
// external scraper (the CI smoke job, or you with curl) can hit /metrics,
// /streams, and /healthz against a fully populated door.
//
//   $ ./example_multi_stream_demo [images_per_stream] [--admin]
//                                 [--hold-ms N]
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "core/strategy.hpp"
#include "obs/admin.hpp"
#include "runtime/cluster.hpp"
#include "runtime/fabric.hpp"
#include "serve/stream_server.hpp"

namespace {

de::sim::RawStrategy split_strategy(const de::cnn::CnnModel& m,
                                    const std::vector<int>& boundaries,
                                    const std::vector<double>& weights) {
  de::sim::RawStrategy strategy;
  strategy.volumes =
      de::cnn::volumes_from_boundaries(boundaries, m.num_layers());
  for (const auto& v : strategy.volumes) {
    strategy.cuts.push_back(
        de::core::proportional_split(de::cnn::volume_out_height(m, v), weights)
            .cuts);
  }
  return strategy;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace de;

  int images = 8;
  bool with_admin = false;
  int hold_ms = 2000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--admin") == 0) {
      with_admin = true;
    } else if (std::strcmp(argv[i], "--hold-ms") == 0 && i + 1 < argc) {
      hold_ms = std::max(0, std::atoi(argv[++i]));
    } else {
      images = std::max(1, std::atoi(argv[i]));
    }
  }
  const int n_devices = 3;

  // Two tenants with different models — the fleet serves both at once.
  const auto model_a = cnn::ModelBuilder("tenant-a", 24, 24, 3)
                           .conv_same(8, 3)
                           .maxpool(2, 2)
                           .conv_same(12, 3)
                           .build();
  const auto model_b = cnn::ModelBuilder("tenant-b", 16, 16, 2)
                           .conv_same(4, 3)
                           .conv_same(8, 3)
                           .build();
  Rng rng(11);
  const auto weights_a = runtime::random_weights(model_a, rng);
  const auto weights_b = runtime::random_weights(model_b, rng);

  auto fabric = runtime::make_fabric(n_devices, /*use_tcp=*/false);
  runtime::DataPlaneStats stats;
  std::vector<runtime::TenantModel> fleet_models{{&model_a, &weights_a},
                                                 {&model_b, &weights_b}};
  runtime::Supervisor providers =
      runtime::spawn_providers_multi(fabric, n_devices, fleet_models, stats);

  const std::vector<double> even(static_cast<std::size_t>(n_devices), 1.0);
  std::vector<double> skewed = even;
  skewed[0] = 2.0;

  std::vector<serve::TenantSpec> fleet{
      {&model_a, &weights_a, split_strategy(model_a, {0, 3}, even)},
      {&model_b, &weights_b, split_strategy(model_b, {0, 2}, even)}};

  // The ops plane outlives the server: routes are registered by the server
  // and come down inside server.close(), but the listener (and the held
  // scrape window below) is the demo's.
  std::unique_ptr<obs::AdminServer> admin;
  if (with_admin) {
    admin = std::make_unique<obs::AdminServer>();
    // The CI smoke job parses this exact line for the port.
    std::cout << "admin: listening on 127.0.0.1:" << admin->port() << "\n"
              << std::flush;
  }

  {
    serve::StreamServerOptions server_options;
    server_options.admin = admin.get();
    server_options.slo_ms = 500;
    obs::TraceCapture trace;  // origins for /trace/dump
    trace.node_origin_us = fabric.node_origin_us;
    server_options.trace = &trace;
    serve::StreamServer server(fabric.requester(), n_devices, fleet, stats,
                               server_options);

    // Three streams: two on tenant A, one on tenant B.
    const std::vector<int> models = {0, 0, 1};
    std::vector<int> ids;
    for (const int model_id : models) {
      ids.push_back(server.open_stream(model_id));
    }

    std::vector<std::thread> clients;
    std::vector<bool> exact(models.size(), true);
    for (std::size_t s = 0; s < models.size(); ++s) {
      clients.emplace_back([&, s] {
        const auto& m = models[s] == 0 ? model_a : model_b;
        const auto& w = models[s] == 0 ? weights_a : weights_b;
        Rng stream_rng(100 + static_cast<int>(s));
        for (int k = 0; k < images; ++k) {
          // Stream 1 re-partitions its own lane halfway through; streams
          // 0 and 2 keep running on their original epoch, untouched.
          if (s == 1 && k == images / 2) {
            server.swap_strategy(ids[s],
                                 split_strategy(model_a, {0, 3}, skewed));
          }
          cnn::Tensor input(m.input_h(), m.input_w(), m.input_c());
          for (auto& v : input.data) {
            v = static_cast<float>(stream_rng.uniform(-1.0, 1.0));
          }
          server.submit(static_cast<int>(ids[s]), input);
          const auto out = server.pop(ids[s]);
          if (!out.has_value() ||
              out->data != runtime::run_reference(m, w, input).data) {
            exact[s] = false;
            return;
          }
        }
      });
    }
    for (auto& t : clients) t.join();

    for (std::size_t s = 0; s < models.size(); ++s) {
      const auto snap = server.snapshot(ids[s]);
      std::cout << "stream " << ids[s] << " (tenant " << (models[s] == 0 ? "A" : "B")
                << "): " << snap.delivered << " images, "
                << snap.reconfigurations.size() << " swap(s), "
                << (exact[s] ? "bit-exact vs reference" : "MISMATCH") << "\n";
    }
    if (with_admin && hold_ms > 0) {
      // Hold the fully populated endpoint open for an external scraper —
      // the streams are drained but still routed until server.close().
      std::cout << "admin: holding for " << hold_ms << " ms\n" << std::flush;
      std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms));
    }
    server.close();
  }
  providers.join_all();
  if (admin) admin->close();
  return 0;
}
