// Serving front-door scaling (PR-8 tentpole): N concurrent client streams
// multiplexed onto one shared provider fleet through the StreamServer.
// Sweeps the stream count (1, 4, 16 by default), measuring aggregate
// throughput and per-stream latency percentiles, while every stream checks
// its outputs bit-exact against the single-device reference — including
// across a mid-stream per-stream strategy swap on half the streams.
//
// BENCH_serve.json: per stream-count aggregate IPS and pooled/per-stream
// p50/p99 latency, plus the bit-exactness verdict (exit 1 if violated) and
// the execution engine, kernel ISA and pool size the providers ran on.
#include <cstdio>
#include <cstring>
#include <cmath>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cnn/exec_engine.hpp"
#include "core/strategy.hpp"
#include "runtime/cluster.hpp"
#include "runtime/fabric.hpp"
#include "serve/stream_server.hpp"

namespace {

using namespace de;

cnn::CnnModel bench_model() {
  return cnn::ModelBuilder("serve-mini", 24, 24, 3)
      .conv_same(8, 3)
      .conv_same(8, 3)
      .maxpool(2, 2)
      .conv_same(12, 3)
      .conv(12, 3, 2, 1)
      .build();
}

sim::RawStrategy strategy_for(const cnn::CnnModel& m,
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

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(
      std::max(0.0, std::ceil(q * static_cast<double>(samples.size())) - 1));
  return samples[std::min(idx, samples.size() - 1)];
}

struct StreamPoint {
  std::int64_t delivered = 0;
  int epochs = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

struct ScalePoint {
  int streams = 0;
  double wall_s = 0;
  double aggregate_ips = 0;
  double pooled_p50_ms = 0;
  double pooled_p99_ms = 0;
  std::vector<StreamPoint> per_stream;
  bool bit_exact = true;
};

ScalePoint run_point(int n_streams, int n_devices, int images_per_stream,
                     const cnn::CnnModel& m,
                     const std::vector<cnn::ConvWeights>& w,
                     const cnn::ExecContext& exec) {
  auto fabric = runtime::make_fabric(n_devices, /*use_tcp=*/false);
  runtime::DataPlaneStats stats;
  std::vector<runtime::TenantModel> fleet_models{{&m, &w}};
  runtime::Supervisor providers = runtime::spawn_providers_multi(
      fabric, n_devices, fleet_models, stats, {}, exec);

  const auto base =
      strategy_for(m, {0, m.num_layers()},
                   std::vector<double>(static_cast<std::size_t>(n_devices),
                                       1.0));
  std::vector<double> skew(static_cast<std::size_t>(n_devices), 1.0);
  skew[0] = 2.5;  // the mid-stream swap target: deliberately different cuts
  const auto alt = strategy_for(m, {0, m.num_layers()}, skew);

  ScalePoint point;
  point.streams = n_streams;
  {
    std::vector<serve::TenantSpec> fleet{{&m, &w, base}};
    serve::StreamServerOptions options;
    options.max_streams = std::max(16, n_streams);
    serve::StreamServer server(fabric.requester(), n_devices, fleet, stats,
                               options);

    std::vector<int> ids;
    for (int s = 0; s < n_streams; ++s) {
      ids.push_back(server.open_stream(0));
    }
    std::atomic<bool> exact{true};
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (int s = 0; s < n_streams; ++s) {
      clients.emplace_back([&, s] {
        Rng rng(1000 + s);
        const int id = ids[static_cast<std::size_t>(s)];
        for (int k = 0; k < images_per_stream; ++k) {
          // Odd streams cut their lane over to the skewed partition
          // halfway — a per-stream epoch swap under full concurrent load.
          if (s % 2 == 1 && k == images_per_stream / 2) {
            server.swap_strategy(id, alt);
          }
          cnn::Tensor input(m.input_h(), m.input_w(), m.input_c());
          for (auto& v : input.data) {
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
          }
          if (!server.submit(id, input)) {
            exact = false;
            return;
          }
          auto out = server.pop(id);
          if (!out.has_value() ||
              out->data != runtime::run_reference(m, w, input).data) {
            exact = false;
            return;
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    const auto t1 = std::chrono::steady_clock::now();

    point.wall_s =
        std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
            .count();
    const double total =
        static_cast<double>(n_streams) * images_per_stream;
    point.aggregate_ips = point.wall_s > 0 ? total / point.wall_s : 0.0;
    point.bit_exact = exact.load();

    std::vector<double> pooled;
    for (int s = 0; s < n_streams; ++s) {
      const auto snap = server.snapshot(ids[static_cast<std::size_t>(s)]);
      StreamPoint sp;
      sp.delivered = snap.delivered;
      sp.epochs = snap.epochs_pushed;
      sp.p50_ms = percentile(snap.latency_ms, 0.50);
      sp.p99_ms = percentile(snap.latency_ms, 0.99);
      point.per_stream.push_back(sp);
      pooled.insert(pooled.end(), snap.latency_ms.begin(),
                    snap.latency_ms.end());
    }
    point.pooled_p50_ms = percentile(pooled, 0.50);
    point.pooled_p99_ms = percentile(pooled, 0.99);
    server.close();
  }
  providers.join_all();
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_serve.json";
  int n_devices = 3;
  int images_per_stream = 0;
  std::vector<int> stream_counts = {1, 4, 16};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--devices") == 0 && i + 1 < argc) {
      n_devices = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--images") == 0 && i + 1 < argc) {
      images_per_stream = std::max(1, std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out PATH] [--devices N] "
                   "[--images N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (images_per_stream == 0) images_per_stream = quick ? 6 : 24;

  const auto m = bench_model();
  const cnn::ExecContext exec = cnn::ExecContext::fast_shared();
  Rng rng(99);
  const auto w = de::runtime::random_weights(m, rng);

  std::vector<ScalePoint> points;
  bool all_exact = true;
  for (const int n_streams : stream_counts) {
    std::printf("serving %2d stream(s) x %d images over %d devices... ",
                n_streams, images_per_stream, n_devices);
    std::fflush(stdout);
    auto point =
        run_point(n_streams, n_devices, images_per_stream, m, w, exec);
    std::printf("%.1f ips aggregate, p50 %.2f ms, p99 %.2f ms%s\n",
                point.aggregate_ips, point.pooled_p50_ms, point.pooled_p99_ms,
                point.bit_exact ? "" : "  [BIT-EXACTNESS VIOLATED]");
    all_exact = all_exact && point.bit_exact;
    points.push_back(std::move(point));
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"serve_scale\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(f,
               "  \"workload\": {\"model\": \"%s\", \"devices\": %d, "
               "\"images_per_stream\": %d, \"transport\": \"inproc\", "
               "\"swaps\": \"odd streams swap lanes mid-stream\"},\n",
               m.name().c_str(), n_devices, images_per_stream);
  std::fprintf(f,
               "  \"exec\": {\"engine\": \"%s\", \"kernel_isa\": \"%s\", "
               "\"pool_threads\": %zu, \"hardware_threads\": %u},\n",
               cnn::to_string(exec.engine),
               cnn::to_string(cnn::default_kernel_isa()), exec.pool->size(),
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"bit_exact_all_streams\": %s,\n",
               all_exact ? "true" : "false");
  std::fprintf(f, "  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    std::fprintf(f,
                 "    {\"streams\": %d, \"wall_s\": %.4f, "
                 "\"aggregate_ips\": %.3f, \"p50_ms\": %.3f, "
                 "\"p99_ms\": %.3f, \"per_stream\": [",
                 p.streams, p.wall_s, p.aggregate_ips, p.pooled_p50_ms,
                 p.pooled_p99_ms);
    for (std::size_t s = 0; s < p.per_stream.size(); ++s) {
      const auto& sp = p.per_stream[s];
      std::fprintf(f,
                   "%s{\"delivered\": %lld, \"epochs\": %d, "
                   "\"p50_ms\": %.3f, \"p99_ms\": %.3f}",
                   s == 0 ? "" : ", ", static_cast<long long>(sp.delivered),
                   sp.epochs, sp.p50_ms, sp.p99_ms);
    }
    std::fprintf(f, "]}%s\n", i + 1 == points.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return all_exact ? 0 : 1;
}
