// Kernel-scaling benchmark: reference vs fast conv engine on a model-zoo
// layer, across thread counts, ISA dispatch targets, and the fused
// conv→relu→pool epilogue, plus reference vs fast standalone maxpool on the
// zoo's two largest pool layers, written to BENCH_kernel.json — the
// perf-trajectory record for the execution engine.
//
//   bench_kernel_scaling [--quick] [--out PATH] [--list-isas]
//
// --quick picks a smaller conv layer and a smaller timing budget (CI
// smoke); --list-isas prints the host's supported dispatch targets one per
// line and exits (what CI iterates to force each conformance pass).
// No google-benchmark dependency: plain steady_clock, best-of-N. Exits 1
// when any fast output is not bitwise the reference's.
//
// The thread sweep labels each row by the threads that ran: a pool of w
// workers runs w + 1, since the calling thread claims tiles too, and a
// one-worker pool runs inline, so the rows are 1 (no pool), 3, 5, 9 and
// the host's hardware threads. It stops there: a row with more threads than
// cores would measure oversubscription, not scaling, so every
// scaling_vs_1t is a wall-clock ratio.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "cnn/exec_engine.hpp"
#include "cnn/model_zoo.hpp"
#include "common/require.hpp"

namespace {

using namespace de;

double time_best_s(double budget_s, const std::function<cnn::Tensor()>& fn) {
  double best = 1e100;
  double spent = 0.0;
  int reps = 0;
  volatile float sink = 0.0f;
  while (reps < 2 || spent < budget_s) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto out = fn();
    const auto t1 = std::chrono::steady_clock::now();
    sink = sink + out.data[0];
    const double s = std::chrono::duration<double>(t1 - t0).count();
    best = std::min(best, s);
    spent += s;
    ++reps;
  }
  return best;
}

/// First layer of `m` of `kind` with the requested input width.
cnn::LayerConfig pick_layer(const cnn::CnnModel& m, cnn::LayerKind kind,
                            int want_in_w) {
  for (const auto& l : m.layers()) {
    if (l.kind == kind && l.in_w == want_in_w) return l;
  }
  throw Error("no " + std::string(to_string(kind)) + " layer of " + m.name() +
              " at input width " + std::to_string(want_in_w));
}

/// Same extents and the same bits (NaN and -0.0 included).
bool bit_exact(const cnn::Tensor& a, const cnn::Tensor& b) {
  return a.h == b.h && a.w == b.w && a.c == b.c &&
         std::memcmp(a.data.data(), b.data.data(),
                     a.size() * sizeof(float)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_kernel.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--list-isas") == 0) {
      for (const auto isa : cnn::supported_kernel_isas()) {
        std::printf("%s\n", to_string(isa));
      }
      return 0;
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH] [--list-isas]\n",
                   argv[0]);
      return 2;
    }
  }

  // vgg16's first conv at input width 28 (conv4 block) or 14 (conv5),
  // both 512 channels deep.
  const auto layer =
      pick_layer(cnn::vgg16(), cnn::LayerKind::kConv, quick ? 14 : 28);
  const double budget_s = quick ? 0.2 : 1.0;
  const double gflop = static_cast<double>(layer.ops()) * 1e-9;
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  const auto isas = cnn::supported_kernel_isas();
  const auto default_isa = cnn::default_kernel_isa();
  std::printf("layer %s: %dx%dx%d -> %dx%dx%d, k%d s%d p%d (%.3f GFLOP)\n",
              layer.name.c_str(), layer.in_h, layer.in_w, layer.in_c,
              layer.out_h(), layer.out_w(), layer.out_c, layer.kernel,
              layer.stride, layer.padding, gflop);
  std::printf("hardware threads: %u, dispatch default: %s\n", hw_threads,
              to_string(default_isa));

  Rng rng(7);
  cnn::Tensor input(layer.in_h, layer.in_w, layer.in_c);
  for (auto& v : input.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const auto weights = cnn::ConvWeights::random(layer, rng);
  const cnn::RowInterval all_rows{0, layer.out_h()};

  // The weights pack on their first fast call per lane width, so the bench
  // measures the steady-state kernel (as the streaming data plane runs).
  const auto run = [&](const cnn::ExecContext& ctx) {
    return cnn::conv_forward_rows(layer, input, 0, all_rows, weights, ctx);
  };
  const auto ref_out = run(cnn::ExecContext::reference());

  bool all_exact = true;

  // --- Per-ISA single-thread rows: bit-exactness proven per target, and the
  // dispatch ladder's speed ordering made visible.
  struct IsaPoint {
    cnn::KernelIsa isa;
    double seconds;
    bool exact;
  };
  std::vector<IsaPoint> per_isa;
  for (const auto isa : isas) {
    cnn::ExecContext ctx = cnn::ExecContext::fast();
    ctx.isa = isa;
    const bool exact = bit_exact(run(ctx), ref_out);
    all_exact = all_exact && exact;
    const double s = time_best_s(budget_s, [&] { return run(ctx); });
    per_isa.push_back({isa, s, exact});
    std::printf("fast [%-7s] 1 thread : %8.2f ms  %6.2f GFLOP/s  %s\n",
                to_string(isa), s * 1e3, gflop / s,
                exact ? "bit-exact" : "MISMATCH");
  }

  const double ref_s = time_best_s(budget_s, [&] {
    return run(cnn::ExecContext::reference());
  });
  std::printf("reference          : %8.2f ms  %6.2f GFLOP/s\n", ref_s * 1e3,
              gflop / ref_s);

  // --- Thread sweep on the default dispatch target, by threads that ran.
  struct Point {
    int threads;
    double seconds;
    bool exact;
  };
  std::vector<int> sweep{1};
  for (const int threads : {3, 5, 9}) {
    if (static_cast<unsigned>(threads) <= hw_threads) sweep.push_back(threads);
  }
  if (hw_threads >= 3 && static_cast<unsigned>(sweep.back()) != hw_threads) {
    sweep.push_back(static_cast<int>(hw_threads));
  }
  std::vector<Point> fast;
  for (const int threads : sweep) {
    // One thread runs the fast kernel inline — no pool, no dispatch.
    ThreadPool pool(static_cast<std::size_t>(std::max(threads - 1, 1)));
    const auto ctx =
        threads == 1 ? cnn::ExecContext::fast() : cnn::ExecContext::fast(&pool);
    const bool exact = bit_exact(run(ctx), ref_out);
    all_exact = all_exact && exact;
    const double s = time_best_s(budget_s, [&] { return run(ctx); });
    fast.push_back({threads, s, exact});
    std::printf("fast %d thread%s : %8.2f ms  %6.2f GFLOP/s  speedup %5.2fx  "
                "wall scaling vs 1T %4.2fx  %s\n",
                threads, threads == 1 ? " " : "s", s * 1e3, gflop / s,
                ref_s / s, fast.front().seconds / s,
                exact ? "bit-exact" : "MISMATCH");
  }

  const double t1 = fast.front().seconds;
  const auto scaling = [&](const Point& p) { return t1 / p.seconds; };
  if (fast.size() > 1 && scaling(fast[1]) < 1.3) {
    std::fprintf(stderr,
                 "WARNING: kernel scaling_vs_1t %.2f at %d threads is below "
                 "1.3 — multithreaded decomposition is not paying for "
                 "itself\n",
                 scaling(fast[1]), fast[1].threads);
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"kernel_scaling\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(f,
               "  \"layer\": {\"model\": \"vgg16\", \"name\": \"%s\", "
               "\"in\": [%d, %d, %d], \"out_c\": %d, \"kernel\": %d, "
               "\"stride\": %d, \"padding\": %d},\n",
               layer.name.c_str(), layer.in_h, layer.in_w, layer.in_c,
               layer.out_c, layer.kernel, layer.stride, layer.padding);
  std::fprintf(f, "  \"gflop\": %.6f,\n", gflop);
  std::fprintf(f, "  \"hardware_threads\": %u,\n", hw_threads);
  std::fprintf(f, "  \"dispatch_default\": \"%s\",\n", to_string(default_isa));
  std::fprintf(f, "  \"bit_exact_vs_reference\": %s,\n",
               all_exact ? "true" : "false");
  std::fprintf(f,
               "  \"reference\": {\"ms\": %.3f, \"gflops\": %.3f},\n",
               ref_s * 1e3, gflop / ref_s);
  std::fprintf(f, "  \"targets\": [\n");
  for (std::size_t i = 0; i < per_isa.size(); ++i) {
    const auto& p = per_isa[i];
    std::fprintf(f,
                 "    {\"isa\": \"%s\", \"threads\": 1, \"ms\": %.3f, "
                 "\"gflops\": %.3f, \"speedup_vs_reference\": %.3f, "
                 "\"bit_exact_vs_reference\": %s}%s\n",
                 to_string(p.isa), p.seconds * 1e3, gflop / p.seconds,
                 ref_s / p.seconds, p.exact ? "true" : "false",
                 i + 1 < per_isa.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"fast\": [\n");
  for (std::size_t i = 0; i < fast.size(); ++i) {
    const auto& p = fast[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"pool_workers\": %d, "
                 "\"isa\": \"%s\", \"ms\": %.3f, \"gflops\": %.3f, "
                 "\"speedup_vs_reference\": %.3f, \"scaling_vs_1t\": %.3f, "
                 "\"bit_exact_vs_reference\": %s}%s\n",
                 p.threads, p.threads == 1 ? 0 : p.threads - 1,
                 to_string(default_isa), p.seconds * 1e3,
                 gflop / p.seconds, ref_s / p.seconds, scaling(p),
                 p.exact ? "true" : "false", i + 1 < fast.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");

  // --- Fused conv→relu→pool epilogue vs the unfused two-layer chain.
  const auto pool_l = cnn::LayerConfig::maxpool(layer.out_w(), layer.out_h(),
                                                layer.out_c, 2, 2);
  const cnn::RowInterval pool_rows{0, pool_l.out_h()};
  const cnn::LayerConfig chain[] = {layer, pool_l};
  const cnn::ConvWeights chain_w[] = {weights, cnn::ConvWeights{}};
  const auto run_chain = [&](bool fuse) {
    cnn::ExecContext ctx = cnn::ExecContext::fast();
    ctx.fuse_conv_pool = fuse;
    return cnn::volume_forward_rows(chain, input, 0, pool_rows, chain_w, ctx);
  };
  const auto fused_out = run_chain(true);
  const bool fused_exact = bit_exact(fused_out, run_chain(false));
  all_exact = all_exact && fused_exact;
  const double unfused_s = time_best_s(budget_s, [&] { return run_chain(false); });
  const double fused_s = time_best_s(budget_s, [&] { return run_chain(true); });
  std::printf("conv+pool unfused  : %8.2f ms\n", unfused_s * 1e3);
  std::printf("conv+pool fused    : %8.2f ms  speedup %5.2fx  %s\n",
              fused_s * 1e3, unfused_s / fused_s,
              fused_exact ? "bit-exact" : "MISMATCH");
  std::fprintf(f,
               "  \"fused_conv_pool\": {\"unfused_ms\": %.3f, "
               "\"fused_ms\": %.3f, \"speedup\": %.3f, "
               "\"bit_exact_vs_unfused\": %s},\n",
               unfused_s * 1e3, fused_s * 1e3, unfused_s / fused_s,
               fused_exact ? "true" : "false");

  // --- Standalone maxpool, single-threaded: the reference loop vs the fast
  // engine's channel-innermost one, on edgenet's 80x80x48 k2 s2 and
  // resnet50's 112x112x64 k3 s2 (the zoo's largest pool layers).
  std::fprintf(f, "  \"maxpool\": [\n");
  const cnn::LayerConfig pools[] = {
      pick_layer(cnn::edgenet(), cnn::LayerKind::kMaxPool, 80),
      pick_layer(cnn::resnet50(), cnn::LayerKind::kMaxPool, 112)};
  const char* pool_models[] = {"edgenet", "resnet50"};
  for (std::size_t i = 0; i < std::size(pools); ++i) {
    const auto& pl = pools[i];
    cnn::Tensor pool_in(pl.in_h, pl.in_w, pl.in_c);
    for (auto& v : pool_in.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const cnn::RowInterval rows{0, pl.out_h()};
    const auto run_pool = [&](const cnn::ExecContext& ctx) {
      return cnn::maxpool_forward_rows(pl, pool_in, 0, rows, ctx);
    };
    const bool exact = bit_exact(run_pool(cnn::ExecContext::fast()),
                                 run_pool(cnn::ExecContext::reference()));
    all_exact = all_exact && exact;
    const double pref_s = time_best_s(
        budget_s, [&] { return run_pool(cnn::ExecContext::reference()); });
    const double pfast_s = time_best_s(
        budget_s, [&] { return run_pool(cnn::ExecContext::fast()); });
    std::printf("maxpool %-8s %dx%dx%d k%d s%d: reference %7.3f ms  fast "
                "%7.3f ms  speedup %5.2fx  %s\n",
                pool_models[i], pl.in_h, pl.in_w, pl.in_c, pl.kernel,
                pl.stride, pref_s * 1e3, pfast_s * 1e3, pref_s / pfast_s,
                exact ? "bit-exact" : "MISMATCH");
    std::fprintf(f,
                 "    {\"model\": \"%s\", \"name\": \"%s\", "
                 "\"in\": [%d, %d, %d], \"kernel\": %d, \"stride\": %d, "
                 "\"reference_ms\": %.3f, \"fast_ms\": %.3f, "
                 "\"speedup\": %.3f, \"bit_exact\": %s}%s\n",
                 pool_models[i], pl.name.c_str(), pl.in_h, pl.in_w, pl.in_c,
                 pl.kernel, pl.stride, pref_s * 1e3, pfast_s * 1e3,
                 pref_s / pfast_s, exact ? "true" : "false",
                 i + 1 < std::size(pools) ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return all_exact ? 0 : 1;
}
