// The repository benchmark (perfbench/NOTES.md): serves one named workload
// through the program's public serving entry points, checks its outputs
// bit-exact against runtime::run_reference, and prints every metric by name
// with its unit.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// serves an untraced and then a traced phase of S/2 seconds each and
// prints the per-layer metrics. The last stdout line is one JSON object with the
// keys correct, attempted, failed and metrics. Exit status: 0 when nothing
// failed, 1 on any failure (a mismatch included), 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <malloc.h>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "cnn/exec_engine.hpp"
#include "cnn/kernel_isa.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

constexpr int kSetups = 5;  ///< setup_s is the median of this many set-ups

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The highest of a fixed ladder of percentiles that still has at least ten
/// of `n` samples beyond it.
double tail_pct(double n) {
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (n - std::ceil(pct / 100.0 * n) >= 10) return pct;
  }
  return 50.0;
}

/// The timed phase cut into equal-time windows of at least
/// kMinWindowSamples images each (at most kMaxWindows). Every rate and
/// latency statistic is the median of its per-window values, so a burst of
/// host contention inside one window cannot move it; the tail percentile is
/// chosen from the per-window sample count.
constexpr std::size_t kMinWindowSamples = 100;
constexpr std::size_t kMaxWindows = 20;

struct Windowed {
  std::size_t windows = 0;
  double tail_pct = 0;
  double images_per_s = 0;
  double p50_ms = 0;
  double tail_ms = 0;
  double light_p50_ms = 0;
};

Windowed windowed(const PhaseResult& p) {
  Windowed w;
  const std::size_t n = p.samples.size();
  w.windows = std::clamp<std::size_t>(n / kMinWindowSamples, 1, kMaxWindows);
  w.tail_pct = tail_pct(static_cast<double>(n) / w.windows);
  const double span_s = p.wall_s / static_cast<double>(w.windows);
  std::vector<std::vector<double>> all(w.windows);
  std::vector<std::vector<double>> light(w.windows);
  for (const Sample& s : p.samples) {
    const auto at = static_cast<std::size_t>(std::max(0.0, s.done_s / span_s));
    const std::size_t k = std::min(at, w.windows - 1);
    all[k].push_back(s.latency_ms);
    if (s.light) light[k].push_back(s.latency_ms);
  }
  std::vector<double> rates, p50s, tails, light_p50s;
  for (std::size_t k = 0; k < w.windows; ++k) {
    rates.push_back(ratio(static_cast<double>(all[k].size()), span_s));
    if (!all[k].empty()) {
      p50s.push_back(percentile(all[k], 50));
      tails.push_back(percentile(all[k], w.tail_pct));
    }
    if (!light[k].empty()) light_p50s.push_back(percentile(light[k], 50));
  }
  std::printf("windows (images/s, p50 ms, tail ms):");
  for (std::size_t k = 0; k < w.windows; ++k) {
    std::printf(" %.1f/%.2f/%.2f", rates[k], k < p50s.size() ? p50s[k] : 0.0,
                k < tails.size() ? tails[k] : 0.0);
  }
  std::printf("\n");
  w.images_per_s = median(rates);
  w.p50_ms = median(p50s);
  w.tail_ms = median(tails);
  w.light_p50_ms = median(light_p50s);
  return w;
}

/// A /proc/self/status field ("VmRSS", "VmHWM") in MiB.
double status_mib(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::atof(line.c_str() + prefix.size()) / 1024.0;
    }
  }
  return 0;
}

/// Restarts the kernel's peak-RSS watermark (VmHWM) at the current RSS.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
  std::string note;
};

void print_metrics(const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("  %-28s %16.6f %-8s %s\n", m.name.c_str(), m.value, m.unit,
                m.note.c_str());
  }
}

void print_json(bool correct, std::int64_t attempted, std::int64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

void print_phase(const char* name, const PhaseResult& p) {
  std::printf("%s phase: attempted %lld, delivered %lld, failed %lld over "
              "%.3f s\n",
              name, static_cast<long long>(p.attempted),
              static_cast<long long>(p.delivered),
              static_cast<long long>(p.failed), p.wall_s);
}

std::vector<Metric> end_to_end(const PhaseResult& p,
                               const std::vector<double>& setups,
                               double serve_rss_mib, double deadline_ms) {
  const Windowed w = windowed(p);
  char window_note[96];
  std::snprintf(window_note, sizeof window_note,
                "median of %zu windows, %zu images", w.windows,
                p.samples.size());
  char tail_note[128];
  std::snprintf(tail_note, sizeof tail_note,
                "p%.1f per window (%.0f samples, %.0f beyond), median of %zu",
                w.tail_pct, static_cast<double>(p.samples.size()) / w.windows,
                static_cast<double>(p.samples.size()) / w.windows *
                    (1 - w.tail_pct / 100),
                w.windows);
  char deadline_note[64];
  std::snprintf(deadline_note, sizeof deadline_note, "deadline %.0f ms",
                deadline_ms);
  std::string setup_note = "median of";
  for (const double s : setups) {
    char one[32];
    std::snprintf(one, sizeof one, " %.4f", s);
    setup_note += one;
  }
  return {
      {"images_per_s", w.images_per_s, "1/s", window_note},
      {"latency_p50_ms", w.p50_ms, "ms", window_note},
      {"latency_tail_ms", w.tail_ms, "ms", tail_note},
      {"light_tenant_p50_ms", w.light_p50_ms, "ms", "lightest tenant"},
      {"deadline_met_ratio",
       ratio(static_cast<double>(p.deadline_met),
             static_cast<double>(p.attempted)),
       "ratio", deadline_note},
      {"setup_s", median(setups), "s", setup_note},
      {"serve_rss_mb", serve_rss_mib, "MiB", "peak in phase over pre-set-up"},
  };
}

double p50_latency(const PhaseResult& p) {
  std::vector<double> v;
  for (const Sample& s : p.samples) v.push_back(s.latency_ms);
  return median(std::move(v));
}

std::vector<Metric> per_layer(const PhaseResult& u, const PhaseResult& t,
                              double plan_s, double scratch_allocs) {
  const auto images = static_cast<double>(t.delivered);
  const double ips_u = ratio(static_cast<double>(u.delivered), u.wall_s);
  const double ips_t = ratio(static_cast<double>(t.delivered), t.wall_s);
  return {
      {"cnn.compute_ms_per_image", ratio(t.compute_us / 1e3, images), "ms",
       "provider compute spans, summed over devices"},
      {"cnn.gflop_per_s", ratio(t.flops / 1e9, t.compute_us / 1e6), "GFLOP/s",
       "conv-chain FLOPs over compute-span time"},
      {"cnn.scratch_allocs", scratch_allocs, "count",
       "exec_scratch_allocs() growth"},
      {"rpc.wire_bytes_per_image", ratio(t.wire_bytes, images), "bytes", ""},
      {"rpc.copies_per_halo_byte",
       ratio(static_cast<double>(t.bytes_copied),
             static_cast<double>(t.payload_bytes)),
       "copies", ""},
      {"rpc.frame_allocs_per_image", ratio(t.frame_allocs, images), "count",
       ""},
      {"rpc.messages_per_image", ratio(t.messages, images), "count", ""},
      {"rpc.send_ms_per_image", ratio(t.send_us / 1e3, images), "ms",
       "sender-thread write spans"},
      {"runtime.halo_wait_ms", median(t.halo_wait_ms), "ms", "median"},
      {"runtime.scatter_ms", median(t.scatter_ms), "ms", "median"},
      {"runtime.gather_wait_ms", median(t.gather_wait_ms), "ms", "median"},
      {"runtime.unattributed_ms", median(t.unattributed_ms), "ms", "median"},
      {"runtime.retransmits", static_cast<double>(t.retransmits), "count", ""},
      {"runtime.recv_timeouts", static_cast<double>(t.recv_timeouts), "count",
       ""},
      {"serve.queue_wait_ms", p50_latency(t) - median(t.e2e_ms), "ms",
       "p50 latency - p50 scatter->gather"},
      {"serve.credit_stalls", static_cast<double>(t.credit_stalls), "count",
       ""},
      {"core.plan_s", plan_s, "s", "strategy build in set-up, median"},
      {"obs.tracing_overhead", ips_u > 0 ? 1.0 - ips_t / ips_u : 0.0,
       "fraction", "1 - traced/untraced images_per_s"},
      {"obs.events_dropped", static_cast<double>(t.events_dropped), "count",
       ""},
      {"obs.images_unattributed",
       static_cast<double>(
           std::max<std::int64_t>(0, t.delivered - t.images_attributed)),
       "count", ""},
      {"camera.generator_lag_ms", median(t.generator_lag_ms), "ms",
       "median; open loop: submit return - due, closed: slot free -> refill"},
  };
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "workloads:",
               argv0);
  for (const auto& name : workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::atof(value);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || seconds <= 0 || (trace != 0 && trace != 1) ||
      std::find(workload_names().begin(), workload_names().end(),
                workload_name) == workload_names().end()) {
    return usage(argv[0]);
  }

  // One malloc arena, set before any thread exists. With glibc's per-thread
  // arenas, which threads of the rebuilt fleets land on which arena varies
  // from run to run, and peak RSS with it; with one arena serve_rss_mb
  // tracks the bytes the program holds (NOTES.md has the measurement).
  mallopt(M_ARENA_MAX, 1);
  std::printf("host: nproc %u, kernel ISA %s, build %s, malloc arenas 1\n",
              std::thread::hardware_concurrency(),
              de::cnn::to_string(de::cnn::default_kernel_isa()),
              PERFBENCH_BUILD_TYPE);
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  try {
    auto workload = make_workload(workload_name, seed);

    // Resident size before any serving stack exists: inputs, weights and
    // references are already generated, so serve_rss_mb counts the
    // program's memory, not the generator's.
    malloc_trim(0);
    const double rss_before_mib = status_mib("VmRSS");
    PhaseResult checks;
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
      if (i > 0) workload->teardown();
      const auto t0 = Clock::now();
      workload->setup(checks);
      setups.push_back(seconds_since(t0));
      checks.wall_s += setups.back();
    }
    std::printf("workload %s (seed %llu, %s): %s\n", workload_name.c_str(),
                static_cast<unsigned long long>(seed),
                trace == 1 ? "traced" : "untraced",
                workload->describe().c_str());
    print_phase("set-up warm-up", checks);
    attempted += checks.attempted;
    failed += checks.failed;

    std::vector<Metric> metrics;
    if (trace == 0) {
      malloc_trim(0);
      const bool peak_reset = reset_peak_rss();
      const PhaseResult p = workload->run_phase(seconds, false);
      const double peak_mib = peak_reset ? status_mib("VmHWM")
                                         : status_mib("VmRSS");
      print_phase("timed", p);
      attempted += p.attempted;
      failed += p.failed;
      metrics = end_to_end(p, setups, peak_mib - rss_before_mib,
                           workload->deadline_ms());
    } else {
      const PhaseResult u = workload->run_phase(seconds / 2, false);
      print_phase("untraced", u);
      const std::uint64_t scratch0 = de::cnn::exec_scratch_allocs();
      SpanLog::instance().set_enabled(true);
      const PhaseResult t = workload->run_phase(seconds / 2, true);
      SpanLog::instance().set_enabled(false);
      const auto scratch =
          static_cast<double>(de::cnn::exec_scratch_allocs() - scratch0);
      print_phase("traced", t);
      std::printf("trace: at most %zu events kept by one thread in a "
                  "capture, %llu dropped\n",
                  t.ring_peak, static_cast<unsigned long long>(t.events_dropped));
      SpanLog::instance().print(stdout);
      attempted += u.attempted + t.attempted;
      failed += u.failed + t.failed;
      metrics = per_layer(u, t, workload->plan_s(), scratch);
    }
    workload->teardown();

    print_metrics(metrics);
    const bool correct = failed == 0;
    if (!correct) {
      std::fprintf(stderr, "FAILED: %lld of %lld images were not delivered "
                           "bit-exact\n",
                   static_cast<long long>(failed),
                   static_cast<long long>(attempted));
    }
    print_json(correct, std::max<std::int64_t>(1, attempted), failed, metrics);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAILED: %s\n", e.what());
    print_json(false, std::max<std::int64_t>(1, attempted),
               std::max<std::int64_t>(1, failed), {});
    return 1;
  }
}
