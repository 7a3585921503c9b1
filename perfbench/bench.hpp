// Shared pieces of the repository benchmark (perfbench/NOTES.md): the
// record one phase fills, the workload interface, and the bench-side spans
// around the benchmark's own calls into the program's layers.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
inline double percentile(std::vector<double>& v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

inline double median(std::vector<double> v) { return percentile(v, 50); }

/// One delivered image.
struct Sample {
  double done_s = 0;  ///< delivery time, seconds since the phase began
  double latency_ms = 0;
  bool light = true;  ///< belongs to the workload's lightest tenant
};

/// What one phase measured. Set-up warm-ups fill only the image counts;
/// timed phases fill the end-to-end fields; traced phases also fill the
/// trace-derived ones.
struct PhaseResult {
  std::int64_t attempted = 0;     ///< images submitted (open loop: frames due)
  std::int64_t delivered = 0;     ///< outputs that came back
  std::int64_t failed = 0;        ///< mismatches, refusals, lost outputs
  std::int64_t deadline_met = 0;  ///< delivered bit-exact within the deadline
  double wall_s = 0;
  double flops = 0;  ///< conv-chain FLOPs of the delivered images
  std::vector<Sample> samples;
  /// How late the load generator fed the system: open loop, submit return
  /// minus due time; closed loop, the wait from a free slot to its refill.
  std::vector<double> generator_lag_ms;

  // Data-plane counters accumulated over the phase.
  std::int64_t messages = 0;
  std::int64_t payload_bytes = 0;
  std::int64_t wire_bytes = 0;
  std::int64_t bytes_copied = 0;
  std::int64_t frame_allocs = 0;
  std::int64_t retransmits = 0;
  std::int64_t recv_timeouts = 0;
  std::int64_t credit_stalls = 0;

  // Traced phases only.
  double compute_us = 0;  ///< provider compute spans, summed over devices
  double send_us = 0;     ///< sender-thread transport writes, summed
  std::uint64_t events_dropped = 0;
  std::size_t ring_peak = 0;  ///< most events one thread kept in a capture
  std::int64_t images_attributed = 0;
  std::vector<double> e2e_ms;  ///< attributed scatter -> gather windows
  std::vector<double> scatter_ms;
  std::vector<double> halo_wait_ms;
  std::vector<double> gather_wait_ms;
  std::vector<double> unattributed_ms;
};

/// One benchmark workload: a serving stack, its inputs and its load.
class Workload {
 public:
  virtual ~Workload() = default;

  /// One line: model(s), providers, transport, strategy, load shape.
  virtual std::string describe() const = 0;
  /// Latency limit of deadline_met_ratio, in milliseconds.
  virtual double deadline_ms() const = 0;
  /// Builds the serving stack and serves the fixed, checked warm-up; the
  /// caller times it as setup_s. Warm-up images are counted into `checks`.
  virtual void setup(PhaseResult& checks) = 0;
  /// Releases what setup() built.
  virtual void teardown() = 0;
  /// Serves the workload's load for `seconds` on the stack setup() built.
  virtual PhaseResult run_phase(double seconds, bool traced) = 0;

  /// Median wall time the set-ups so far spent producing the strategy.
  double plan_s() const { return median(plan_s_); }

 protected:
  std::vector<double> plan_s_;  ///< one entry per set-up
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Generates the workload's weights, input pool and reference outputs from
/// `seed` (untimed). Throws std::invalid_argument on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Bench-side spans: wall time of the benchmark's own calls into each layer
/// of the program, totalled by name. Recorded only while enabled (traced
/// phases), so untraced timing never pays for them.
class SpanLog {
 public:
  static SpanLog& instance();
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void add(const char* name, double seconds);
  void print(std::FILE* out) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::map<std::string, std::pair<std::int64_t, double>> totals_;  ///< calls, s
};

class BenchSpan {
 public:
  explicit BenchSpan(const char* name)
      : name_(name), armed_(SpanLog::instance().enabled()), t0_(Clock::now()) {}
  ~BenchSpan() {
    if (armed_) SpanLog::instance().add(name_, seconds_since(t0_));
  }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  const char* name_;
  bool armed_;
  Clock::time_point t0_;
};

}  // namespace perfbench
