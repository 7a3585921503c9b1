// The four workloads of the repository benchmark. perfbench/NOTES.md says
// why each exists and which numbers each should (and should not) move.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "cnn/exec_engine.hpp"
#include "cnn/model_zoo.hpp"
#include "core/distredge.hpp"
#include "core/strategy.hpp"
#include "experiments/scenarios.hpp"
#include "obs/attribution.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "runtime/cluster.hpp"
#include "runtime/fabric.hpp"
#include "runtime/serve.hpp"
#include "serve/stream_server.hpp"

namespace perfbench {

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

void SpanLog::add(const char* name, double seconds) {
  std::lock_guard lk(mu_);
  auto& [calls, total] = totals_[name];
  ++calls;
  total += seconds;
}

void SpanLog::print(std::FILE* out) const {
  std::lock_guard lk(mu_);
  for (const auto& [name, entry] : totals_) {
    std::fprintf(out, "  bench span %-32s %8lld calls %12.3f ms total %10.4f ms/call\n",
                 name.c_str(), static_cast<long long>(entry.first),
                 entry.second * 1e3,
                 entry.second * 1e3 / static_cast<double>(entry.first));
  }
}

namespace {

using namespace de;

/// splitmix64 of (seed, salt): independent streams for weights, pixels and
/// link traces, all determined by the one workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<cnn::ConvWeights> seeded_weights(const cnn::CnnModel& m,
                                             std::uint64_t seed) {
  Rng rng(seed);
  return runtime::random_weights(m, rng);
}

/// The small fixed pool of distinct images every load draws from, so a long
/// run never grows the benchmark's own memory.
std::vector<cnn::Tensor> image_pool(const cnn::CnnModel& m, int n,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cnn::Tensor> pool;
  pool.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    cnn::Tensor t(m.input_h(), m.input_w(), m.input_c());
    for (auto& v : t.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    pool.push_back(std::move(t));
  }
  return pool;
}

/// runtime::run_reference outputs of the first `count` pool images.
std::vector<cnn::Tensor> references(const cnn::CnnModel& m,
                                    const std::vector<cnn::ConvWeights>& w,
                                    const std::vector<cnn::Tensor>& pool,
                                    int count) {
  std::vector<cnn::Tensor> refs;
  for (int k = 0; k < count; ++k) {
    refs.push_back(runtime::run_reference(m, w, pool[static_cast<std::size_t>(k)]));
  }
  return refs;
}

/// Same extents and the same bytes (float == would equate signed zeros).
bool bit_exact(const cnn::Tensor& a, const cnn::Tensor& b) {
  return a.h == b.h && a.w == b.w && a.c == b.c &&
         a.data.size() == b.data.size() &&
         std::memcmp(a.data.data(), b.data.data(),
                     a.data.size() * sizeof(float)) == 0;
}

/// One volume per layer with staggered cuts (bench/runtime_stream's
/// strategy): even volumes cut at j*h/n, odd ones at the midpoints, so every
/// volume boundary moves most rows to another device.
sim::RawStrategy staggered_strategy(const cnn::CnnModel& m, int n_devices) {
  sim::RawStrategy strategy;
  std::vector<int> boundaries;
  for (int l = 0; l <= m.num_layers(); ++l) boundaries.push_back(l);
  strategy.volumes = cnn::volumes_from_boundaries(boundaries, m.num_layers());
  for (std::size_t v = 0; v < strategy.volumes.size(); ++v) {
    const int h = cnn::volume_out_height(m, strategy.volumes[v]);
    std::vector<int> cuts{0};
    for (int j = 1; j < n_devices; ++j) {
      const int at = v % 2 == 0 ? j * h / n_devices
                                : std::min(h, ((2 * j - 1) * h + n_devices) /
                                                  (2 * n_devices));
      cuts.push_back(std::clamp(at, cuts.back(), h));
    }
    cuts.push_back(h);
    strategy.cuts.push_back(std::move(cuts));
  }
  return strategy;
}

/// Up to `n_volumes` volumes of about equal conv-chain FLOPs, each split
/// over the devices in proportion to `weights`.
sim::RawStrategy coarse_strategy(const cnn::CnnModel& m, int n_volumes,
                                 const std::vector<double>& weights) {
  Ops total = 0;
  for (const auto& layer : m.layers()) total += layer.ops();
  std::vector<int> boundaries{0};
  Ops acc = 0;
  for (int l = 0; l + 1 < m.num_layers(); ++l) {
    acc += m.layer(l).ops();
    const int next = static_cast<int>(boundaries.size());
    if (next < n_volumes && acc * n_volumes >= total * next) {
      boundaries.push_back(l + 1);
    }
  }
  boundaries.push_back(m.num_layers());
  sim::RawStrategy strategy;
  strategy.volumes = cnn::volumes_from_boundaries(boundaries, m.num_layers());
  for (const auto& v : strategy.volumes) {
    strategy.cuts.push_back(
        core::proportional_split(cnn::volume_out_height(m, v), weights).cuts);
  }
  return strategy;
}

/// A camera-thumbnail classifier about a tenth of edgenet's FLOPs: the
/// light tenant of multi_tenant.
cnn::CnnModel light_model() {
  return cnn::ModelBuilder("light", 64, 64, 3)
      .conv(16, 3, 2, 1)
      .conv(32, 1, 1, 0)
      .maxpool(2, 2)
      .conv(32, 3, 1, 1)
      .build();
}

std::string engine_line() {
  return std::string("engine ") + cnn::to_string(cnn::ExecEngine::kFast) +
         " (cnn::ExecContext::fast_shared), kernel ISA " +
         cnn::to_string(cnn::default_kernel_isa());
}

/// Rings sized so one capture never wraps; obs.events_dropped reports it if
/// one does. A serve_stream lap is a capture of its own (about a second);
/// a StreamServer capture spans the whole traced phase, and the busiest
/// multi_tenant thread kept 446k events in 10 s.
constexpr std::size_t kLapRing = std::size_t{1} << 17;
constexpr std::size_t kPhaseRing = std::size_t{3} << 18;

obs::TraceConfig trace_config(std::size_t ring_capacity) {
  obs::TraceConfig config;
  config.ring_capacity = ring_capacity;
  return config;
}

/// Folds one traced capture into `r`: provider compute and sender-write span
/// time, dropped events, and each attributed image's critical path.
void add_trace(PhaseResult& r, const obs::TraceDump& dump,
               const obs::AttributionReport& report) {
  for (const auto& thread : dump.threads) {
    r.ring_peak = std::max(r.ring_peak, thread.events.size());
    for (const auto& ev : thread.events) {
      if (ev.dur_us < 0) continue;
      const auto cat = static_cast<obs::Cat>(ev.cat);
      if (cat == obs::Cat::kCompute || cat == obs::Cat::kComputeBand) {
        r.compute_us += ev.dur_us;
      } else if (cat == obs::Cat::kSenderWrite) {
        r.send_us += ev.dur_us;
      }
    }
  }
  r.events_dropped += dump.total_dropped();
  r.images_attributed += report.images_attributed;
  for (const auto& b : report.images) {
    r.e2e_ms.push_back(static_cast<double>(b.e2e_us) / 1e3);
    r.scatter_ms.push_back(static_cast<double>(b.scatter_us) / 1e3);
    r.halo_wait_ms.push_back(static_cast<double>(b.halo_wait_us) / 1e3);
    r.gather_wait_ms.push_back(static_cast<double>(b.gather_wait_us) / 1e3);
    r.unattributed_ms.push_back(static_cast<double>(b.unattributed_us) / 1e3);
  }
}

struct Counters {
  std::int64_t messages = 0;
  std::int64_t payload_bytes = 0;
  std::int64_t wire_bytes = 0;
  std::int64_t bytes_copied = 0;
  std::int64_t frame_allocs = 0;
  std::int64_t retransmits = 0;
  std::int64_t recv_timeouts = 0;
};

Counters read_counters(const runtime::DataPlaneStats& s) {
  return {s.messages.load(), s.bytes.load(), s.wire_bytes.load(),
          s.bytes_copied.load(), s.frame_allocs.load(), s.retransmits.load(),
          s.recv_timeouts.load()};
}

void add_counters(PhaseResult& r, const Counters& from, const Counters& to) {
  r.messages += to.messages - from.messages;
  r.payload_bytes += to.payload_bytes - from.payload_bytes;
  r.wire_bytes += to.wire_bytes - from.wire_bytes;
  r.bytes_copied += to.bytes_copied - from.bytes_copied;
  r.frame_allocs += to.frame_allocs - from.frame_allocs;
  r.retransmits += to.retransmits - from.retransmits;
  r.recv_timeouts += to.recv_timeouts - from.recv_timeouts;
}

// ---------------------------------------------------------------------------
// halo_stream, conv_heavy: closed loops through runtime::serve_stream. Each
// serve_stream call builds and tears down its own fleet, so the timed phase
// is a run of laps, each lap one call over the same pre-built input list.

struct LapSpec {
  cnn::CnnModel model;
  int devices = 0;
  bool tcp = false;
  int inflight = 0;
  int volumes = 0;  ///< 0: one volume per layer, staggered cuts
  int pool = 0;     ///< distinct seeded images
  int lap = 0;      ///< images per serve_stream call
  int warmup = 0;   ///< untimed, checked images per set-up
  int checked = 0;  ///< pool images with a reference (== pool: all)
  double deadline_ms = 0;
};

class LapWorkload final : public Workload {
 public:
  LapWorkload(LapSpec spec, std::uint64_t seed)
      : spec_(std::move(spec)),
        weights_(seeded_weights(spec_.model, derive(seed, 1))),
        pool_(image_pool(spec_.model, spec_.pool, derive(seed, 2))),
        refs_(references(spec_.model, weights_, pool_, spec_.checked)) {
    lap_.reserve(static_cast<std::size_t>(spec_.lap));
    for (int k = 0; k < spec_.lap; ++k) {
      lap_.push_back(pool_[static_cast<std::size_t>(k % spec_.pool)]);
    }
    options_.use_tcp = spec_.tcp;
    options_.inflight = spec_.inflight;
    options_.exec = cnn::ExecContext::fast_shared();
  }

  std::string describe() const override {
    char line[512];
    std::snprintf(
        line, sizeof line,
        "%s (%.3f GFLOP/image), %d providers over %s, %d volumes (%s), "
        "closed loop K=%d via runtime::serve_stream, laps of %d images from "
        "a pool of %d; bit-exact check: %s; %s",
        spec_.model.name().c_str(),
        static_cast<double>(spec_.model.conv_chain_ops()) * 1e-9,
        spec_.devices, spec_.tcp ? "loopback TCP" : "the in-process transport",
        static_cast<int>(strategy_.volumes.size()),
        spec_.volumes == 0 ? "one per layer, staggered cuts"
                           : "equal-FLOP, equal cuts",
        spec_.inflight, spec_.lap, spec_.pool,
        spec_.checked == spec_.pool ? "every image"
                                    : "a fixed sample, in set-up only",
        engine_line().c_str());
    return line;
  }

  double deadline_ms() const override { return spec_.deadline_ms; }

  void setup(PhaseResult& checks) override {
    {
      BenchSpan span("core.strategy");
      const auto t0 = Clock::now();
      strategy_ = spec_.volumes == 0
                      ? staggered_strategy(spec_.model, spec_.devices)
                      : coarse_strategy(spec_.model, spec_.volumes,
                                        std::vector<double>(
                                            static_cast<std::size_t>(
                                                spec_.devices),
                                            1.0));
      plan_s_.push_back(seconds_since(t0));
    }
    runtime::ServeOptions o = options_;
    o.keep_outputs = true;
    const auto r = runtime::serve_stream(
        spec_.model, strategy_, weights_,
        std::span<const cnn::Tensor>(lap_).first(
            static_cast<std::size_t>(spec_.warmup)),
        spec_.devices, o);
    checks.attempted += spec_.warmup;
    checks.delivered += r.images;
    for (int k = 0; k < spec_.warmup; ++k) {
      const int idx = k % spec_.pool;
      if (idx < spec_.checked &&
          !bit_exact(r.outputs[static_cast<std::size_t>(k)],
                     refs_[static_cast<std::size_t>(idx)])) {
        ++checks.failed;
      }
    }
  }

  void teardown() override {}  // every serve_stream call owns its fleet

  PhaseResult run_phase(double seconds, bool traced) override {
    PhaseResult r;
    const bool check_all = spec_.checked == spec_.pool;
    const auto flops = static_cast<double>(spec_.model.conv_chain_ops());
    const auto t0 = Clock::now();
    do {
      runtime::ServeOptions o = options_;
      o.keep_outputs = check_all;
      obs::TraceCapture capture;
      if (traced) {
        o.trace = &capture;
        obs::TraceRecorder::instance().enable(trace_config(kLapRing));
      }
      runtime::ServeResult s;
      const double lap_start_s = seconds_since(t0);
      {
        BenchSpan span("runtime.serve_stream");
        s = runtime::serve_stream(spec_.model, strategy_, weights_, lap_,
                                  spec_.devices, o);
      }
      if (traced) obs::TraceRecorder::instance().disable();
      const double lap_end_s = seconds_since(t0);
      // The lap's fleet build and teardown: time in which the closed-loop
      // client feeds the fleet nothing.
      r.generator_lag_ms.push_back(
          1e3 * std::max(0.0, lap_end_s - lap_start_s - s.wall_s));

      r.attempted += spec_.lap;
      r.delivered += s.images;
      r.flops += flops * s.images;
      // In-order delivery with K in flight: image i is scattered right
      // after image i-K is delivered (the first K at the stream's start).
      const auto& done = s.delivered_at_s;
      const std::size_t k_inflight = static_cast<std::size_t>(spec_.inflight);
      for (std::size_t i = 0; i < done.size(); ++i) {
        const double lat =
            1e3 * (done[i] - (i >= k_inflight ? done[i - k_inflight] : 0.0));
        // Stream time is relative to the lap's own start; anchor it at the
        // lap's end (fleet teardown after the last delivery is short).
        r.samples.push_back({lap_end_s - (done.back() - done[i]), lat, true});
        bool exact = true;
        if (check_all) {
          exact = bit_exact(s.outputs[i],
                            refs_[i % static_cast<std::size_t>(spec_.pool)]);
          if (!exact) ++r.failed;
        }
        if (exact && lat <= spec_.deadline_ms) ++r.deadline_met;
      }
      add_counters(r, Counters{},
                   Counters{s.messages_exchanged, s.bytes_moved, s.wire_bytes,
                            s.bytes_copied, s.frame_allocs, s.retransmits,
                            s.recv_timeouts});
      if (traced) add_trace(r, capture.dump, s.attribution);
    } while (seconds_since(t0) < seconds);
    r.wall_s = seconds_since(t0);
    return r;
  }

 private:
  const LapSpec spec_;
  sim::RawStrategy strategy_;  ///< built by each set-up
  const std::vector<cnn::ConvWeights> weights_;
  const std::vector<cnn::Tensor> pool_;
  const std::vector<cnn::Tensor> refs_;
  std::vector<cnn::Tensor> lap_;  ///< `lap` copies cycling through the pool
  runtime::ServeOptions options_;
};

// ---------------------------------------------------------------------------
// multi_tenant, camera_shaped: a provider fleet behind one StreamServer.

/// Fleet plumbing, torn down in dependency order: the door first (it drains
/// and releases the providers with kShutdown), then the provider threads,
/// then the transports.
struct Fleet {
  runtime::ClusterFabric fabric;
  runtime::DataPlaneStats stats;
  std::vector<runtime::TenantModel> models;
  runtime::Supervisor providers;
  std::unique_ptr<serve::StreamServer> server;

  Fleet(int devices, std::span<const serve::TenantSpec> tenants,
        const rpc::ShapingSpec* shaping, int max_streams) {
    {
      BenchSpan span("rpc.make_fabric");
      fabric = runtime::make_fabric(devices, /*use_tcp=*/false, nullptr,
                                    runtime::DataPlaneMode::kOverlapZeroCopy,
                                    shaping);
    }
    for (const auto& t : tenants) models.push_back({t.model, t.weights});
    {
      // The fast engine explicitly: spawn_providers_multi defaults `exec`
      // to the reference engine.
      BenchSpan span("runtime.spawn_providers_multi");
      providers = runtime::spawn_providers_multi(
          fabric, devices, models, stats, {}, cnn::ExecContext::fast_shared());
    }
    serve::StreamServerOptions options;
    options.max_streams = max_streams;
    server = std::make_unique<serve::StreamServer>(fabric.requester(), devices,
                                                   tenants, stats, options);
  }
  ~Fleet() {
    server->close();
    providers.join_all();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
};

struct StreamCursor {
  std::size_t latencies = 0;  ///< server-side latency samples so far
  std::int64_t credit_stalls = 0;
};

StreamCursor cursor(const serve::StreamServer& server, int id) {
  const auto snap = server.snapshot(id);
  return {snap.latency_ms.size(), snap.credit_stalls};
}

/// Snapshots and disarms the recorder and attributes the capture (in-process
/// fabric: node clock origins rebase every thread exactly).
void finish_trace(PhaseResult& r, const Fleet& fleet) {
  obs::TraceCapture capture;
  capture.dump = obs::TraceRecorder::instance().snapshot();
  obs::TraceRecorder::instance().disable();
  capture.node_origin_us = fleet.fabric.node_origin_us;
  add_trace(r, capture.dump,
            obs::attribute_critical_paths(obs::merge_capture(capture)));
}

class MultiTenantWorkload final : public Workload {
 public:
  static constexpr int kDevices = 3;
  static constexpr int kStreams = 4;  ///< 0, 1: edgenet; 2, 3: light
  static constexpr int kWindow = 4;
  static constexpr int kPool = 8;
  static constexpr int kWarmup = 64;    ///< images per stream per set-up
  static constexpr int kSwapEvery = 64; ///< odd streams toggle strategy
  static constexpr double kDeadlineMs = 80;

  explicit MultiTenantWorkload(std::uint64_t seed) {
    const cnn::CnnModel models[2] = {cnn::edgenet(), light_model()};
    for (int t = 0; t < 2; ++t) {
      Tenant& tenant = tenants_[t];
      tenant.model = models[t];
      tenant.weights = seeded_weights(tenant.model, derive(seed, 1 + 10 * t));
      tenant.pool = image_pool(tenant.model, kPool, derive(seed, 2 + 10 * t));
      tenant.refs =
          references(tenant.model, tenant.weights, tenant.pool, kPool);
      tenant.flops = static_cast<double>(tenant.model.conv_chain_ops());
    }
  }

  std::string describe() const override {
    return "edgenet + light (" +
           std::to_string(tenants_[1].model.conv_chain_ops() / 1000000) +
           " MFLOP/image) tenants, 4 streams x window 4 through "
           "serve::StreamServer on 3 in-process providers, one client "
           "thread keeping every window full, odd streams swapping strategy "
           "every 64 images; bit-exact check: every image; " +
           engine_line();
  }

  double deadline_ms() const override { return kDeadlineMs; }

  void setup(PhaseResult& checks) override {
    {
      BenchSpan span("core.strategy");
      const auto t0 = Clock::now();
      specs_.clear();
      for (auto& tenant : tenants_) {
        tenant.base = coarse_strategy(tenant.model, 2, {1.0, 1.0, 1.0});
        tenant.alt = coarse_strategy(tenant.model, 2, {2.5, 1.0, 1.0});
        specs_.push_back({&tenant.model, &tenant.weights, tenant.base});
      }
      plan_s_.push_back(seconds_since(t0));
    }
    fleet_ = std::make_unique<Fleet>(kDevices, specs_, nullptr, kStreams);
    ids_.clear();
    streams_.assign(kStreams, {});
    for (int s = 0; s < kStreams; ++s) {
      const int id = fleet_->server->open_stream(s / 2, kWindow);
      if (id < 0) throw std::runtime_error("multi_tenant: open_stream refused");
      ids_.push_back(id);
    }
    drive(checks, Clock::now(), [&] {
      for (const auto& st : streams_) {
        if (st.submitted < kWarmup) return true;
      }
      return false;
    });
  }

  void teardown() override { fleet_.reset(); }

  PhaseResult run_phase(double seconds, bool traced) override {
    auto& server = *fleet_->server;
    std::vector<StreamCursor> from;
    for (const int id : ids_) from.push_back(cursor(server, id));
    for (auto& st : streams_) {
      st.popped.clear();
      st.freed.clear();
    }
    const Counters c0 = read_counters(fleet_->stats);
    if (traced) {
      obs::TraceRecorder::instance().enable(trace_config(kPhaseRing));
    }

    PhaseResult r;
    const auto t0 = Clock::now();
    drive(r, t0, [&] { return seconds_since(t0) < seconds; });
    r.wall_s = seconds_since(t0);
    if (traced) finish_trace(r, *fleet_);
    add_counters(r, c0, read_counters(fleet_->stats));

    for (int s = 0; s < kStreams; ++s) {
      const auto snap = server.snapshot(ids_[static_cast<std::size_t>(s)]);
      const auto& st = streams_[static_cast<std::size_t>(s)];
      r.credit_stalls +=
          snap.credit_stalls - from[static_cast<std::size_t>(s)].credit_stalls;
      // Server latencies are in per-stream delivery order, the order the
      // client popped (and checked) them.
      for (std::size_t j = from[static_cast<std::size_t>(s)].latencies, k = 0;
           j < snap.latency_ms.size() && k < st.popped.size(); ++j, ++k) {
        const double lat = snap.latency_ms[j];
        r.samples.push_back({st.popped[k].first, lat, s / 2 == 1});
        if (st.popped[k].second && lat <= kDeadlineMs) ++r.deadline_met;
      }
    }
    return r;
  }

 private:
  struct Tenant {
    cnn::CnnModel model;
    std::vector<cnn::ConvWeights> weights;
    std::vector<cnn::Tensor> pool;
    std::vector<cnn::Tensor> refs;
    sim::RawStrategy base;
    sim::RawStrategy alt;
    double flops = 0;
  };
  struct StreamState {
    std::deque<int> outstanding;  ///< pool indices submitted, not yet popped
    std::int64_t submitted = 0;
    bool alt = false;
    /// Per output popped this phase: when (s since the phase began), and
    /// whether it was bit-exact.
    std::vector<std::pair<double, bool>> popped;
    /// When each window slot freed by a pop this phase came free; the next
    /// submit refills the oldest.
    std::deque<Clock::time_point> freed;
  };

  /// The one client thread: tops every stream's window up while
  /// `keep_submitting()`, pops the streams round-robin and checks each
  /// output, then drains what is still in flight.
  void drive(PhaseResult& r, Clock::time_point t0,
             const std::function<bool()>& keep_submitting) {
    auto& server = *fleet_->server;
    for (;;) {
      const bool submitting = keep_submitting();
      bool any_popped = false;
      for (int s = 0; s < kStreams; ++s) {
        auto& st = streams_[static_cast<std::size_t>(s)];
        const Tenant& tenant = tenants_[s / 2];
        const int id = ids_[static_cast<std::size_t>(s)];
        while (submitting &&
               static_cast<int>(st.outstanding.size()) < kWindow) {
          if (s % 2 == 1 && st.submitted > 0 &&
              st.submitted % kSwapEvery == 0) {
            st.alt = !st.alt;
            server.swap_strategy(id, st.alt ? tenant.alt : tenant.base);
          }
          const int idx = static_cast<int>(st.submitted % kPool);
          ++r.attempted;
          bool ok = false;
          {
            BenchSpan span("serve.submit");
            ok = server.submit(id, tenant.pool[static_cast<std::size_t>(idx)]);
          }
          if (!ok) {
            ++r.failed;
            return;  // the door refused: the server is down
          }
          if (!st.freed.empty()) {
            r.generator_lag_ms.push_back(
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          st.freed.front())
                    .count());
            st.freed.pop_front();
          }
          st.outstanding.push_back(idx);
          ++st.submitted;
        }
        if (st.outstanding.empty()) continue;
        std::optional<cnn::Tensor> out;
        {
          BenchSpan span("serve.pop");
          out = server.pop(id);
        }
        const int idx = st.outstanding.front();
        st.outstanding.pop_front();
        st.freed.push_back(Clock::now());
        any_popped = true;
        if (!out) {
          ++r.failed;
          return;
        }
        ++r.delivered;
        r.flops += tenant.flops;
        const bool exact =
            bit_exact(*out, tenant.refs[static_cast<std::size_t>(idx)]);
        if (!exact) ++r.failed;
        st.popped.emplace_back(seconds_since(t0), exact);
      }
      if (!submitting && !any_popped) return;
    }
  }

  Tenant tenants_[2];
  std::vector<serve::TenantSpec> specs_;
  std::unique_ptr<Fleet> fleet_;
  std::vector<int> ids_;
  std::vector<StreamState> streams_;
};

class CameraWorkload final : public Workload {
 public:
  static constexpr int kDevices = 4;
  static constexpr int kWindow = 8;
  static constexpr int kPool = 8;
  static constexpr int kWarmup = 16;
  /// Well below capacity: at 50 frames/s some seeds' planned strategies
  /// queued on the slowest link, and their latency doubled whenever the
  /// host was busy.
  static constexpr double kFps = 25;
  static constexpr double kDeadlineMs = 1e3 / kFps;  ///< before the next frame

  explicit CameraWorkload(std::uint64_t seed)
      : profile_(experiments::build(scenario(
            experiments::group_ND(device::DeviceType::kNano).seed))),
        built_(experiments::build(scenario(derive(seed, 3)))),
        weights_(seeded_weights(built_.model, derive(seed, 1))),
        pool_(image_pool(built_.model, kPool, derive(seed, 2))),
        refs_(references(built_.model, weights_, pool_, kPool)) {
    for (int i = 0; i < kDevices; ++i) {
      shaping_.node_traces.push_back(built_.network.link(i).trace);
    }
    shaping_.node_traces.push_back(built_.network.link(net::kRequester).trace);
  }

  std::string describe() const override {
    char line[512];
    std::snprintf(
        line, sizeof line,
        "%s on Table II group ND: 4 Nano-model providers paced by "
        "ShapedTransport at 50/100/200/300 Mbps stable-Wi-Fi traces "
        "(requester 300 Mbps), strategy planned by core::DistrEdgePlanner "
        "in set-up on the group's fixed-seed profile traces, open loop at "
        "%.0f frames/s through serve::StreamServer "
        "(window %d), deadline %.0f ms; bit-exact check: every frame; %s",
        built_.model.name().c_str(), kFps, kWindow, kDeadlineMs,
        engine_line().c_str());
    std::string planned = "; planned " +
                          std::to_string(strategy_.volumes.size()) +
                          " volumes, row cuts";
    for (const auto& cuts : strategy_.cuts) {
      for (std::size_t j = 0; j < cuts.size(); ++j) {
        planned += j == 0 ? ' ' : '/';
        planned += std::to_string(cuts[j]);
      }
    }
    return line + planned;
  }

  double deadline_ms() const override { return kDeadlineMs; }

  void setup(PhaseResult& checks) override {
    {
      BenchSpan span("core.plan");
      const auto t0 = Clock::now();
      core::DistrEdgePlanner planner;
      strategy_ = planner.plan(profile_.context()).to_raw(built_.model);
      plan_s_.push_back(seconds_since(t0));
    }
    specs_ = {{&built_.model, &weights_, strategy_}};
    fleet_ = std::make_unique<Fleet>(kDevices, specs_, &shaping_, 1);
    id_ = fleet_->server->open_stream(0, kWindow);
    if (id_ < 0) throw std::runtime_error("camera_shaped: open_stream refused");

    auto& server = *fleet_->server;
    std::deque<int> outstanding;
    const auto pop_one = [&] {
      const auto out = server.pop(id_);
      const int idx = outstanding.front();
      outstanding.pop_front();
      if (out) ++checks.delivered;
      if (!out || !bit_exact(*out, refs_[static_cast<std::size_t>(idx)])) {
        ++checks.failed;
      }
    };
    for (int k = 0; k < kWarmup; ++k) {
      if (static_cast<int>(outstanding.size()) == kWindow) pop_one();
      ++checks.attempted;
      if (!server.submit(id_, pool_[static_cast<std::size_t>(k % kPool)])) {
        ++checks.failed;
        continue;
      }
      outstanding.push_back(k % kPool);
    }
    while (!outstanding.empty()) pop_one();
  }

  void teardown() override { fleet_.reset(); }

  /// Open loop: frame k is due at t0 + k/fps whatever the system does. The
  /// generator stamps the due time, sleeps until it and submits; the
  /// collector pops in order and times each frame from its due time, so a
  /// stall also charges every frame queued behind it.
  PhaseResult run_phase(double seconds, bool traced) override {
    auto& server = *fleet_->server;
    const StreamCursor from = cursor(server, id_);
    const Counters c0 = read_counters(fleet_->stats);
    if (traced) {
      obs::TraceRecorder::instance().enable(trace_config(kPhaseRing));
    }

    struct Frame {
      int idx = 0;
      Clock::time_point due;
      bool on_time = false;  ///< submitted within its own frame period
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Frame> handed;
    bool generating = true;

    const int frames = std::max(1, static_cast<int>(seconds * kFps));
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kFps));
    const double period_ms = 1e3 / kFps;
    // Frame 0 is due one period from now, so set-up work cannot make it late.
    const auto t0 = Clock::now() + period;

    PhaseResult r;    // written by the generator (this thread)
    PhaseResult col;  // written by the collector
    std::thread collector([&] {
      for (;;) {
        Frame f;
        {
          std::unique_lock lk(mu);
          cv.wait(lk, [&] { return !handed.empty() || !generating; });
          if (handed.empty()) return;
          f = handed.front();
          handed.pop_front();
        }
        const auto out = server.pop(id_);
        const double lat =
            std::chrono::duration<double, std::milli>(Clock::now() - f.due)
                .count();
        if (!out) {
          ++col.failed;
          continue;
        }
        ++col.delivered;
        col.flops += static_cast<double>(built_.model.conv_chain_ops());
        col.samples.push_back(
            {std::chrono::duration<double>(Clock::now() - t0).count(), lat,
             true});
        const bool exact =
            bit_exact(*out, refs_[static_cast<std::size_t>(f.idx)]);
        if (!exact) ++col.failed;
        if (exact && f.on_time && lat <= kDeadlineMs) ++col.deadline_met;
      }
    });
    for (int k = 0; k < frames; ++k) {
      const auto due = t0 + k * period;
      std::this_thread::sleep_until(due);
      const int idx = k % kPool;
      ++r.attempted;
      bool ok = false;
      {
        BenchSpan span("serve.submit");
        ok = server.submit(id_, pool_[static_cast<std::size_t>(idx)]);
      }
      const double lag =
          std::chrono::duration<double, std::milli>(Clock::now() - due)
              .count();
      r.generator_lag_ms.push_back(lag);
      if (!ok) {
        ++r.failed;
        continue;
      }
      std::lock_guard lk(mu);
      handed.push_back({idx, due, lag <= period_ms});
      cv.notify_one();
    }
    {
      std::lock_guard lk(mu);
      generating = false;
      cv.notify_one();
    }
    collector.join();
    r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (traced) finish_trace(r, *fleet_);
    add_counters(r, c0, read_counters(fleet_->stats));

    r.delivered = col.delivered;
    r.failed += col.failed;
    r.flops = col.flops;
    r.deadline_met = col.deadline_met;
    r.samples = std::move(col.samples);
    r.credit_stalls = cursor(server, id_).credit_stalls - from.credit_stalls;
    return r;
  }

 private:
  /// Group ND serving edgenet; `trace_seed` seeds the Wi-Fi traces.
  static experiments::Scenario scenario(std::uint64_t trace_seed) {
    auto s = experiments::group_ND(device::DeviceType::kNano);
    s.model_name = "edgenet";
    s.seed = trace_seed;
    return s;
  }

  /// The planner plans on the group's own profile traces, the links are
  /// paced by the seeded ones. Planned on the seeded traces, some seeds gave
  /// the 50 Mbps device rows and others did not, and p50 latency split
  /// into two modes (about 11 and 15.5 ms) by seed.
  const experiments::BuiltScenario profile_;
  const experiments::BuiltScenario built_;
  const std::vector<cnn::ConvWeights> weights_;
  const std::vector<cnn::Tensor> pool_;
  const std::vector<cnn::Tensor> refs_;
  rpc::ShapingSpec shaping_;
  sim::RawStrategy strategy_;
  std::vector<serve::TenantSpec> specs_;
  std::unique_ptr<Fleet> fleet_;
  int id_ = -1;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"halo_stream", "conv_heavy",
                                              "multi_tenant", "camera_shaped"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "halo_stream") {
    LapSpec s;
    s.model = cnn::edgenet();
    s.devices = 3;
    s.tcp = true;
    s.inflight = 4;
    s.volumes = 0;
    s.pool = 16;
    s.lap = 256;
    s.warmup = 128;
    s.checked = s.pool;
    s.deadline_ms = 40;
    return std::make_unique<LapWorkload>(std::move(s), seed);
  }
  if (name == "conv_heavy") {
    LapSpec s;
    s.model = cnn::resnet50();
    s.devices = 2;
    s.tcp = false;
    s.inflight = 2;
    s.volumes = 3;
    s.pool = 4;
    s.lap = 24;
    s.warmup = 4;
    s.checked = 2;
    s.deadline_ms = 400;
    return std::make_unique<LapWorkload>(std::move(s), seed);
  }
  if (name == "multi_tenant") {
    return std::make_unique<MultiTenantWorkload>(seed);
  }
  if (name == "camera_shaped") return std::make_unique<CameraWorkload>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
