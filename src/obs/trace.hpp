// Cluster-wide tracing plane (DESIGN.md §observability): per-thread
// fixed-size ring buffers of POD span/instant events, written lock-free
// with no allocation on the hot path.
//
// Design constraints, in order:
//  * Disabled cost ~ one relaxed atomic load + branch per site — tracing
//    ships compiled in and off by default; benches gate the enabled cost
//    at < 2% IPS (bench/obs_overhead -> BENCH_obs.json).
//  * Enabled hot path: two steady-clock reads per span plus five relaxed
//    64-bit stores into the calling thread's own ring — no locks, no heap,
//    honoring the data plane's steady-state no-malloc discipline (the ring
//    itself is allocated once, on the thread's first event of a session).
//  * Readers may snapshot while writers are live (the TSan stress test in
//    tests/obs/trace_recorder_test.cpp hammers this): every slot is a tiny
//    seqlock — stamp invalidated before the words are rewritten, republished
//    after — so a snapshot either sees a whole event or rejects the slot,
//    never a torn mix. Wrapped-over (oldest) events are counted as dropped,
//    not silently absorbed.
//
// Correlation model: every event carries the (image seq, volume, epoch)
// ids the wire format already stamps on each chunk, so one image can be
// followed requester -> provider compute bands -> halo exchange -> gather
// -> ack across every node of a cluster. Threads bind once to a node id and
// a role name (obs::bind_thread, which also pthread_setname_np's the OS
// thread); the exporter groups rings by node into per-node Perfetto tracks
// (src/obs/trace_export.*).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

namespace de::obs {

/// Event categories — one per instrumented hot-path site. Stable small ints
/// on the wire-side of the trace (the JSON exporter writes the names).
enum class Cat : std::uint16_t {
  kScatter = 0,      ///< requester: encode+post one image's volume-0 inputs
  kGather,           ///< requester: wait+blit one image's output rows
  kAssemble,         ///< provider: wait for + blit one volume's input
                     ///< crop, or wait for an image's dispatch
  kCompute,          ///< one volume's whole-part compute (the data plane
                     ///< itself records kComputeBand)
  kComputeBand,      ///< provider: one halo-first band
  kHaloPost,         ///< provider: encode one halo/gather band into a frame
  kSenderWrite,      ///< ChunkSender thread: one blocking transport write
  kTxSyscall,        ///< TCP transport: one sendmsg (header+payload)
  kRxSyscall,        ///< TCP transport: one payload read into an arena frame
  kRtoFire,          ///< retransmitter: rto expired, chunk resent
  kNackResend,       ///< retransmitter: nack round triggered resends
  kRecvTimeout,      ///< bounded data wait expired (nack round follows)
  kDupDrop,          ///< receive-side dedup absorbed a repeat
  kParkChunk,        ///< provider: chunk of an unannounced epoch parked
  kEpochRegister,    ///< provider: reconfigure announcement registered
  kEpochPush,        ///< requester: new epoch announced to the providers
  kReplan,           ///< controller: drift exceeded, planner invoked
  kSwapDecision,     ///< controller: new strategy published for cutover
  kDriftSample,      ///< controller: telemetry tick (arg = drift * 1e3)
  kPoolTask,         ///< ThreadPool::parallel_for claimed iteration
  kPacedSend,        ///< shaped transport pacer: one frame released
  kTelemetryPub,     ///< provider: kTelemetry frame published
  kFrameAlloc,       ///< frame arena had to malloc a fresh buffer
  kHeartbeatPub,     ///< node: kHeartbeat lease renewal published
  kLeaseExpire,      ///< controller: a device's lease lapsed (declared dead)
  kMembershipSwap,   ///< requester: membership change announced to the fleet
  kImageCancel,      ///< in-flight image voided for re-dispatch
  kJoinAdopt,        ///< controller: joiner calibrated and adopted
  kRetxCancel,       ///< retransmitter: dead peer's outbox budget cancelled
  kLaneEvictCat,     ///< provider: retired epoch lane evicted
  kCount
};

/// Human-readable category name (exporter + demos).
const char* cat_name(Cat cat);

/// One trace event: 40 bytes of POD, copied into ring slots as five 64-bit
/// words. dur_us < 0 marks an instant event; seq/volume/epoch are the data
/// plane's correlation ids (-1 = not applicable); arg is category-specific
/// (bytes for I/O categories, counts elsewhere).
struct TraceEvent {
  std::int64_t ts_us = 0;   ///< span begin (process-steady micros)
  std::int32_t dur_us = -1; ///< span duration; < 0 for instants
  std::int32_t seq = -1;    ///< image sequence id
  std::int32_t volume = -1; ///< layer-volume index
  std::int32_t epoch = -1;  ///< strategy epoch
  std::int64_t arg = 0;     ///< bytes / count / category-specific detail
  std::uint16_t cat = 0;    ///< Cat
  std::int16_t node = -1;   ///< cluster node id (-1 = unbound thread)
  std::int32_t stream = -1; ///< owning client stream (-1 = not applicable)
};
static_assert(sizeof(TraceEvent) == 40, "TraceEvent must stay 5 words");
static_assert(std::is_trivially_copyable_v<TraceEvent>);

/// Steady-clock microseconds since a fixed process-wide origin. All threads
/// of one process share this timebase; per-*node* local timebases are a
/// subtraction at export time (trace_export.hpp).
std::int64_t now_us();

struct TraceConfig {
  /// Events retained per thread ring; older events are dropped (counted).
  std::size_t ring_capacity = 1 << 14;
};

/// Everything one thread recorded: its surviving events (oldest first), the
/// count that wrapped away, and the thread's binding.
struct ThreadTrace {
  std::string name;          ///< role name ("provider-2", "pacer", ...)
  int node = -1;             ///< cluster node the thread belongs to
  std::uint64_t dropped = 0; ///< events overwritten before the snapshot
  std::vector<TraceEvent> events;
};

struct TraceDump {
  std::vector<ThreadTrace> threads;
  std::uint64_t total_events() const;
  std::uint64_t total_dropped() const;
};

/// Process-global recorder. All methods are thread-safe; record() is
/// lock-free and allocation-free after a thread's first event.
class TraceRecorder {
 public:
  static TraceRecorder& instance();

  /// Arms recording. Rings from a previous session are discarded; threads
  /// re-acquire a fresh ring on their next event.
  void enable(const TraceConfig& config = {});
  /// Disarms recording; rings stay readable until the next enable().
  void disable();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records one event into the calling thread's ring (no-op when
  /// disabled). The event's `node` field is overwritten from the thread's
  /// binding (bind_thread).
  void record(TraceEvent ev);

  /// Copies every ring's surviving events. Safe while writers are live:
  /// torn slots (being rewritten mid-copy) are skipped and counted as
  /// dropped. Events within one thread are oldest-first.
  TraceDump snapshot() const;

 private:
  TraceRecorder() = default;

  struct Ring;
  struct ThreadSlot;

  Ring* ring_for_this_thread();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> session_{0};
  mutable std::mutex mu_;  ///< rings_ shape + config (cold paths only)
  TraceConfig config_;
  std::vector<std::shared_ptr<Ring>> rings_;
};

/// Binds the calling thread to a cluster node and role name: names the OS
/// thread (pthread_setname_np, truncated to 15 chars) so debuggers, TSan
/// reports, and traces show roles instead of anonymous TIDs, and tags every
/// event the thread records from here on. node = -1 for node-less threads
/// (pool workers). Safe to call before or after tracing is enabled, and
/// more than once (latest binding wins for future events).
void bind_thread(const std::string& name, int node = -1);

/// Convenience wrappers over TraceRecorder::instance().
inline bool trace_enabled() {
  return TraceRecorder::instance().enabled();
}

/// Records an instant event (dur < 0).
inline void trace_instant(Cat cat, int seq = -1, int volume = -1,
                          int epoch = -1, std::int64_t arg = 0,
                          int stream = -1) {
  auto& rec = TraceRecorder::instance();
  if (!rec.enabled()) return;
  TraceEvent ev;
  ev.ts_us = now_us();
  ev.dur_us = -1;
  ev.cat = static_cast<std::uint16_t>(cat);
  ev.seq = seq;
  ev.volume = volume;
  ev.epoch = epoch;
  ev.arg = arg;
  ev.stream = stream;
  rec.record(ev);
}

/// RAII span: stamps begin on construction, records on destruction. The
/// correlation ids and arg may be filled in (or corrected) mid-span —
/// useful when the ids are only known after a receive completes.
class SpanScope {
 public:
  explicit SpanScope(Cat cat, int seq = -1, int volume = -1, int epoch = -1,
                     std::int64_t arg = 0) {
    if (!trace_enabled()) return;
    armed_ = true;
    ev_.ts_us = now_us();
    ev_.cat = static_cast<std::uint16_t>(cat);
    ev_.seq = seq;
    ev_.volume = volume;
    ev_.epoch = epoch;
    ev_.arg = arg;
  }
  ~SpanScope() {
    if (!armed_) return;
    const std::int64_t dur = now_us() - ev_.ts_us;
    ev_.dur_us =
        static_cast<std::int32_t>(dur < 0 ? 0 : dur > INT32_MAX ? INT32_MAX
                                                                : dur);
    TraceRecorder::instance().record(ev_);
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void set_ids(int seq, int volume, int epoch) {
    ev_.seq = seq;
    ev_.volume = volume;
    ev_.epoch = epoch;
  }
  void set_arg(std::int64_t arg) { ev_.arg = arg; }
  void add_arg(std::int64_t delta) { ev_.arg += delta; }
  void set_stream(int stream) { ev_.stream = stream; }

 private:
  bool armed_ = false;
  TraceEvent ev_;
};

}  // namespace de::obs
