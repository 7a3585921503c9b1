// Reliability layer of the cluster data plane (DESIGN.md §fault-model):
// sender-driven retransmission with receiver-side dedup, turning the
// transport's at-most-once sends into effectively-once chunk delivery.
//
// Protocol: every tracked chunk carries a per-sender `chunk_id` (wire v2).
// The receiver acks each tracked chunk back to {sender, kCtrlMailbox} and
// drops repeats of the same (sender, chunk_id). Each node runs one
// Retransmitter thread that drains its control mailbox: acks retire outbox
// entries; nacks (sent by a receiver whose data wait timed out) trigger an
// immediate resend of every unacked frame destined to the complainer. Acks
// and nacks are themselves fire-and-forget — a lost ack just costs one
// duplicate, which the dedup window absorbs.
//
// Retransmission is bounded: after `max_attempts` sends a chunk is
// abandoned (counted in DataPlaneStats::chunks_abandoned) so a permanently
// severed link degrades into a loud, bounded failure instead of a hang.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "common/units.hpp"
#include "rpc/transport.hpp"
#include "rpc/wire.hpp"

namespace de::runtime {

/// Tuning of the reliability protocol. Disabled by default: with `enabled`
/// false the data plane tracks nothing (no chunk ids, no acks, unbounded
/// blocking receives) — the right mode on a trusted fabric.
/// Note on rto tuning: a chunk is acked when the receiver *dequeues* it,
/// not when it lands in the mailbox, so the rto should comfortably exceed
/// the receiver's worst per-volume compute time. A too-small rto is safe —
/// spurious resends are absorbed by dedup — but wastes bandwidth, and a
/// receiver stalled past rto_ms * max_attempts gets its (delivered) chunks
/// reported as abandoned.
struct ReliabilityOptions {
  bool enabled = false;
  int recv_timeout_ms = 50;    ///< data-mailbox wait before a nack round
  int max_recv_timeouts = 200; ///< consecutive timeout rounds before failing
  int rto_ms = 25;             ///< resend a chunk unacked for this long
  int max_attempts = 40;       ///< total sends per chunk before giving up
};

/// Chunk-message accounting shared by all nodes of one run. The first two
/// fields count every data chunk posted (including retransmissions in
/// `retransmits`); the rest are reliability-layer events.
struct DataPlaneStats {
  std::atomic<std::int64_t> messages{0};
  std::atomic<Bytes> bytes{0};  ///< tensor payload bytes (not frame bytes)
  std::atomic<Bytes> wire_bytes{0};    ///< full frame bytes (headers included)
  /// Userspace bytes memcpy'd on the chunk path (slice/encode/decode/blit).
  /// bytes_copied / bytes is the observable copies-per-halo-byte figure the
  /// zero-copy plane keeps at <= 2 (encode into the frame + blit out of it).
  std::atomic<Bytes> bytes_copied{0};
  /// Frame-buffer heap allocations by the data-plane arenas; steady-state
  /// streaming reuses warm buffers, so this stays flat per extra image.
  std::atomic<std::int64_t> frame_allocs{0};
  std::atomic<std::int64_t> retransmits{0};
  std::atomic<std::int64_t> acks{0};
  std::atomic<std::int64_t> duplicates_dropped{0};
  std::atomic<std::int64_t> nacks{0};
  std::atomic<std::int64_t> recv_timeouts{0};
  std::atomic<std::int64_t> chunks_abandoned{0};  ///< gave up after max_attempts
  /// Outbox entries dropped by cancel_to() when the controller declared the
  /// destination dead — retransmission budget released without burning the
  /// full rto/attempt schedule.
  std::atomic<std::int64_t> retx_cancelled{0};
  /// In-flight images voided by a membership change and re-dispatched under
  /// fresh seqs (never corrupted, never silently dropped).
  std::atomic<std::int64_t> images_cancelled{0};
  /// Retired epoch lanes evicted from providers (stream closed + drained).
  std::atomic<std::int64_t> lanes_evicted{0};
};

/// Receive-side duplicate filter: tracks (sender, chunk_id) pairs with a
/// highest-contiguous-id watermark plus a sparse set for out-of-order
/// arrivals. Senders allocate chunk ids per destination link (1, 2, 3, ...
/// with no gaps from this receiver's point of view), so the watermark keeps
/// advancing and memory stays O(reorder window) per sender even on
/// unbounded streams.
class ChunkDedup {
 public:
  /// True exactly once per (sender, chunk_id); false for every repeat.
  bool fresh(rpc::NodeId sender, std::uint32_t chunk_id);

  /// Fast-forwards `sender`'s watermark to at least `base`: every id <= base
  /// is treated as seen, ids above it as fresh. Applied when a membership
  /// change announces the sender's new chunk-id incarnation base, so a
  /// rejoined node's fresh ids are never mistaken for replays of its
  /// previous life (nor, worse, acked-then-dropped below a stale
  /// watermark). Never moves the watermark backwards.
  void assume(rpc::NodeId sender, std::uint32_t base);

  /// Sparse ids tolerated per sender before the window assumes the gap is
  /// permanent and advances past the oldest hole. Far above any real
  /// reorder window; reached only when a sender legitimately jumped its ids
  /// (rejoin) and this receiver missed the membership announcement.
  static constexpr std::size_t kMaxSparse = 4096;

 private:
  struct Window {
    std::uint32_t contiguous = 0;  ///< all ids in [1, contiguous] seen
    std::set<std::uint32_t> sparse;
  };
  std::map<rpc::NodeId, Window> seen_;
};

/// Sender half: owns the unacked-chunk outbox and the control-mailbox
/// thread. One instance per node (providers and the requester alike).
class Retransmitter {
 public:
  /// Starts the control loop on `transport`'s kCtrlMailbox. The transport
  /// must have that mailbox open already and must outlive this object.
  Retransmitter(rpc::Transport& transport, const ReliabilityOptions& options,
                DataPlaneStats& stats);
  ~Retransmitter();

  Retransmitter(const Retransmitter&) = delete;
  Retransmitter& operator=(const Retransmitter&) = delete;

  /// Next chunk id on the link to `to` (starts at 1; 0 means untracked).
  /// Ids are allocated per destination so every receiver observes a gapless
  /// per-sender sequence and its dedup watermark can advance.
  std::uint32_t next_chunk_id(rpc::NodeId to);

  /// Registers a frame for retransmission until acked. Shares the caller's
  /// buffer by refcount — the outbox entry and the in-flight send are the
  /// same allocation, never a second copy.
  void track(const rpc::Address& to, std::uint32_t chunk_id,
             rpc::Frame frame);

  /// Drops every outbox entry destined to `to` right now — the fast-fail
  /// path when the controller declares the peer dead, instead of burning
  /// each entry's remaining rto/attempt schedule. Returns the number of
  /// entries cancelled (also accumulated in stats.retx_cancelled). Does NOT
  /// reset the link's chunk-id counter: ids stay monotone per link forever
  /// so a revived peer's dedup state can never swallow fresh frames.
  std::size_t cancel_to(rpc::NodeId to);

  /// Jumps this sender's outgoing chunk-id counters to at least `base` on
  /// every link. Called by a (re)joining node when its adoption announces a
  /// new id incarnation base: peers fast-forward their dedup to `base`
  /// (ChunkDedup::assume), so outgoing ids must restart above it.
  void set_id_base(std::uint32_t base);

  /// Unacked outbox entries per destination node — the ops plane's
  /// reliable.outbox_depth gauge source. Every peer ever tracked is listed
  /// (drained peers at 0), so a sampler overwrites stale gauges instead of
  /// leaving the last nonzero depth on /metrics forever. Advisory: the
  /// depths move as soon as the lock is released.
  std::map<rpc::NodeId, std::size_t> outbox_depth_by_peer() const;

  /// Stops the control loop and joins its thread. Unacked entries are
  /// dropped. Idempotent; also run by the destructor.
  void stop();

 private:
  struct Entry {
    rpc::Address to;
    rpc::Frame frame;  ///< shared with the original send (refcount, no copy)
    int attempts = 1;  ///< the original send counts as the first attempt
    std::chrono::steady_clock::time_point last_send;
  };

  /// Outbox key: chunk ids are unique per link, not per node.
  using LinkChunk = std::pair<rpc::NodeId, std::uint32_t>;

  /// A frame staged for resend under mu_ and sent after releasing it.
  struct Resend {
    rpc::Address to;
    rpc::Frame frame;
  };

  void ctrl_loop();
  Resend stage_resend_locked(Entry& entry);

  rpc::Transport& transport_;
  const ReliabilityOptions options_;
  DataPlaneStats& stats_;

  mutable std::mutex mu_;
  std::map<LinkChunk, Entry> outbox_;
  std::set<rpc::NodeId> tracked_peers_;  ///< ever-tracked, for 0-depth rows
  std::map<rpc::NodeId, std::uint32_t> next_id_;
  std::uint32_t id_base_ = 0;  ///< incarnation floor for all outgoing ids
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace de::runtime
