#include "runtime/worker.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/require.hpp"
#include "obs/trace.hpp"
#include "runtime/chunk_sender.hpp"

namespace de::runtime {

namespace {

/// Receive outcome of one frame: a chunk, end-of-stream, skip (dropped
/// control/malformed/duplicate frame — caller should keep receiving), an
/// expired bounded wait (reliable mode only), an epoch announcement, a
/// stream-dispatch announcement, a membership change, or a lane eviction —
/// the requester is the one sending all of the announcement kinds, so only
/// providers ask for them.
enum class RxKind {
  kChunk,
  kStop,
  kSkip,
  kTimeout,
  kReconfig,
  kDispatch,
  kMembership,
  kLaneEvict,
};

/// Receive-side state of one node, shared by the provider and gather loops.
/// The dedup window is borrowed from the loop owner: it must span the whole
/// run (chunk ids are per-sender monotonic across images), never one image.
struct RxState {
  rpc::Transport& transport;
  const ReliabilityOptions& reliability;
  DataPlaneStats& stats;
  ChunkDedup& dedup;
};

/// Acks a tracked frame back to its sender's control mailbox and filters
/// repeats. True when the frame is fresh (first delivery).
bool ack_and_dedup(RxState& rx, rpc::NodeId from_node, std::uint32_t chunk_id) {
  if (chunk_id == 0 || from_node == rpc::kNilNode) return true;
  // Ack before dedup: a repeat usually means our previous ack was lost.
  rpc::Frame ack(
      rpc::encode_ack(rpc::AckMsg{rx.transport.local_node(), chunk_id}));
  rx.stats.wire_bytes.fetch_add(static_cast<Bytes>(ack.size()),
                                std::memory_order_relaxed);
  rx.transport.send(ctrl_addr(from_node), std::move(ack));
  if (!rx.dedup.fresh(from_node, chunk_id)) {
    rx.stats.duplicates_dropped.fetch_add(1, std::memory_order_relaxed);
    obs::trace_instant(obs::Cat::kDupDrop, -1, -1, -1,
                       static_cast<std::int64_t>(chunk_id));
    return false;
  }
  return true;
}

RxKind receive_frame(RxState& rx, RxChunk& out,
                     rpc::ReconfigureMsg* reconfig = nullptr,
                     rpc::DispatchMsg* dispatch = nullptr,
                     rpc::MembershipMsg* membership = nullptr,
                     rpc::LaneEvictMsg* lane_evict = nullptr) {
  rpc::Frame payload;
  if (!rx.reliability.enabled) {
    auto received = rx.transport.receive(rpc::kDataMailbox);
    if (!received.has_value()) return RxKind::kStop;  // transport shut down
    payload = std::move(*received);
  } else {
    switch (rx.transport.receive_for(rpc::kDataMailbox,
                                     rx.reliability.recv_timeout_ms, payload)) {
      case rpc::RecvStatus::kClosed:
        return RxKind::kStop;
      case rpc::RecvStatus::kTimeout:
        return RxKind::kTimeout;
      case rpc::RecvStatus::kOk:
        break;
    }
  }
  try {
    const auto type = rpc::peek_type(payload);
    if (type == rpc::MsgType::kShutdown) return RxKind::kStop;
    if (type == rpc::MsgType::kReconfigure && reconfig != nullptr) {
      *reconfig = rpc::decode_reconfigure(payload);
      if (!ack_and_dedup(rx, reconfig->from_node, reconfig->chunk_id)) {
        return RxKind::kSkip;  // retransmitted announcement
      }
      return RxKind::kReconfig;
    }
    if (type == rpc::MsgType::kDispatch && dispatch != nullptr) {
      *dispatch = rpc::decode_dispatch(payload);
      if (!ack_and_dedup(rx, dispatch->from_node, dispatch->chunk_id)) {
        return RxKind::kSkip;  // retransmitted announcement
      }
      return RxKind::kDispatch;
    }
    if (type == rpc::MsgType::kMembership && membership != nullptr) {
      *membership = rpc::decode_membership(payload);
      if (!ack_and_dedup(rx, membership->from_node, membership->chunk_id)) {
        return RxKind::kSkip;  // retransmitted announcement
      }
      return RxKind::kMembership;
    }
    if (type == rpc::MsgType::kLaneEvict && lane_evict != nullptr) {
      *lane_evict = rpc::decode_lane_evict(payload);
      if (!ack_and_dedup(rx, lane_evict->from_node, lane_evict->chunk_id)) {
        return RxKind::kSkip;  // retransmitted announcement
      }
      return RxKind::kLaneEvict;
    }
    if (!rpc::is_chunk_type(type)) {
      return RxKind::kSkip;  // halo requests (push-based plan), stray control
    }
    // Borrowed decode: the view aliases the frame's buffer, which stays
    // put when the frame is moved into the result.
    out.view = rpc::decode_chunk_view(payload);
    out.frame = std::move(payload);
  } catch (const Error&) {
    return RxKind::kSkip;  // malformed frame: drop, keep the node alive
  }
  if (!ack_and_dedup(rx, out.view.from_node, out.view.chunk_id)) {
    return RxKind::kSkip;
  }
  return RxKind::kChunk;
}

/// "Still waiting on (seq, volume)" to every other node's control mailbox;
/// holders of unacked chunks for us retransmit immediately. Inactive
/// providers are skipped: they never send a chunk, so they hold nothing to
/// retransmit — and they run no Retransmitter, so frames posted to their
/// control mailbox would just pile up for the life of the stream.
void broadcast_nack(rpc::Transport& transport, const TransferPlan& plan,
                    int seq, int volume, DataPlaneStats& stats) {
  const auto self = transport.local_node();
  const rpc::Frame frame(
      rpc::encode_nack(rpc::NackMsg{self, seq, volume}));
  for (rpc::NodeId node = 0; node <= plan.requester_node(); ++node) {
    if (node == self) continue;
    if (node < plan.n_devices && !plan.device_active(node)) continue;
    stats.wire_bytes.fetch_add(static_cast<Bytes>(frame.size()),
                               std::memory_order_relaxed);
    transport.send(ctrl_addr(node), frame);  // refcount share per peer
  }
  stats.nacks.fetch_add(1, std::memory_order_relaxed);
}

/// Periodic kHeartbeat publisher (lease renewal) of one provider. Runs on
/// its own small thread so renewals keep flowing while the provider loop
/// blocks in a receive or a long compute — the lease answers "is the node
/// reachable", not "is it idle". Fire-and-forget like telemetry: a lost
/// heartbeat just shortens the lease margin, and a severed node's
/// heartbeats are exactly the ones that must go missing for the collector
/// to declare it dead. hb_seq restarts at 1 per (re)started loop, which the
/// collector's monotone gate reads as a new life.
class Heartbeater {
 public:
  Heartbeater(rpc::Transport& transport, rpc::NodeId to, int period_ms,
              std::int64_t clock_origin_us, DataPlaneStats& stats)
      : transport_(transport), to_(to), period_ms_(period_ms),
        clock_origin_us_(clock_origin_us), stats_(stats) {
    if (period_ms_ > 0 && to_ != rpc::kNilNode) {
      thread_ = std::thread([this] { loop(); });
    }
  }

  ~Heartbeater() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  Heartbeater(const Heartbeater&) = delete;
  Heartbeater& operator=(const Heartbeater&) = delete;

 private:
  void loop() {
    std::uint32_t seq = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      rpc::HeartbeatMsg msg{transport_.local_node(), ++seq,
                            obs::now_us() - clock_origin_us_};
      rpc::Frame frame(rpc::encode_heartbeat(msg));
      stats_.wire_bytes.fetch_add(static_cast<Bytes>(frame.size()),
                                  std::memory_order_relaxed);
      obs::trace_instant(obs::Cat::kHeartbeatPub, -1, -1, -1,
                         static_cast<std::int64_t>(seq));
      transport_.send(rpc::Address{to_, rpc::kTelemetryMailbox},
                      std::move(frame));
      lock.lock();
      cv_.wait_for(lock, std::chrono::milliseconds(period_ms_),
                   [this] { return stop_; });
    }
  }

  rpc::Transport& transport_;
  const rpc::NodeId to_;
  const int period_ms_;
  const std::int64_t clock_origin_us_;
  DataPlaneStats& stats_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// True when the chunk's rows are sane to blit into a destination of width
/// `w`, channels `c`, covering absolute rows `bounds`. Wire decoding only
/// proves the frame is self-consistent; a frame from a mismatched plan (or
/// a hostile loopback connection) can still claim rows far outside the
/// destination, which would write out of bounds. Because such a chunk
/// occupies counted rows/slots, silently dropping it would hang the run —
/// callers fail the image loudly instead.
bool chunk_fits(const rpc::ChunkView& view, const cnn::RowInterval& bounds,
                int w, int c) {
  // 64-bit sum: row_offset near INT32_MAX decodes fine, and a signed int
  // overflow here would wrap negative and let the hostile chunk through.
  return view.w == w && view.c == c && view.row_offset >= bounds.begin &&
         static_cast<std::int64_t>(view.row_offset) + view.h <= bounds.end;
}

/// Farthest ahead of the current image a stashed chunk may be. Legitimate
/// pipelines are bounded by ServeOptions::inflight (single digits); anything
/// beyond this is a mismatched or hostile peer trying to grow the stash
/// without bound.
constexpr int kMaxImagesAhead = 4096;

/// Most chunks that may wait for an epoch announcement. Legitimately in
/// flight at a cutover: at most the inflight window's worth of scatters
/// plus a few halo/gather bands — never thousands.
constexpr std::size_t kMaxPendingChunks = 4096;

[[noreturn]] void fail_geometry(const rpc::ChunkView& view) {
  throw Error("chunk geometry disagrees with the local transfer plan (seq " +
              std::to_string(view.seq) + ", volume " +
              std::to_string(view.volume) + ", epoch " +
              std::to_string(view.epoch) + ", rows [" +
              std::to_string(view.row_offset) + ", " +
              std::to_string(view.row_offset + view.h) +
              ")) — mismatched strategy or hostile peer");
}

[[noreturn]] void fail_starved(int node, int seq, int volume, int rounds) {
  throw Error("node " + std::to_string(node) + " starved waiting for chunks of"
              " image " + std::to_string(seq) + ", volume " +
              std::to_string(volume) + " (" + std::to_string(rounds) +
              " timeout rounds) — peer dead or link severed past recovery");
}

/// Blits a received chunk into `dst`, reading the wire bytes in place (the
/// receive side's one copy, counted into bytes_copied).
void blit_chunk(const RxChunk& chunk, cnn::Tensor& dst, int dst_offset,
                DataPlaneStats& stats) {
  const auto& v = chunk.view;
  rpc::copy_rows_to(v, v.row_offset, v.row_offset + v.h, dst, dst_offset);
  stats.bytes_copied.fetch_add(static_cast<Bytes>(v.payload_bytes()),
                               std::memory_order_relaxed);
}

/// Resizes `t` to (h, w, c) reusing its heap buffer (no zero fill — callers
/// overwrite every row; the transfer plan guarantees full coverage).
void reshape(cnn::Tensor& t, int h, int w, int c) {
  t.h = h;
  t.w = w;
  t.c = c;
  t.data.resize(static_cast<std::size_t>(h) * static_cast<std::size_t>(w) *
                static_cast<std::size_t>(c));
}

/// Zero-copy chunk post: encodes rows straight out of `src` into an arena
/// frame, stamps reliability handles, shares the frame with the outbox when
/// tracked, and hands it to the sender thread (provider) or the transport
/// (requester).
void post_rows(rpc::Transport& transport, const rpc::Address& to,
               rpc::MsgType type, int stream, int seq, int volume, int epoch,
               const cnn::Tensor& src, int src_offset, cnn::RowInterval rows,
               rpc::FrameArena& arena, DataPlaneStats& stats,
               Retransmitter* rtx, ChunkSender* sender) {
  obs::SpanScope span(obs::Cat::kHaloPost, seq, volume, epoch);
  rpc::NodeId from = rpc::kNilNode;
  std::uint32_t chunk_id = 0;
  if (rtx != nullptr) {
    from = transport.local_node();
    chunk_id = rtx->next_chunk_id(to.node);
  }
  rpc::Frame frame = arena.acquire();
  const std::size_t payload =
      rpc::encode_chunk_into(frame, type, seq, volume, from, chunk_id, epoch,
                             stream, src, src_offset, rows);
  span.set_arg(static_cast<std::int64_t>(payload));
  stats.messages.fetch_add(1, std::memory_order_relaxed);
  stats.bytes.fetch_add(static_cast<Bytes>(payload), std::memory_order_relaxed);
  stats.wire_bytes.fetch_add(static_cast<Bytes>(frame.size()),
                             std::memory_order_relaxed);
  stats.bytes_copied.fetch_add(static_cast<Bytes>(payload),
                               std::memory_order_relaxed);
  if (sender != nullptr) {
    // The sender thread registers tracked chunks right before the wire
    // write; tracking here would start the rto while the frame still sits
    // in the queue and turn backpressure into spurious retransmits.
    sender->post(to, std::move(frame), rtx, chunk_id);
  } else {
    if (rtx != nullptr) rtx->track(to, chunk_id, frame);
    transport.send(to, std::move(frame));
  }
}

/// One (volume, device) part's halo-first schedule and the part walk that
/// computes its bands, each intermediate row once.
struct PartPlan {
  PartSchedule schedule;
  cnn::PartWalk walk;
};

/// One tenant stream's serving state on a provider: the epoch lane, the
/// model the lane runs, and the per-epoch part plans.
struct StreamLane {
  int stream = 0;
  const cnn::CnnModel* model = nullptr;
  const std::vector<cnn::ConvWeights>* weights = nullptr;
  EpochTable epochs;
  /// Part plans per epoch id, one per volume (built on first use).
  std::map<int, std::vector<PartPlan>> schedules;
};

/// Epoch bookkeeping and chunk admission of one provider. Every received
/// chunk passes through admit(): chunks of unknown lanes/epochs park in
/// `pending` until their announcement registers, known-epoch chunks are
/// validated against the plan of *their* image's epoch and either consumed,
/// stashed, or rejected loudly; the global seq -> owning-stream dispatch
/// records the requester broadcasts live here too.
struct ProviderState {
  int i;
  /// The model registry reconfigure `model_id`s index into.
  std::span<const TenantModel> fleet;
  /// Epoch lanes keyed by stream id: opened by a stream's first
  /// announcement, erased by sweep_evictions once it is closed and drained.
  std::map<int, StreamLane> lanes;
  /// Which stream owns each global fleet seq (kDispatch).
  std::map<int, rpc::DispatchMsg> owners;
  /// Chunks that arrived ahead of their (image, volume) slot. Seqs are
  /// global, so one map serves every lane.
  std::map<std::pair<int, int>, std::vector<RxChunk>> stash;
  /// Chunks of lanes/epochs not announced to us yet.
  std::vector<RxChunk> pending;
  /// Images below this seq were voided by a membership change (kMembership):
  /// their late chunks are dropped silently, never a geometry failure — the
  /// requester re-dispatches the same inputs under fresh seqs.
  int cancel_floor = 0;
  /// Deferred lane evictions: stream -> drained-below seq.
  std::map<int, int> evictions;

  StreamLane* lane_for(int stream) {
    auto it = lanes.find(stream);
    return it == lanes.end() ? nullptr : &it->second;
  }

  const std::vector<PartPlan>& schedules_for(StreamLane& lane,
                                             const EpochPlan& ep,
                                             const cnn::ExecContext& exec) {
    auto [it, inserted] = lane.schedules.try_emplace(ep.epoch);
    if (inserted) {
      const int n_volumes = ep.plan.num_volumes();
      it->second.resize(static_cast<std::size_t>(n_volumes));
      for (int l = 0; l < n_volumes; ++l) {
        PartPlan& part = it->second[static_cast<std::size_t>(l)];
        part.schedule = plan_part_schedule(ep.plan, l, i);
        if (part.schedule.bands.empty()) continue;
        cnn::plan_part_walk(
            cnn::volume_layers(*lane.model,
                               ep.strategy.volumes[static_cast<std::size_t>(l)]),
            part.schedule.bands, exec, part.walk);
      }
    }
    return it->second;
  }

  /// Routes one received chunk relative to the current processing point
  /// (cur_stream, cur_seq, cur_vol; cur_stream < 0 when the loop is between
  /// images). Returns true exactly when the chunk is the one being waited
  /// on and `allow_consume` is set — it is then left in place for the
  /// caller to blit; everything else is moved into the park/stash queues or
  /// rejected loudly.
  bool admit(RxChunk& chunk, int cur_stream, int cur_seq, int cur_vol,
             bool allow_consume) {
    const auto& v = chunk.view;
    if (v.seq < cancel_floor) {
      // Voided by a membership change: the image's input was re-dispatched
      // under a fresh seq, so stragglers of its old life (a survivor's
      // retransmitted halo, a band computed before the announcement landed)
      // are dropped here — before any plan/epoch check, because the state
      // those checks would consult may itself be gone.
      obs::trace_instant(obs::Cat::kImageCancel, v.seq, v.volume, v.epoch);
      return false;
    }
    StreamLane* lane = lane_for(v.stream);
    if (lane != nullptr && v.epoch < lane->epochs.horizon()) {
      // Tagged with retired history: every image that epoch served is long
      // gathered, so this is a stale duplicate that slipped dedup or a
      // hostile peer.
      fail_geometry(v);
    }
    if (lane == nullptr || !lane->epochs.knows(v.epoch)) {
      // The lane's announcement is still in flight on this same mailbox
      // (under faults possibly *behind* a later epoch's — deliveries
      // reorder); park the chunk until it lands. Bounded: a peer tagging
      // chunks with streams/epochs nobody ever announces must not grow the
      // park queue (tensor payloads included) for the life of the stream.
      if (v.seq - cur_seq > kMaxImagesAhead ||
          pending.size() >= kMaxPendingChunks) {
        fail_geometry(v);
      }
      obs::trace_instant(obs::Cat::kParkChunk, v.seq, v.volume, v.epoch);
      pending.push_back(std::move(chunk));
      return false;
    }
    const EpochPlan& owner = lane->epochs.at(v.seq);
    if (v.epoch != owner.epoch) fail_geometry(v);  // stale/foreign epoch tag
    // A dispatch we already hold must agree on the seq's owning stream.
    if (auto it = owners.find(v.seq);
        it != owners.end() && it->second.stream != v.stream) {
      fail_geometry(v);
    }
    // Chunks that can never be consumed would park in the stash for the
    // life of the stream; treat them as protocol violations.
    const bool off_plan =
        v.volume >= owner.plan.num_volumes() ||
        owner.plan.expected[static_cast<std::size_t>(v.volume)]
                           [static_cast<std::size_t>(i)] == 0 ||
        v.seq < cur_seq || (v.seq == cur_seq && v.volume < cur_vol) ||
        v.seq - cur_seq > kMaxImagesAhead;
    if (off_plan) fail_geometry(v);
    if (allow_consume && v.stream == cur_stream && v.seq == cur_seq &&
        v.volume == cur_vol) {
      return true;
    }
    stash[{v.seq, v.volume}].push_back(std::move(chunk));
    return false;
  }

  /// Registers an announced epoch on its stream's lane (creating the lane
  /// against fleet[model_id] on first sight of the stream) and re-admits
  /// parked chunks it unlocks. The requester pins every dispatched image to
  /// its epoch (a swap takes effect at the next *undispatched* seq), so an
  /// announcement that re-maps the image being processed is a protocol
  /// breach and throws. Announcements for *other* streams' lanes never
  /// touch the current image.
  void register_epoch(const rpc::ReconfigureMsg& msg, int cur_stream,
                      int cur_seq, int cur_vol) {
    obs::trace_instant(obs::Cat::kEpochRegister, msg.from_seq, -1, msg.epoch);
    StreamLane* lane = lane_for(msg.stream);
    if (lane == nullptr) {
      DE_REQUIRE(static_cast<std::size_t>(msg.model_id) < fleet.size(),
                 "reconfigure names an unknown tenant model");
      const TenantModel& tenant = fleet[static_cast<std::size_t>(msg.model_id)];
      lanes.emplace(msg.stream,
                    StreamLane{msg.stream, tenant.model, tenant.weights,
                               EpochTable(epoch_from_reconfigure(
                                   msg, *tenant.model)),
                               {}});
    } else {
      const bool tracking = msg.stream == cur_stream;
      const int before = tracking ? lane->epochs.at(cur_seq).epoch : 0;
      lane->epochs.add(epoch_from_reconfigure(msg, *lane->model));
      DE_REQUIRE(!tracking || lane->epochs.at(cur_seq).epoch == before,
                 "epoch re-mapped a dispatched image — the requester swapped "
                 "behind its own dispatch");
    }
    // Re-admit parked chunks whose lane/epoch is now known. Consumption is
    // disabled: a parked chunk's epoch was unknown, so it is never one the
    // current image runs under — it stashes for a later image or fails.
    auto parked = std::move(pending);
    pending.clear();
    for (auto& chunk : parked) {
      admit(chunk, cur_stream, cur_seq, cur_vol, /*allow_consume=*/false);
    }
  }

  /// Records a kDispatch owner binding.
  void register_dispatch(const rpc::DispatchMsg& msg, int cur_seq) {
    if (msg.seq < cur_seq) return;  // stale repeat of a finished image
    if (msg.seq - cur_seq > kMaxImagesAhead ||
        owners.size() >= kMaxPendingChunks) {
      throw Error("dispatch horizon overflow (seq " + std::to_string(msg.seq) +
                  " while processing " + std::to_string(cur_seq) +
                  ") — runaway or hostile requester");
    }
    auto [it, inserted] = owners.emplace(msg.seq, msg);
    DE_REQUIRE(inserted || (it->second.stream == msg.stream &&
                            it->second.epoch == msg.epoch),
               "conflicting dispatch announcements for one image");
  }

  /// Applies a membership announcement: joiners' chunk-id incarnations are
  /// adopted (the dedup window fast-forwards for peers; our own outgoing
  /// ids jump when *we* are the joiner), retransmissions to the dead are
  /// cancelled (fast-fail — no point burning their rto/attempt schedule),
  /// and everything below `cancel_below` is voided: stashed and parked
  /// chunks dropped, dispatch records erased. Returns true when the image
  /// at `cur_seq` is among the voided — the caller must abandon it and jump
  /// its cursor to the cancel floor.
  bool register_membership(const rpc::MembershipMsg& msg, RxState& rx,
                           Retransmitter* rtx, int cur_seq) {
    const auto self = rx.transport.local_node();
    obs::trace_instant(obs::Cat::kMembershipSwap, msg.cancel_below,
                       static_cast<int>(msg.died.size()), -1,
                       static_cast<std::int64_t>(msg.joined.size()));
    for (const auto& join : msg.joined) {
      if (join.node == self) {
        // Our own adoption: restart outgoing ids above the announced base
        // (idempotent — set_id_base never moves backwards, so a
        // retransmitted membership frame re-applies harmlessly).
        if (rtx != nullptr) rtx->set_id_base(join.id_base);
      } else {
        rx.dedup.assume(join.node, join.id_base);
      }
    }
    if (rtx != nullptr) {
      for (const auto node : msg.died) rtx->cancel_to(node);
    }
    if (msg.cancel_below > cancel_floor) {
      cancel_floor = msg.cancel_below;
      stash.erase(stash.begin(), stash.lower_bound({cancel_floor, 0}));
      std::erase_if(pending, [this](const RxChunk& c) {
        return c.view.seq < cancel_floor;
      });
      owners.erase(owners.begin(), owners.lower_bound(cancel_floor));
    }
    return cur_seq < cancel_floor;
  }

  /// Records a lane eviction; applied by sweep_evictions once the global
  /// cursor passes the drained watermark.
  void register_eviction(const rpc::LaneEvictMsg& msg) {
    auto [it, inserted] = evictions.emplace(msg.stream, msg.below_seq);
    if (!inserted) it->second = std::max(it->second, msg.below_seq);
  }

  /// Drops the epoch lanes (history, schedules, weights binding) of closed
  /// streams whose eviction watermark the cursor has passed. Per-sender
  /// FIFO from the requester means no later frame can legitimately revive
  /// an evicted lane; a straggler would park in `pending` like any chunk of
  /// an unannounced stream.
  void sweep_evictions(int cur_seq, DataPlaneStats& stats) {
    for (auto it = evictions.begin(); it != evictions.end();) {
      if (cur_seq >= it->second) {
        if (lanes.erase(it->first) > 0) {
          stats.lanes_evicted.fetch_add(1, std::memory_order_relaxed);
          obs::trace_instant(obs::Cat::kLaneEvictCat, it->second, -1, -1,
                             it->first);
        }
        it = evictions.erase(it);
      } else {
        ++it;
      }
    }
  }
};

/// Stamps, encodes and posts one announcement frame (reconfigure, dispatch,
/// membership, lane eviction). With `rtx` set the frame is tracked exactly
/// like a tensor chunk — the receiver acks it on the same path — so an
/// announcement survives the same faults the data it gates does.
template <typename Msg, typename Encode>
void post_tracked(rpc::Transport& transport, const rpc::Address& to, Msg msg,
                  Encode encode, DataPlaneStats& stats, Retransmitter* rtx) {
  if (rtx != nullptr) {
    msg.from_node = transport.local_node();
    msg.chunk_id = rtx->next_chunk_id(to.node);
  }
  rpc::Frame frame(encode(msg));
  stats.wire_bytes.fetch_add(static_cast<Bytes>(frame.size()),
                             std::memory_order_relaxed);
  if (rtx != nullptr) rtx->track(to, msg.chunk_id, frame);
  transport.send(to, std::move(frame));
}

enum class ImageOutcome { kDone, kStop, kCancelled };

/// Executes image `seq` on provider `i` under the epoch of `lane` (the
/// stream that owns the image) currently serving it.
ImageOutcome process_image(
    ProviderState& state, RxState& rx, rpc::Transport& transport,
    StreamLane& lane, int seq, DataPlaneStats& stats,
    const ReliabilityOptions& reliability, const cnn::ExecContext& exec,
    rpc::FrameArena& arena, ChunkSender& sender, Retransmitter* rtx,
    cnn::Tensor& crop, cnn::Tensor (&out_bufs)[2], int& cur_buf,
    double& compute_ms) {
  const int i = state.i;
  const cnn::CnnModel& model = *lane.model;
  const std::vector<cnn::ConvWeights>& weights = *lane.weights;
  const EpochPlan& ep = lane.epochs.at(seq);  // heap-owned: stays valid
  const TransferPlan& plan = ep.plan;
  const sim::RawStrategy& strategy = ep.strategy;
  const int n_volumes = plan.num_volumes();

  const cnn::Tensor* prev_out = nullptr;
  cnn::RowInterval prev_rows{0, 0};  // which absolute rows prev_out holds

  for (int l = 0; l < n_volumes; ++l) {
    const auto volume = strategy.volumes[static_cast<std::size_t>(l)];
    const auto layers = cnn::volume_layers(model, volume);
    const auto part =
        plan.parts[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)];
    const auto need =
        plan.needs[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)];
    const auto weights_span =
        std::span<const cnn::ConvWeights>(weights).subspan(
            static_cast<std::size_t>(volume.first),
            static_cast<std::size_t>(volume.size()));

    if (part.empty()) {
      prev_out = nullptr;
      prev_rows = part;
      continue;
    }

    const auto& first_layer = model.layer(volume.first);
    reshape(crop, need.size(), first_layer.in_w, first_layer.in_c);

    // Assemble phase: local blit + remote chunk waits, one span per volume.
    // std::optional so the span closes before the compute spans open.
    std::optional<obs::SpanScope> assemble;
    if (obs::trace_enabled()) {
      assemble.emplace(obs::Cat::kAssemble, seq, l, ep.epoch);
    }

    // Local contribution from my previous part (never crossed the wire,
    // so it counts toward neither halo bytes nor halo-byte copies).
    if (l > 0 && prev_out != nullptr && !prev_rows.empty()) {
      const auto own = need.intersect(prev_rows);
      if (!own.empty()) {
        blit_rows(*prev_out, prev_rows.begin, own.begin, own.end, crop,
                  need.begin);
      }
    }
    // Remote chunks (may arrive interleaved with later slots).
    int remaining =
        plan.expected[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)];
    if (auto it = state.stash.find({seq, l}); it != state.stash.end()) {
      for (auto& chunk : it->second) {
        // Stashed tags were validated at admission, but a later epoch may
        // have re-mapped this image since; a stale tag here means the
        // requester swapped into already-scattered images.
        if (chunk.view.epoch != ep.epoch) fail_geometry(chunk.view);
        if (!chunk_fits(chunk.view, need, crop.w, crop.c)) {
          fail_geometry(chunk.view);
        }
        blit_chunk(chunk, crop, need.begin, stats);
        --remaining;
      }
      state.stash.erase(it);
    }
    int timeout_rounds = 0;
    while (remaining > 0) {
      RxChunk chunk;
      rpc::ReconfigureMsg rmsg;
      rpc::DispatchMsg dmsg;
      rpc::MembershipMsg mmsg;
      rpc::LaneEvictMsg emsg;
      switch (receive_frame(rx, chunk, &rmsg, &dmsg, &mmsg, &emsg)) {
        case RxKind::kStop:
          return ImageOutcome::kStop;  // shutdown: abandon the image
        case RxKind::kSkip:
          continue;
        case RxKind::kTimeout:
          stats.recv_timeouts.fetch_add(1, std::memory_order_relaxed);
          obs::trace_instant(obs::Cat::kRecvTimeout, seq, l, ep.epoch,
                             timeout_rounds);
          broadcast_nack(transport, plan, seq, l, stats);
          if (++timeout_rounds > reliability.max_recv_timeouts) {
            fail_starved(i, seq, l, timeout_rounds);
          }
          continue;
        case RxKind::kDispatch:
          state.register_dispatch(dmsg, seq);
          continue;
        case RxKind::kMembership:
          if (state.register_membership(mmsg, rx, rtx, seq)) {
            // This image is among the voided: its owner (possibly us, more
            // likely a dead peer's halo half) can never complete it, and
            // the requester already re-dispatched its input under a fresh
            // seq. Abandoning mid-image is safe — nothing of a cancelled
            // image reaches the output (the requester drops its late
            // gather chunks), so partial work cannot corrupt anything.
            obs::trace_instant(obs::Cat::kImageCancel, seq, l, ep.epoch);
            stats.images_cancelled.fetch_add(1, std::memory_order_relaxed);
            return ImageOutcome::kCancelled;
          }
          continue;
        case RxKind::kLaneEvict:
          state.register_eviction(emsg);
          continue;
        case RxKind::kReconfig:
          state.register_epoch(rmsg, lane.stream, seq, l);
          continue;
        case RxKind::kChunk:
          break;
      }
      timeout_rounds = 0;
      if (!state.admit(chunk, lane.stream, seq, l, /*allow_consume=*/true)) {
        continue;
      }
      if (!chunk_fits(chunk.view, need, crop.w, crop.c)) {
        fail_geometry(chunk.view);
      }
      blit_chunk(chunk, crop, need.begin, stats);
      --remaining;
    }

    assemble.reset();  // inputs complete; the rest of the volume is compute

    // Halo-first banded compute: boundary bands land in `out` first and
    // their chunks ship through the sender thread while the interior bands
    // still run — the transport writes overlap the SIMD kernels.
    const auto t0 = std::chrono::steady_clock::now();
    cnn::Tensor& out = out_bufs[cur_buf];
    reshape(out, part.size(), layers.back().out_w(), layers.back().out_c);
    const PartPlan& part_plan =
        state.schedules_for(lane, ep, exec)[static_cast<std::size_t>(l)];
    const PartSchedule& sched = part_plan.schedule;
    std::size_t next_send = 0;
    for (std::size_t b = 0; b < sched.bands.size(); ++b) {
      {
        obs::SpanScope band(obs::Cat::kComputeBand, seq, l, ep.epoch,
                            static_cast<std::int64_t>(b));
        cnn::part_walk_band_into(part_plan.walk, static_cast<int>(b), layers,
                                 crop, need.begin, weights_span, exec, out,
                                 part.begin);
      }
      for (; next_send < sched.sends.size() &&
             sched.sends[next_send].ready_after_band <= static_cast<int>(b);
           ++next_send) {
        const auto& send = sched.sends[next_send];
        const bool gather = l + 1 == n_volumes;
        post_rows(transport, data_addr(send.to),
                  gather ? rpc::MsgType::kGather : rpc::MsgType::kHaloRows,
                  lane.stream, seq, gather ? n_volumes : l + 1, ep.epoch, out,
                  part.begin, send.rows, arena, stats, rtx, &sender);
      }
    }
    prev_out = &out;
    cur_buf ^= 1;
    compute_ms += std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    prev_rows = part;
  }
  return ImageOutcome::kDone;
}

/// Records [from_us, now) as a kAssemble span of image `seq`: the
/// provider's wait for the image's dispatch and lane epoch is input wait
/// like any halo wait, and at a small in-flight window it is most of the
/// provider's idle time.
void record_dispatch_wait(std::int64_t from_us, int seq, int epoch) {
  obs::TraceEvent ev;
  ev.ts_us = from_us;
  ev.dur_us = static_cast<std::int32_t>(
      std::min<std::int64_t>(obs::now_us() - from_us, INT32_MAX));
  ev.cat = static_cast<std::uint16_t>(obs::Cat::kAssemble);
  ev.seq = seq;
  ev.volume = 0;
  ev.epoch = epoch;
  obs::TraceRecorder::instance().record(ev);
}

}  // namespace

void provider_loop_multi(rpc::Transport& transport, int i,
                         std::span<const TenantModel> fleet,
                         DataPlaneStats& stats,
                         const ReliabilityOptions& reliability,
                         const cnn::ExecContext& exec,
                         const TelemetryHooks& telemetry) {
  ChunkDedup dedup;
  RxState rx{transport, reliability, stats, dedup};
  ProviderState state{i, fleet, {}, {}, {}, {}, {}, {}};

  std::unique_ptr<Retransmitter> rtx;
  if (reliability.enabled) {
    rtx = std::make_unique<Retransmitter>(transport, reliability, stats);
  }

  // Lease renewals to the collector, which must be named explicitly.
  DE_REQUIRE(telemetry.heartbeat_ms <= 0 ||
                 telemetry.heartbeat_to != rpc::kNilNode,
             "heartbeats need an explicit collector node");
  Heartbeater heartbeat(transport, telemetry.heartbeat_to,
                        telemetry.heartbeat_ms, telemetry.clock_origin_us,
                        stats);

  // Per-run chunk-path state: recycled frame buffers, the dedicated sender
  // thread, and reusable crop/part tensors — steady-state images allocate
  // nothing on the chunk path.
  rpc::FrameArena arena;
  ChunkSender sender(transport);
  cnn::Tensor crop_buf;
  cnn::Tensor out_bufs[2];
  int cur_buf = 0;

  // The loop returns from several places (shutdown arrives in the middle of
  // an image); the sender must drain and the arena's allocation count must
  // fold into the shared stats on every path.
  struct Cleanup {
    ChunkSender& sender;
    rpc::FrameArena& arena;
    DataPlaneStats& stats;
    ~Cleanup() {
      sender.drain();
      stats.frame_allocs.fetch_add(arena.stats().allocated,
                                   std::memory_order_relaxed);
    }
  } cleanup{sender, arena, stats};

  auto window_start = std::chrono::steady_clock::now();
  double window_compute_ms = 0;
  int window_images = 0;

  int seq = 0;  // global fleet sequence, interleaved across streams
  std::int64_t wait_from_us = -1;  // traced: when the wait for seq began
  for (;;) {
    // Retire history nothing before `seq` can reference again: finished
    // dispatch records and every lane's superseded epochs + schedules.
    state.owners.erase(state.owners.begin(), state.owners.lower_bound(seq));
    state.sweep_evictions(seq, stats);
    for (auto& [id, l] : state.lanes) {
      l.epochs.retire(seq);
      l.schedules.erase(l.schedules.begin(),
                        l.schedules.lower_bound(l.epochs.oldest()));
    }

    // Resolve which stream owns `seq`. Until its dispatch (and the lane
    // epoch it names) has been announced, block on the mailbox — the
    // requester tracks both announcements, so they arrive or the stream
    // ends.
    const auto own = state.owners.find(seq);
    StreamLane* lane =
        own == state.owners.end() ? nullptr : state.lane_for(own->second.stream);
    if (lane == nullptr || !lane->epochs.knows(own->second.epoch)) {
      if (wait_from_us < 0 && obs::trace_enabled()) wait_from_us = obs::now_us();
      RxChunk chunk;
      rpc::ReconfigureMsg rmsg;
      rpc::DispatchMsg dmsg;
      rpc::MembershipMsg mmsg;
      rpc::LaneEvictMsg emsg;
      switch (receive_frame(rx, chunk, &rmsg, &dmsg, &mmsg, &emsg)) {
        case RxKind::kStop:
          return;
        case RxKind::kSkip:
        case RxKind::kTimeout:
          // Waiting for a dispatch is idle time, not starvation.
          continue;
        case RxKind::kReconfig:
          state.register_epoch(rmsg, /*cur_stream=*/-1, seq, 0);
          continue;
        case RxKind::kDispatch:
          state.register_dispatch(dmsg, seq);
          continue;
        case RxKind::kMembership:
          state.register_membership(mmsg, rx, rtx.get(), seq);
          seq = std::max(seq, state.cancel_floor);
          continue;
        case RxKind::kLaneEvict:
          state.register_eviction(emsg);
          continue;
        case RxKind::kChunk:
          state.admit(chunk, /*cur_stream=*/-1, seq, 0,
                      /*allow_consume=*/false);
          continue;
      }
      continue;
    }

    const EpochPlan& ep = lane->epochs.at(seq);
    DE_REQUIRE(ep.epoch == own->second.epoch,
               "dispatch epoch disagrees with the announced lane history");
    if (!ep.plan.device_active(i)) {
      // Inactive for this image under its owner's plan; the dispatch
      // record is what lets us skip it without waiting for chunks.
      ++seq;
      wait_from_us = -1;
      continue;
    }
    if (wait_from_us >= 0) {
      record_dispatch_wait(wait_from_us, seq, ep.epoch);
      wait_from_us = -1;
    }

    double compute_ms = 0;
    switch (process_image(state, rx, transport, *lane, seq, stats,
                          reliability, exec, arena, sender, rtx.get(),
                          crop_buf, out_bufs, cur_buf, compute_ms)) {
      case ImageOutcome::kStop:
        return;
      case ImageOutcome::kCancelled:
        seq = state.cancel_floor;  // voided: resume at the re-dispatch point
        continue;
      case ImageOutcome::kDone:
        break;
    }
    window_compute_ms += compute_ms;
    ++window_images;
    ++seq;

    if (telemetry.every_images > 0 &&
        window_images >= telemetry.every_images) {
      const auto now = std::chrono::steady_clock::now();
      rpc::TelemetryMsg report;
      report.from_node = i;
      report.window_s =
          std::chrono::duration_cast<std::chrono::duration<double>>(
              now - window_start)
              .count();
      report.compute_ms = window_compute_ms / window_images;
      report.images = window_images;
      if (telemetry.links != nullptr) {
        report.links = telemetry.links->sample_link_rates();
      }
      // Node-local steady clock: lets the collector estimate this node's
      // clock offset when merging traces (src/obs/trace_export.hpp).
      report.steady_now_us = obs::now_us() - telemetry.clock_origin_us;
      obs::trace_instant(obs::Cat::kTelemetryPub, seq, -1, -1, window_images);
      rpc::Frame frame(rpc::encode_telemetry(report));
      stats.wire_bytes.fetch_add(static_cast<Bytes>(frame.size()),
                                 std::memory_order_relaxed);
      // Fire-and-forget: a lost report just widens the next window. The
      // requester node id is plan-invariant (device count is fixed for the
      // life of the fleet), so any lane's current plan works here.
      transport.send(
          rpc::Address{ep.plan.requester_node(), rpc::kTelemetryMailbox},
          std::move(frame));
      window_start = now;
      window_compute_ms = 0;
      window_images = 0;
    }
  }
}

int push_stream_epoch(RequesterContext& ctx, int stream, int model_id,
                      const cnn::CnnModel& model,
                      const sim::RawStrategy& strategy, int from_seq) {
  DE_REQUIRE(model_id >= 0, "tenant model ids are non-negative");
  EpochPlan next;
  next.epoch = ctx.next_epoch++;  // global allocation: lanes never share ids
  next.from_seq = from_seq;
  next.strategy = strategy;
  next.plan = build_transfer_plan(model, strategy, ctx.n_devices);
  rpc::ReconfigureMsg msg = reconfigure_from_epoch(next);
  msg.stream = stream;
  msg.model_id = model_id;
  const int epoch = next.epoch;
  obs::trace_instant(obs::Cat::kEpochPush, from_seq, -1, epoch);
  if (auto it = ctx.lanes.find(stream); it != ctx.lanes.end()) {
    it->second.add(std::move(next));
  } else {
    ctx.lanes.emplace(stream, EpochTable(std::move(next)));
  }
  for (int k = 0; k < ctx.n_devices; ++k) {
    post_tracked(ctx.transport, data_addr(k), msg, rpc::encode_reconfigure,
                 ctx.stats, ctx.rtx);
  }
  return epoch;
}

void retire_below(RequesterContext& ctx, int watermark) {
  for (auto& [stream, lane] : ctx.lanes) lane.retire(watermark);
  ctx.owner.erase(ctx.owner.begin(), ctx.owner.lower_bound(watermark));
}

void post_membership(RequesterContext& ctx, rpc::NodeId to,
                     rpc::MembershipMsg msg) {
  post_tracked(ctx.transport, data_addr(to), std::move(msg),
               rpc::encode_membership, ctx.stats, ctx.rtx);
}

void post_lane_evict(RequesterContext& ctx, rpc::NodeId to,
                     rpc::LaneEvictMsg msg) {
  post_tracked(ctx.transport, data_addr(to), msg, rpc::encode_lane_evict,
               ctx.stats, ctx.rtx);
}

std::size_t apply_membership_local(RequesterContext& ctx,
                                   const rpc::MembershipMsg& msg) {
  std::size_t cancelled = 0;
  if (ctx.rtx != nullptr) {
    for (const auto node : msg.died) cancelled += ctx.rtx->cancel_to(node);
  }
  for (const auto& join : msg.joined) {
    ctx.dedup.assume(join.node, join.id_base);
  }
  if (msg.cancel_below > ctx.cancel_below) {
    ctx.cancel_below = msg.cancel_below;
    // Stashed gather chunks of voided images: partial output of a regime
    // that can never complete. Dropping them here frees the frames now
    // instead of at end of stream.
    ctx.stash.erase(ctx.stash.begin(),
                    ctx.stash.lower_bound(ctx.cancel_below));
  }
  return cancelled;
}

void scatter_image(RequesterContext& ctx, int stream, int seq,
                   const cnn::Tensor& input) {
  const auto lane = ctx.lanes.find(stream);
  DE_REQUIRE(lane != ctx.lanes.end(),
             "dispatch for a stream with no epoch lane");
  const EpochPlan& ep = lane->second.at(seq);
  DE_REQUIRE(ctx.owner.emplace(seq, stream).second,
             "global seq already dispatched");
  const rpc::DispatchMsg dispatch{rpc::kNilNode, 0, stream, seq, ep.epoch};
  for (int k = 0; k < ctx.n_devices; ++k) {
    post_tracked(ctx.transport, data_addr(k), dispatch, rpc::encode_dispatch,
                 ctx.stats, ctx.rtx);
  }
  obs::SpanScope span(obs::Cat::kScatter, seq, 0, ep.epoch);
  for (int i = 0; i < ep.plan.n_devices; ++i) {
    const auto& need = ep.plan.needs[0][static_cast<std::size_t>(i)];
    if (need.empty()) continue;
    // The scatter rows encode straight out of the caller's input tensor;
    // no sliced temporary, and the frame buffer is recycled per image.
    post_rows(ctx.transport, data_addr(i), rpc::MsgType::kScatter, stream,
              seq, 0, ep.epoch, input, 0, need, ctx.arena, ctx.stats, ctx.rtx,
              /*sender=*/nullptr);
  }
}

GatherStatus gather_image(RequesterContext& ctx, int seq,
                          const cnn::CnnModel& model, cnn::Tensor& output) {
  const auto& last_layer = model.layer(model.num_layers() - 1);
  output = cnn::Tensor(last_layer.out_h(), last_layer.out_w(), last_layer.out_c);

  const cnn::RowInterval bounds{0, output.h};
  // The requester knows every epoch (it creates them), so a gather chunk's
  // tag must match the epoch serving its image exactly, and its stream tag
  // must match the image's dispatched owner (owner records exist exactly
  // for the dispatched-not-yet-retired window, so their lanes always cover
  // the seq).
  const auto epoch_ok = [&ctx](const rpc::ChunkView& v) {
    const auto o = ctx.owner.find(v.seq);
    if (o == ctx.owner.end() || o->second != v.stream) return false;
    const auto l = ctx.lanes.find(v.stream);
    return l != ctx.lanes.end() && v.epoch <= l->second.latest() &&
           l->second.at(v.seq).epoch == v.epoch;
  };
  // Row-coverage accounting: the holders' parts partition the output and
  // each part arrives as one or more disjoint bands, so the gather is done
  // exactly when `output.h` fresh rows landed — independent of how many
  // chunks the senders cut them into.
  int remaining_rows = output.h;
  if (auto it = ctx.stash.find(seq); it != ctx.stash.end()) {
    for (auto& chunk : it->second) {
      // Runs on the requester thread with provider threads live, so a
      // geometry mismatch reports failure instead of throwing past them.
      if (!epoch_ok(chunk.view)) return GatherStatus::kFailed;
      if (!chunk_fits(chunk.view, bounds, output.w, output.c)) {
        return GatherStatus::kFailed;
      }
      blit_chunk(chunk, output, 0, ctx.stats);
      remaining_rows -= chunk.view.h;
    }
    ctx.stash.erase(it);
  }
  RxState rx{ctx.transport, ctx.reliability, ctx.stats, ctx.dedup};
  const EpochPlan& ep = ctx.lanes.at(ctx.owner.at(seq)).at(seq);
  obs::SpanScope span(obs::Cat::kGather, seq, -1, ep.epoch);
  int timeout_rounds = 0;
  while (remaining_rows > 0) {
    const bool resumable = remaining_rows == output.h;
    if (ctx.interrupt && ctx.interrupt(resumable)) {
      if (resumable) span.cancel();  // the retry records the whole gather
      return GatherStatus::kInterrupted;
    }
    RxChunk chunk;
    switch (receive_frame(rx, chunk)) {
      case RxKind::kStop:
        return GatherStatus::kFailed;
      case RxKind::kSkip:
      case RxKind::kReconfig:    // unreachable: announcement ptrs not passed
      case RxKind::kDispatch:
      case RxKind::kMembership:
      case RxKind::kLaneEvict:
        continue;
      case RxKind::kTimeout:
        ctx.stats.recv_timeouts.fetch_add(1, std::memory_order_relaxed);
        obs::trace_instant(obs::Cat::kRecvTimeout, seq, -1, ep.epoch,
                           timeout_rounds);
        broadcast_nack(ctx.transport, ep.plan, seq, ep.plan.num_volumes(),
                       ctx.stats);
        if (++timeout_rounds > ctx.reliability.max_recv_timeouts) {
          return GatherStatus::kFailed;
        }
        continue;
      case RxKind::kChunk:
        break;
    }
    timeout_rounds = 0;
    const auto& v = chunk.view;
    if (v.seq < ctx.cancel_below) {
      // Late output of a voided image: its input was re-dispatched under a
      // fresh seq, so this band is duplicate work to drop, not an error.
      obs::trace_instant(obs::Cat::kImageCancel, v.seq, v.volume, v.epoch);
      continue;
    }
    // Same stash-growth bound as the provider side: a gather for a past
    // image is a duplicate, one absurdly far ahead is off-plan.
    if (v.seq < seq || v.seq - seq > kMaxImagesAhead) {
      return GatherStatus::kFailed;
    }
    if (!epoch_ok(v)) return GatherStatus::kFailed;
    if (v.seq != seq) {
      ctx.stash[v.seq].push_back(std::move(chunk));
      continue;
    }
    if (!chunk_fits(v, bounds, output.w, output.c)) {
      return GatherStatus::kFailed;
    }
    blit_chunk(chunk, output, 0, ctx.stats);
    remaining_rows -= v.h;
  }
  return GatherStatus::kOk;
}

}  // namespace de::runtime
