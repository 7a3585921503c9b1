// Transport-facing event loops of the cluster data plane (paper §V-A):
// the provider worker (split-compute + halo redistribution) and the
// requester's scatter/gather halves. All chunk traffic is wire-encoded, so
// the same loops run unchanged over shared memory or TCP.
//
// Two data-plane variants share these loops (DataPlaneMode):
//  * kOverlapZeroCopy (default) — chunks are encoded straight out of the
//    source tensor into arena-recycled frames and blitted straight out of
//    the received frame bytes (<= 2 userspace copies per halo byte), and
//    each part computes under the halo-first band schedule: boundary rows
//    first, halos posted from a dedicated sender thread while the interior
//    still computes, final-volume output streamed to the requester band by
//    band.
//  * kSerialCopy — the PR-3 path (whole-part compute, slice/encode/decode/
//    blit copies, sends from the compute thread), kept as the in-run A/B
//    baseline for bench/runtime_stream and the bit-exactness conformance
//    tests. Both variants produce bit-identical outputs: bands are row
//    partitions of the same plan and the engine is order-exact per pixel.
//
// With ReliabilityOptions::enabled the loops speak the wire-v2 reliability
// protocol (DESIGN.md §fault-model): every chunk is tracked by a
// Retransmitter until acked, receivers dedup and ack, data waits are
// bounded by recv_timeout_ms with nack rounds in between, and a starved
// wait fails loudly after max_recv_timeouts rounds instead of hanging.
//
// Both loops are *epoch-aware* (DESIGN.md §control-plane): the strategy a
// stream starts with is only epoch 0. A kReconfigure frame announces
// "epoch E serves images from_seq onward"; every chunk carries its image's
// epoch tag, a provider that meets a tag it does not know yet parks the
// chunk and waits for the announcement (it is already in flight on the same
// mailbox), and images of the old epoch complete under the old plan while
// the new epoch's images are already being scattered — a live, drain-free,
// bit-exact cutover.
#pragma once

#include <functional>
#include <map>
#include <span>
#include <vector>

#include "cnn/exec_engine.hpp"
#include "rpc/frame.hpp"
#include "rpc/shaped_transport.hpp"
#include "rpc/transport.hpp"
#include "rpc/wire.hpp"
#include "runtime/epoch.hpp"
#include "runtime/reliable.hpp"
#include "runtime/transfer_plan.hpp"

namespace de::runtime {

/// Which chunk path the workers run (see file header).
enum class DataPlaneMode {
  kSerialCopy,      ///< PR-3 baseline: barrier schedule, copying chunk path
  kOverlapZeroCopy, ///< halo-first bands + zero-copy frames (default)
};

/// A received chunk: the owning frame plus the validated borrowed view into
/// it (frame buffers are address-stable, so the pair may be moved/stashed).
struct RxChunk {
  rpc::Frame frame;
  rpc::ChunkView view;
};

/// The data-plane address of a cluster node.
inline rpc::Address data_addr(rpc::NodeId node) {
  return rpc::Address{node, rpc::kDataMailbox};
}

/// The control address (acks/nacks) of a cluster node.
inline rpc::Address ctrl_addr(rpc::NodeId node) {
  return rpc::Address{node, rpc::kCtrlMailbox};
}

/// Encodes and posts a chunk, updating `stats`. With `rtx` set the chunk is
/// stamped (from_node, chunk_id) and tracked for retransmission until acked.
void post_chunk(rpc::Transport& transport, const rpc::Address& to,
                rpc::ChunkMsg msg, DataPlaneStats& stats,
                Retransmitter* rtx = nullptr);

/// Encodes and posts an epoch announcement, updating `stats`. With `rtx`
/// set the frame is stamped and tracked exactly like a tensor chunk (the
/// receiver acks it on the same path), so a reconfigure survives the same
/// faults the data it gates does.
void post_reconfigure(rpc::Transport& transport, const rpc::Address& to,
                      rpc::ReconfigureMsg msg, DataPlaneStats& stats,
                      Retransmitter* rtx = nullptr);

/// Control-plane publishing knobs of one provider (all off by default).
struct TelemetryHooks {
  /// Per-link achieved-rate source (the node's ShapedTransport decorator);
  /// may be null — telemetry then reports compute times only.
  rpc::LinkRateSampler* links = nullptr;
  /// Publish a kTelemetry frame to the requester's telemetry mailbox every
  /// this many finished images (0 = never).
  int every_images = 0;
  /// This node's clock origin (process-steady micros at node creation).
  /// Telemetry reports carry `obs::now_us() - clock_origin_us` as the
  /// node-local steady clock (wire v4), feeding the trace-merge clock-offset
  /// estimation (src/obs/trace_export.hpp).
  std::int64_t clock_origin_us = 0;
  /// Publish a kHeartbeat lease renewal to `heartbeat_to`'s telemetry
  /// mailbox every this many milliseconds (0 = never). Heartbeats run on a
  /// small dedicated thread so they keep flowing while the loop blocks in a
  /// receive or a long compute — a busy node is not a dead node.
  int heartbeat_ms = 0;
  /// Destination of the heartbeats (the collector node). kNilNode on the
  /// single-tenant loop means "derive from the plan's requester node"; the
  /// multi-tenant loop has no plan of its own, so it must be set explicitly
  /// whenever heartbeat_ms > 0.
  rpc::NodeId heartbeat_to = rpc::kNilNode;
};

/// Provider event loop for device `i`: executes its split-parts image after
/// image, pulling inputs from the data mailbox and pushing halos/gathers.
/// Processes exactly `n_images` images when n_images >= 0; with
/// n_images < 0 it serves until a kShutdown frame arrives or the transport
/// shuts down. Malformed frames are dropped. With reliability enabled the
/// provider owns a Retransmitter and, after a finite run, drains its outbox
/// (bounded by the attempt budget) before returning, so late acks/losses on
/// its last chunks are still recovered. In kOverlapZeroCopy mode the
/// provider additionally owns a frame arena, a ChunkSender thread, and the
/// per-volume halo-first schedules (built once per epoch).
///
/// `strategy`/`plan` seed epoch 0; kReconfigure frames append later epochs
/// at image boundaries. A device idle under the current epoch keeps
/// listening (a later epoch may activate it) instead of returning. `exec`
/// defaults to the fast engine on the shared pool, as RunOptions and
/// ServeOptions do; pass cnn::ExecContext::reference() for the scalar path.
void provider_loop(rpc::Transport& transport, int i, const cnn::CnnModel& model,
                   const sim::RawStrategy& strategy,
                   const std::vector<cnn::ConvWeights>& weights,
                   const TransferPlan& plan, int n_images,
                   DataPlaneStats& stats,
                   const ReliabilityOptions& reliability = {},
                   const cnn::ExecContext& exec =
                       cnn::ExecContext::fast_shared(),
                   DataPlaneMode mode = DataPlaneMode::kOverlapZeroCopy,
                   const TelemetryHooks& telemetry = {});

/// One model a multi-tenant provider can serve (not owned; must outlive the
/// provider threads). A reconfigure's `model_id` indexes this registry.
struct TenantModel {
  const cnn::CnnModel* model = nullptr;
  const std::vector<cnn::ConvWeights>* weights = nullptr;
};

/// Multi-tenant provider event loop (DESIGN.md §serving-front-door): serves
/// any number of concurrent client streams, each with its own epoch lane.
/// The loop starts with no lanes at all — a kReconfigure tagged with a
/// (stream, model_id) pair creates the lane against `fleet[model_id]` — and
/// processes images in *global* fleet sequence order: a kDispatch frame
/// announces which stream owns each global seq (sent by the front door
/// before that image's scatter), the provider resolves the owner's lane and
/// runs the image under it, and chunks of later seqs stash exactly like the
/// single-tenant loop. Always streaming: runs until kShutdown or transport
/// close. Weight packing is cached per tenant model, so interleaved streams
/// of different models pay the packing cost once each, not per image.
void provider_loop_multi(rpc::Transport& transport, int i,
                         std::span<const TenantModel> fleet,
                         DataPlaneStats& stats,
                         const ReliabilityOptions& reliability = {},
                         const cnn::ExecContext& exec =
                             cnn::ExecContext::fast_shared(),
                         DataPlaneMode mode = DataPlaneMode::kOverlapZeroCopy,
                         const TelemetryHooks& telemetry = {});

/// Per-image reliability events observed by the requester while gathering.
struct ImageRetryStats {
  /// Bounded data waits that expired; each expiry also broadcast one nack
  /// round to the providers.
  std::int64_t recv_timeouts = 0;
};

/// Requester-side state reused across the images of one run or stream. The
/// plan passed at construction seeds epoch 0; push_epoch() appends later
/// regimes (and announces them to every provider). The multi-tenant
/// constructor instead starts with no epoch lanes at all — the front door
/// opens one per admitted stream with push_stream_epoch(), and every global
/// fleet seq is bound to its owning stream by dispatch_image() before that
/// image's scatter.
struct RequesterContext {
  RequesterContext(rpc::Transport& transport_, const TransferPlan& plan_,
                   DataPlaneStats& stats_, ReliabilityOptions reliability_ = {},
                   DataPlaneMode mode_ = DataPlaneMode::kOverlapZeroCopy)
      : transport(transport_),
        epochs(EpochPlan{0, 0, {}, plan_}),
        stats(stats_),
        reliability(reliability_), mode(mode_),
        n_devices(plan_.n_devices) {}

  /// Multi-tenant front-door context over `n_devices_` shared providers.
  /// The legacy single-lane `epochs` table is unused in this mode.
  RequesterContext(rpc::Transport& transport_, int n_devices_,
                   DataPlaneStats& stats_, ReliabilityOptions reliability_ = {},
                   DataPlaneMode mode_ = DataPlaneMode::kOverlapZeroCopy)
      : transport(transport_),
        epochs(EpochPlan{}),
        stats(stats_),
        reliability(reliability_), mode(mode_),
        multi(true), n_devices(n_devices_) {}

  rpc::Transport& transport;
  EpochTable epochs;
  DataPlaneStats& stats;
  ReliabilityOptions reliability;
  DataPlaneMode mode;
  bool multi = false;    ///< multi-tenant mode: lanes/owner, not `epochs`
  int n_devices = 0;
  Retransmitter* rtx = nullptr;  ///< set by the run owner when reliable
  ChunkDedup dedup;
  /// Scatter frames are encoded straight from the input tensor into these
  /// recycled buffers (kOverlapZeroCopy).
  rpc::FrameArena arena;
  /// Gather chunks of images not yet collected, keyed by seq.
  std::map<int, std::vector<RxChunk>> stash;
  /// Multi-tenant mode: one epoch lane per admitted stream, and the global
  /// seq -> owning stream binding established by dispatch_image().
  std::map<int, EpochTable> lanes;
  std::map<int, int> owner;
  /// Epoch ids are allocated globally across lanes, so each lane's history
  /// stays id-monotone and two lanes never share an id. Starts at 1: epoch
  /// 0 is the legacy implicit seed and the wire codec rejects it in a
  /// kReconfigure announcement.
  int next_epoch = 1;
  /// Images below this global seq were voided by a membership change (their
  /// inputs re-dispatched under fresh seqs): their late gather chunks are
  /// silently dropped instead of failing the stream.
  int cancel_below = 0;
  /// Polled during bounded gather waits (may be empty). Returning true
  /// interrupts the gather with GatherStatus::kInterrupted so the owner can
  /// run membership recovery instead of burning the starvation budget on
  /// chunks a dead device will never send.
  std::function<bool()> interrupt;
};

/// Live strategy swap: registers `strategy` as the next epoch, effective
/// from image `from_seq` (which must not have been scattered yet), and
/// posts the kReconfigure announcement to every provider — *before* any
/// epoch-tagged traffic of the new regime, so per-sender FIFO (or, under
/// faults, retransmission + the receivers' park-unknown-epochs rule) makes
/// the cutover race-free. Returns the new epoch id.
int push_epoch(RequesterContext& ctx, const cnn::CnnModel& model,
               const sim::RawStrategy& strategy, int from_seq);

/// Multi-tenant half of push_epoch: registers `strategy` as stream
/// `stream`'s next epoch (creating the stream's lane on first call) and
/// announces it to every provider tagged with (stream, model_id), so
/// providers bind the lane to `fleet[model_id]`. `from_seq` is the *global*
/// fleet seq the epoch takes effect at — it must not have been dispatched
/// yet. Swapping one stream never touches any other stream's lane. Returns
/// the new (globally allocated) epoch id.
int push_stream_epoch(RequesterContext& ctx, int stream, int model_id,
                      const cnn::CnnModel& model,
                      const sim::RawStrategy& strategy, int from_seq);

/// Multi-tenant: binds global fleet seq `seq` to `stream` and broadcasts
/// the kDispatch announcement to every provider. Must precede the image's
/// scatter_image call (per-sender FIFO, or tracked retransmission under
/// faults, then guarantees providers learn the owner before they need it).
void dispatch_image(RequesterContext& ctx, int stream, int seq);

/// Drops history no ungathered image references: the epoch table (each
/// lane's, in multi mode) and the seq->stream dispatch records below
/// `watermark`.
void retire_below(RequesterContext& ctx, int watermark);

/// Announces a membership change to provider `to`, tracked for
/// retransmission like a reconfigure when ctx.rtx is set. Callers send it to
/// every *surviving* provider (a dead node's copy would only churn the
/// retransmit budget) before the recovery epoch's kReconfigure — per-sender
/// FIFO then guarantees providers void the cancelled images before any
/// re-dispatched traffic of the new regime arrives.
void post_membership(RequesterContext& ctx, rpc::NodeId to,
                     rpc::MembershipMsg msg);

/// Announces that stream `msg.stream` is closed and drained below
/// `msg.below_seq`: multi-tenant providers evict the stream's epoch lane
/// once their cursor passes the watermark. Tracked like a reconfigure.
void post_lane_evict(RequesterContext& ctx, rpc::NodeId to,
                     rpc::LaneEvictMsg msg);

/// Applies a membership change to the requester's own reliability state:
/// cancels pending retransmissions to the dead nodes (fast-fail — their
/// budget is released immediately), fast-forwards the dedup window for each
/// joiner's new chunk-id incarnation, raises `cancel_below`, and drops
/// stashed gather chunks of the voided images. Returns the number of
/// retransmission entries cancelled (also counted in stats.retx_cancelled).
std::size_t apply_membership_local(RequesterContext& ctx,
                                   const rpc::MembershipMsg& msg);

/// Requester half: scatters image `seq`'s volume-0 inputs to the providers
/// under the epoch serving `seq`.
void scatter_image(RequesterContext& ctx, int seq, const cnn::Tensor& input);

/// How a gather ended (see gather_image).
enum class GatherStatus {
  kOk,           ///< output complete (and bit-exact by construction)
  kFailed,       ///< transport shut down, geometry breach, or starved out
  kInterrupted,  ///< ctx.interrupt() asked the owner to intervene
};

/// Requester half: collects the holders' kGather chunks of image `seq` into
/// `output` (sized from `model`). Completion is counted by output-row
/// coverage, so one whole-part chunk per holder (serial mode) and streamed
/// gather bands (overlap mode) both finish exactly when every row arrived.
/// Chunks of other images park in the context's stash; chunks of images
/// below ctx.cancel_below are dropped (late output of a voided image).
/// Returns kFailed if the transport shut down mid-gather, a peer sent
/// plan-mismatched chunks, or (reliable mode) the gather starved past the
/// timeout budget; kInterrupted when ctx.interrupt() reports pending
/// membership work (the image stays gatherable — call again or cancel it).
/// `retry`, when given, receives this image's timeout/nack counts.
GatherStatus gather_image(RequesterContext& ctx, int seq,
                          const cnn::CnnModel& model, cnn::Tensor& output,
                          ImageRetryStats* retry = nullptr);

}  // namespace de::runtime
