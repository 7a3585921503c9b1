// Transport-facing event loops of the cluster data plane (paper §V-A):
// the provider worker (split-compute + halo redistribution) and the
// requester's scatter/gather halves. All chunk traffic is wire-encoded, so
// the same loops run unchanged over shared memory or TCP.
//
// There is one provider loop and one chunk path. Chunks are encoded
// straight out of the source tensor into arena-recycled frames and blitted
// straight out of the received frame bytes (<= 2 userspace copies per halo
// byte), and each part computes under the halo-first band schedule:
// boundary rows first, halos posted from a dedicated sender thread while
// the interior still computes, final-volume output streamed to the
// requester band by band. Bands are row partitions of the plan and the
// engine is order-exact per pixel, so every output is bit-identical to the
// single-device reference.
//
// With ReliabilityOptions::enabled the loops speak the wire reliability
// protocol (DESIGN.md §fault-model): every chunk is tracked by a
// Retransmitter until acked, receivers dedup and ack, data waits are
// bounded by recv_timeout_ms with nack rounds in between, and a starved
// wait fails loudly after max_recv_timeouts rounds instead of hanging.
//
// The loop is stream- and epoch-aware (DESIGN.md §control-plane,
// §serving-front-door): each client stream has its own epoch lane, opened
// by the stream's first kReconfigure ("epoch E serves images from global
// seq from_seq onward") and extended by later ones at image boundaries. A
// kDispatch frame binds each global seq to its stream and epoch before the
// image's scatter. Every chunk carries its image's epoch tag; a provider
// that meets a tag it does not know yet parks the chunk and waits for the
// announcement (it is already in flight on the same mailbox), and images of
// the old epoch complete under the old plan while the new epoch's images
// are already being scattered — a live, drain-free, bit-exact cutover. The
// requester half's one owner is the serve::StreamServer pump; a
// single-tenant stream (serve_stream) and a finite run (run_distributed)
// are one lane of a one-stream door on this loop.
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
  /// node-local steady clock, feeding the trace-merge clock-offset
  /// estimation (src/obs/trace_export.hpp).
  std::int64_t clock_origin_us = 0;
  /// Publish a kHeartbeat lease renewal to `heartbeat_to`'s telemetry
  /// mailbox every this many milliseconds (0 = never). Heartbeats run on a
  /// small dedicated thread so they keep flowing while the loop blocks in a
  /// receive or a long compute — a busy node is not a dead node.
  int heartbeat_ms = 0;
  /// Destination of the heartbeats (the collector node). The loop has no
  /// plan of its own to derive it from, so it must be set whenever
  /// heartbeat_ms > 0.
  rpc::NodeId heartbeat_to = rpc::kNilNode;
};

/// One model a provider can serve (not owned; must outlive the provider
/// threads). A reconfigure's `model_id` indexes this registry.
struct TenantModel {
  const cnn::CnnModel* model = nullptr;
  const std::vector<cnn::ConvWeights>* weights = nullptr;
};

/// Provider event loop for device `i` (DESIGN.md §serving-front-door):
/// serves any number of concurrent client streams, each with its own epoch
/// lane. The loop starts with no lanes at all — a kReconfigure tagged with a
/// (stream, model_id) pair creates the lane against `fleet[model_id]` — and
/// processes images in *global* fleet sequence order: a kDispatch frame
/// announces which stream owns each global seq (sent by the requester
/// before that image's scatter), the provider resolves the owner's lane and
/// runs the image under it, and chunks of later seqs stash until their
/// turn. A device idle under an image's plan skips it on the dispatch
/// record alone. Runs until kShutdown or transport close; malformed frames
/// are dropped. The provider owns a frame arena, a ChunkSender thread, the
/// per-volume halo-first schedules (built once per epoch) and, with
/// reliability enabled, a Retransmitter. Weight packing is cached per
/// tenant model, so interleaved streams of different models pay the packing
/// cost once each, not per image. `exec` defaults to the fast engine on the
/// shared pool; pass cnn::ExecContext::reference() for the scalar path.
void provider_loop_multi(rpc::Transport& transport, int i,
                         std::span<const TenantModel> fleet,
                         DataPlaneStats& stats,
                         const ReliabilityOptions& reliability = {},
                         const cnn::ExecContext& exec =
                             cnn::ExecContext::fast_shared(),
                         const TelemetryHooks& telemetry = {});

/// Requester-side state reused across the images of one run or stream,
/// over `n_devices` shared providers. It starts with no epoch lanes: the
/// owner opens one per stream with push_stream_epoch(), and scatter_image()
/// binds every global fleet seq to its owning stream.
struct RequesterContext {
  RequesterContext(rpc::Transport& transport_, int n_devices_,
                   DataPlaneStats& stats_, ReliabilityOptions reliability_ = {})
      : transport(transport_),
        stats(stats_),
        reliability(reliability_),
        n_devices(n_devices_) {}

  rpc::Transport& transport;
  DataPlaneStats& stats;
  ReliabilityOptions reliability;
  int n_devices = 0;
  Retransmitter* rtx = nullptr;  ///< set by the run owner when reliable
  ChunkDedup dedup;
  /// Scatter frames are encoded straight from the input tensor into these
  /// recycled buffers.
  rpc::FrameArena arena;
  /// Gather chunks of images not yet collected, keyed by seq.
  std::map<int, std::vector<RxChunk>> stash;
  /// One epoch lane per stream, and the global seq -> owning stream binding
  /// established by scatter_image().
  std::map<int, EpochTable> lanes;
  std::map<int, int> owner;
  /// Epoch ids are allocated globally across lanes, so each lane's history
  /// stays id-monotone and two lanes never share an id. Starts at 1: the
  /// wire codec rejects epoch 0 in a kReconfigure announcement.
  int next_epoch = 1;
  /// Images below this global seq were voided by a membership change (their
  /// inputs re-dispatched under fresh seqs): their late gather chunks are
  /// silently dropped instead of failing the stream.
  int cancel_below = 0;
  /// Polled between the receives of a gather (may be empty). Returning
  /// true interrupts it with GatherStatus::kInterrupted so the owner can run
  /// membership recovery instead of burning the starvation budget on chunks
  /// a dead device will never send, or — while `resumable`, i.e. nothing of
  /// the image was consumed yet, so it stays gatherable in full — dispatch
  /// newly arrived work first.
  std::function<bool(bool resumable)> interrupt;
};

/// Registers `strategy` as stream `stream`'s next epoch (creating the
/// stream's lane on first call) and announces it to every provider — the
/// idle ones too, since an epoch may activate a device the previous one
/// never used — tagged with (stream, model_id), so providers bind the lane
/// to `fleet[model_id]`. The announcement goes out *before* any traffic of
/// the new regime, so per-sender FIFO (or, under faults, retransmission +
/// the receivers' park-unknown-epochs rule) makes the cutover race-free.
/// `from_seq` is the *global* fleet seq the epoch takes effect at — it must
/// not have been scattered yet. Swapping one stream never touches any other
/// stream's lane. Returns the new (globally allocated) epoch id.
int push_stream_epoch(RequesterContext& ctx, int stream, int model_id,
                      const cnn::CnnModel& model,
                      const sim::RawStrategy& strategy, int from_seq);

/// Drops history no ungathered image references: each lane's superseded
/// epochs and the seq->stream dispatch records below `watermark`.
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
/// `msg.below_seq`: providers evict the stream's epoch lane once their
/// cursor passes the watermark. Tracked like a reconfigure.
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

/// Requester half: binds global fleet seq `seq` to `stream` and broadcasts
/// the kDispatch announcement to every provider, then scatters the image's
/// volume-0 inputs under the stream's epoch serving `seq`. The dispatch
/// precedes the scatter on every link, so per-sender FIFO (or tracked
/// retransmission under faults) lets providers learn the owner before they
/// need it.
void scatter_image(RequesterContext& ctx, int stream, int seq,
                   const cnn::Tensor& input);

/// How a gather ended (see gather_image).
enum class GatherStatus {
  kOk,           ///< output complete (and bit-exact by construction)
  kFailed,       ///< transport shut down, geometry breach, or starved out
  kInterrupted,  ///< ctx.interrupt() asked the owner to intervene
};

/// Requester half: collects the holders' kGather chunks of image `seq` into
/// `output` (sized from `model`). Completion is counted by output-row
/// coverage, so the gather finishes exactly when every row arrived however
/// many bands the holders cut their parts into. Chunks of other images park
/// in the context's stash; chunks of images below ctx.cancel_below are
/// dropped (late output of a voided image). Returns kFailed if the
/// transport shut down mid-gather, a peer sent plan-mismatched chunks, or
/// (reliable mode) the gather starved past the timeout budget; kInterrupted
/// when ctx.interrupt() asks for it (a resumable interrupt leaves the image
/// gatherable — call again; otherwise cancel it). Each expired wait counts
/// in stats.recv_timeouts and leaves a kRecvTimeout trace instant for
/// `seq`.
GatherStatus gather_image(RequesterContext& ctx, int seq,
                          const cnn::CnnModel& model, cnn::Tensor& output);

}  // namespace de::runtime
