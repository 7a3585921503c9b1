// The runtime's canonical metric names (DESIGN.md §observability): one
// fold from the data plane's hot-path counters (DataPlaneStats) into an
// obs::MetricsRegistry, shared by every entry point — run_distributed,
// run_distributed_tcp, serve_stream, and serve::StreamServer all report
// the same names, so consumers never branch on which path produced a
// result.
#pragma once

#include "obs/metrics.hpp"
#include "runtime/reliable.hpp"

namespace de::runtime {

// Canonical names. Tests assert on these strings; add, never rename.
inline constexpr const char* kMetricMessages = "data_plane.messages";
inline constexpr const char* kMetricPayloadBytes = "data_plane.payload_bytes";
inline constexpr const char* kMetricWireBytes = "data_plane.wire_bytes";
inline constexpr const char* kMetricBytesCopied = "data_plane.bytes_copied";
inline constexpr const char* kMetricFrameAllocs = "data_plane.frame_allocs";
inline constexpr const char* kMetricRetransmits = "reliability.retransmits";
inline constexpr const char* kMetricAcks = "reliability.acks";
inline constexpr const char* kMetricDupsDropped =
    "reliability.duplicates_dropped";
inline constexpr const char* kMetricNacks = "reliability.nacks";
inline constexpr const char* kMetricRecvTimeouts = "reliability.recv_timeouts";
inline constexpr const char* kMetricChunksAbandoned =
    "reliability.chunks_abandoned";
// Membership / churn (all zero on a stable fleet).
inline constexpr const char* kMetricRetxCancelled =
    "membership.retx_cancelled";
inline constexpr const char* kMetricImagesCancelled =
    "membership.images_cancelled";
inline constexpr const char* kMetricLanesEvicted = "membership.lanes_evicted";
// Streaming-only extras (serve_stream).
inline constexpr const char* kMetricStreamImages = "stream.images";
inline constexpr const char* kMetricStreamWallS = "stream.wall_s";
inline constexpr const char* kMetricStreamIps = "stream.measured_ips";
inline constexpr const char* kMetricStreamReconfigs = "stream.reconfigurations";
inline constexpr const char* kMetricGatherLatencyUs = "stream.gather_latency_us";
// Ops-plane extras (serve_stream with an admin endpoint attached).
inline constexpr const char* kMetricImageLatencyUs = "stream.image_latency_us";
// Queue-depth gauge families (ROADMAP item 3 baselines). These are label
// *prefixes* — series are named e.g. "rpc.mailbox_depth{name=data}" and
// "reliable.outbox_depth{node=2}"; the Prometheus exporter turns the brace
// block into real labels.
inline constexpr const char* kMetricMailboxDepth = "rpc.mailbox_depth";
inline constexpr const char* kMetricOutboxDepth = "reliable.outbox_depth";
// Attribution exports (gauges, per device node).
inline constexpr const char* kMetricStragglerScore =
    "attribution.straggler_score";

/// Folds one run's DataPlaneStats totals into `registry` under the
/// canonical names above (counters are *set*, not added: the registry is
/// per run). Call once, at the end of a run, after every worker joined.
/// Because it sets, re-folding mid-run is safe — the /metrics scrape path
/// calls it on every hit to serve live values.
void fold_data_plane_metrics(const DataPlaneStats& stats,
                             obs::MetricsRegistry& registry);

/// Samples the requester-side queue depths into `registry`: one
/// rpc.mailbox_depth{name=...} gauge per well-known mailbox of `transport`
/// and one reliable.outbox_depth{node=N} gauge per peer with unacked
/// frames in `rtx` (nullptr = reliability off, outboxes omitted). Run at
/// scrape time.
void sample_queue_depths(const rpc::Transport& transport,
                         const Retransmitter* rtx,
                         obs::MetricsRegistry& registry);

}  // namespace de::runtime
