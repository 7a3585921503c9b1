// Cluster fabric wiring of every serve::StreamServer fleet (serve_stream
// builds one per run): one transport endpoint per node (providers 0..n-1,
// requester at index n, where the door's pump and control thread run),
// data/control/telemetry/serve mailboxes opened, TCP nodes fully meshed
// over loopback — plus the provider-thread spawner with its exception
// barrier.
// When a FaultSpec is given, every endpoint is wrapped in a
// FaultInjectingTransport so all inter-node traffic crosses the degraded
// "wire". Protocol logic lives in worker.cpp; this file only builds and
// tears down the plumbing.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "rpc/fault_transport.hpp"
#include "rpc/inproc_transport.hpp"
#include "rpc/shaped_transport.hpp"
#include "rpc/tcp_transport.hpp"
#include "runtime/supervisor.hpp"
#include "runtime/worker.hpp"

namespace de::runtime {

/// The data plane a fabric carries. There is only one (worker.hpp); the
/// enumerator survives so make_fabric callers that still name it, such as
/// perfbench, build unchanged. It selects nothing.
enum class DataPlaneMode {
  kOverlapZeroCopy,  ///< halo-first bands + zero-copy frames
};

/// Owns the per-node transports of one cluster run.
struct ClusterFabric {
  std::unique_ptr<rpc::InProcFabric> inproc;
  std::vector<std::unique_ptr<rpc::TcpTransport>> tcp_nodes;
  /// Fault decorators, one per node, when the run was built with faults.
  std::vector<std::unique_ptr<rpc::FaultInjectingTransport>> faulty;
  /// Shaping decorators, one per node, when the run was built with shaping.
  std::vector<std::unique_ptr<rpc::ShapedTransport>> shaped;
  std::vector<rpc::Transport*> endpoints;  ///< size n_devices + 1
  /// Each node's clock origin (process-steady micros at fabric build, one
  /// sample per node in node order). Every node reports its telemetry
  /// timestamps relative to its own origin, so in-process "nodes" genuinely
  /// exercise the trace-merge clock-offset estimation instead of trivially
  /// sharing one clock.
  std::vector<std::int64_t> node_origin_us;

  rpc::Transport& requester() { return *endpoints.back(); }
  /// Node `i`'s achieved-rate source — its shaper when the fabric is
  /// shaped, null otherwise (an unshaped loopback link has no meaningful
  /// rate to report).
  rpc::LinkRateSampler* sampler(rpc::NodeId node) {
    return shaped.empty() ? nullptr
                          : shaped[static_cast<std::size_t>(node)].get();
  }
  void shutdown_all();

  /// Chaos-schedule node death/revival (fault-decorated fabrics only):
  /// severs/restores both halves of node's connectivity — its own outgoing
  /// links (kill_node on its transport) and every peer's link toward it.
  /// Composable: killing/reviving one node never disturbs the manual link
  /// state of another.
  void set_node_down(rpc::NodeId node, bool down);
};

/// Builds the fabric for `n_devices` providers plus the requester. TCP nodes
/// bind ephemeral loopback ports and learn the full peer directory; every
/// node's data, control, and telemetry mailboxes are open before this
/// returns, so no scatter can race mailbox creation. With `faults` set every
/// endpoint is wrapped in a FaultInjectingTransport sharing that spec (fault
/// decisions still differ per link — the hash keys on src/dst node ids).
/// With `shaping` set every endpoint is additionally wrapped (outermost) in
/// a ShapedTransport, all sharing one trace-time origin so the regime
/// switches of every link line up.
ClusterFabric make_fabric(int n_devices, bool use_tcp,
                          const rpc::FaultSpec* faults = nullptr,
                          DataPlaneMode mode = DataPlaneMode::kOverlapZeroCopy,
                          const rpc::ShapingSpec* shaping = nullptr);

/// One provider thread per device, each running provider_loop_multi over
/// the shared tenant registry `fleet` (no seed strategy — epoch lanes
/// arrive by stream-tagged kReconfigure; `fleet` must outlive the threads),
/// under a Supervisor. The requester releases the providers with kShutdown.
/// An exception escaping a provider would std::terminate the process; with
/// the default max_restarts = 0 the supervisor escalates immediately by
/// shutting the whole fabric down so blocked counterparties fail in an
/// orderly way (the classic barrier). Chaos/membership runs pass
/// max_restarts > 0 so a provider that starved out while its node was
/// "dead" is restarted with a fresh loop instead. With `telemetry_every` >
/// 0 each provider publishes a kTelemetry frame to the requester's
/// telemetry mailbox every that many images (link rates come from the
/// node's shaper when the fabric is shaped); with `heartbeat_ms` > 0 it
/// additionally publishes periodic kHeartbeat lease renewals there.
Supervisor spawn_providers_multi(
    ClusterFabric& fabric, int n_devices, std::span<const TenantModel> fleet,
    DataPlaneStats& stats, const ReliabilityOptions& reliability = {},
    const cnn::ExecContext& exec = cnn::ExecContext::fast_shared(),
    int telemetry_every = 0, int heartbeat_ms = 0, int max_restarts = 0);

}  // namespace de::runtime
