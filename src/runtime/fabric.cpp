#include "runtime/fabric.hpp"

#include <map>
#include <string>
#include <utility>

#include "common/require.hpp"
#include "obs/trace.hpp"

namespace de::runtime {

void ClusterFabric::shutdown_all() {
  for (auto* ep : endpoints) ep->shutdown();
}

void ClusterFabric::set_node_down(rpc::NodeId node, bool down) {
  DE_REQUIRE(!faulty.empty(), "node death needs a fault-decorated fabric");
  const auto idx = static_cast<std::size_t>(node);
  DE_REQUIRE(idx < faulty.size(), "node id outside the fabric");
  // Tx half: the dead node itself stops sending...
  if (down) {
    faulty[idx]->kill_node();
  } else {
    faulty[idx]->revive_node();
  }
  // ...and rx half: every peer's link toward it is severed, so nothing it
  // would have received queues up for its resurrection either.
  for (std::size_t k = 0; k < faulty.size(); ++k) {
    if (k == idx) continue;
    faulty[k]->set_link_down(node, down);
  }
}

ClusterFabric make_fabric(int n_devices, bool use_tcp,
                          const rpc::FaultSpec* faults, DataPlaneMode,
                          const rpc::ShapingSpec* shaping) {
  ClusterFabric fabric;
  const int n_nodes = n_devices + 1;
  if (use_tcp) {
    std::map<rpc::NodeId, rpc::PeerEndpoint> directory;
    fabric.tcp_nodes.reserve(static_cast<std::size_t>(n_nodes));
    for (rpc::NodeId node = 0; node < n_nodes; ++node) {
      fabric.tcp_nodes.push_back(std::make_unique<rpc::TcpTransport>(node));
      directory[node] =
          rpc::PeerEndpoint{"127.0.0.1", fabric.tcp_nodes.back()->port()};
    }
    for (auto& node : fabric.tcp_nodes) {
      node->set_peers(directory);
      fabric.endpoints.push_back(node.get());
    }
  } else {
    fabric.inproc = std::make_unique<rpc::InProcFabric>(n_nodes);
    for (rpc::NodeId node = 0; node < n_nodes; ++node) {
      fabric.endpoints.push_back(&fabric.inproc->endpoint(node));
    }
  }
  if (faults != nullptr) {
    fabric.faulty.reserve(static_cast<std::size_t>(n_nodes));
    for (std::size_t k = 0; k < fabric.endpoints.size(); ++k) {
      fabric.faulty.push_back(std::make_unique<rpc::FaultInjectingTransport>(
          *fabric.endpoints[k], *faults));
      fabric.endpoints[k] = fabric.faulty.back().get();
    }
  }
  if (shaping != nullptr) {
    // Outermost decorator: pacing happens before fault injection, like a
    // radio that spent airtime on a frame the wire then corrupted. One
    // shared time origin keeps every link's regime switches aligned.
    const auto start = std::chrono::steady_clock::now();
    fabric.shaped.reserve(static_cast<std::size_t>(n_nodes));
    for (std::size_t k = 0; k < fabric.endpoints.size(); ++k) {
      fabric.shaped.push_back(std::make_unique<rpc::ShapedTransport>(
          *fabric.endpoints[k], *shaping, start));
      fabric.endpoints[k] = fabric.shaped.back().get();
    }
  }
  for (auto* ep : fabric.endpoints) {
    ep->open_mailbox(rpc::kDataMailbox);
    ep->open_mailbox(rpc::kCtrlMailbox);
    ep->open_mailbox(rpc::kTelemetryMailbox);
    ep->open_mailbox(rpc::kServeMailbox);
  }
  // One origin sample per node, taken back-to-back: offsets between them are
  // sub-microsecond, so the trace-merge estimator's error is measurable
  // against a near-zero truth in tests while the machinery is the same one a
  // genuinely distributed deployment would exercise.
  fabric.node_origin_us.reserve(static_cast<std::size_t>(n_nodes));
  for (int k = 0; k < n_nodes; ++k) {
    fabric.node_origin_us.push_back(obs::now_us());
  }
  return fabric;
}

Supervisor spawn_providers_multi(
    ClusterFabric& fabric, int n_devices, std::span<const TenantModel> fleet,
    DataPlaneStats& stats, const ReliabilityOptions& reliability,
    const cnn::ExecContext& exec, int telemetry_every, int heartbeat_ms,
    int max_restarts) {
  // Escalation tears down the whole fabric, not just the requester — a
  // downed requester transport drops the end-of-stream frames, which would
  // leave the other providers blocked in receive() and deadlock the join.
  // shutdown() is idempotent, so racing escalations from several threads
  // are fine.
  Supervisor::Options supervision;
  supervision.max_restarts = max_restarts;
  supervision.escalate = [&fabric] { fabric.shutdown_all(); };
  Supervisor supervisor(std::move(supervision));
  for (int i = 0; i < n_devices; ++i) {
    supervisor.spawn(
        "provider-" + std::to_string(i), i,
        [&fabric, n_devices, fleet, &stats, reliability, exec,
         telemetry_every, heartbeat_ms, i] {
          const TelemetryHooks hooks{
              fabric.sampler(i), telemetry_every,
              fabric.node_origin_us[static_cast<std::size_t>(i)],
              heartbeat_ms, static_cast<rpc::NodeId>(n_devices)};
          provider_loop_multi(*fabric.endpoints[static_cast<std::size_t>(i)],
                              i, fleet, stats, reliability, exec, hooks);
        });
  }
  return supervisor;
}

}  // namespace de::runtime
