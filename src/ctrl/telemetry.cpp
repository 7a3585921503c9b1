#include "ctrl/telemetry.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "net/trace.hpp"
#include "obs/trace.hpp"

namespace de::ctrl {

TelemetryBook::TelemetryBook(int n_devices, double smoothing)
    : smoothing_(smoothing),
      rate_(static_cast<std::size_t>(n_devices), 0.0),
      compute_ms_(static_cast<std::size_t>(n_devices), 0.0),
      lease_(static_cast<std::size_t>(n_devices)) {
  DE_REQUIRE(n_devices >= 1, "telemetry book needs at least one device");
  DE_REQUIRE(smoothing > 0 && smoothing <= 1, "EWMA weight in (0, 1]");
}

bool TelemetryBook::ingest_heartbeat(rpc::NodeId node, std::uint32_t hb_seq,
                                     std::int64_t sender_steady_us,
                                     std::int64_t received_us) {
  std::lock_guard lk(lease_mu_);
  if (node < 0 || static_cast<std::size_t>(node) >= lease_.size()) {
    return false;  // heartbeat from outside this cluster: ignore
  }
  Lease& lease = lease_[static_cast<std::size_t>(node)];
  // Monotone-sequence gate: a reordered/delayed heartbeat from earlier in
  // this life cannot renew a fresher lease. A dead device's floor was reset
  // when it died, so a restarted node's counter (starting over at 1) gets
  // through and will surface as a kJoined transition at the next poll.
  if (hb_seq <= lease.last_seq) return false;
  lease.last_seq = hb_seq;
  lease.last_renewal_us = received_us;
  lease.last_sender_us = sender_steady_us;
  ++heartbeats_;
  return true;
}

std::vector<MembershipEvent> TelemetryBook::poll_membership(
    std::int64_t now_us, std::int64_t lease_us) {
  std::vector<MembershipEvent> events;
  std::lock_guard lk(lease_mu_);
  for (std::size_t i = 0; i < lease_.size(); ++i) {
    Lease& lease = lease_[i];
    const auto node = static_cast<rpc::NodeId>(i);
    if (lease.last_renewal_us < 0) {
      // Never heard from: start the lease now (grace period) instead of
      // declaring a still-booting fleet dead at the first poll.
      lease.last_renewal_us = now_us;
      continue;
    }
    const bool expired = now_us - lease.last_renewal_us > lease_us;
    if (!lease.dead && expired) {
      lease.dead = true;
      // Reset the sequence floor: whatever comes back on this node id is a
      // new life whose counter starts over.
      lease.last_seq = 0;
      events.push_back(MembershipEvent{MembershipEvent::kDied, node});
      obs::trace_instant(obs::Cat::kLeaseExpire, -1, -1, -1, node);
    } else if (lease.dead && !expired) {
      lease.dead = false;
      events.push_back(MembershipEvent{MembershipEvent::kJoined, node});
    }
  }
  return events;
}

void TelemetryBook::restart_lease(rpc::NodeId node, std::int64_t now_us) {
  std::lock_guard lk(lease_mu_);
  if (node < 0 || static_cast<std::size_t>(node) >= lease_.size()) return;
  Lease& lease = lease_[static_cast<std::size_t>(node)];
  lease.dead = false;
  lease.last_renewal_us = now_us;
}

bool TelemetryBook::alive(rpc::NodeId node) const {
  std::lock_guard lk(lease_mu_);
  if (node < 0 || static_cast<std::size_t>(node) >= lease_.size()) {
    return false;
  }
  return !lease_[static_cast<std::size_t>(node)].dead;
}

std::vector<TelemetryBook::LeaseInfo> TelemetryBook::lease_snapshot() const {
  std::vector<LeaseInfo> out;
  std::lock_guard lk(lease_mu_);
  out.reserve(lease_.size());
  for (std::size_t i = 0; i < lease_.size(); ++i) {
    const Lease& lease = lease_[i];
    out.push_back({static_cast<rpc::NodeId>(i), lease.last_seq,
                   lease.last_renewal_us, lease.dead});
  }
  return out;
}

void TelemetryBook::fold(rpc::NodeId device, Mbps rate) {
  if (device < 0 || static_cast<std::size_t>(device) >= rate_.size()) {
    return;  // sample touching a node outside this cluster: ignore
  }
  auto& est = rate_[static_cast<std::size_t>(device)];
  est = est <= 0 ? rate : smoothing_ * rate + (1 - smoothing_) * est;
}

void TelemetryBook::ingest_links(
    rpc::NodeId reporter, const std::vector<rpc::LinkRateSample>& links) {
  // Only requester links are attributed (to their device endpoint); a
  // provider-to-provider sample is min of two unknown radios and would
  // drag a healthy device down whenever its peer collapses.
  const auto requester = static_cast<rpc::NodeId>(rate_.size());
  for (const auto& link : links) {
    if (link.mbps <= 0) continue;
    if (reporter == requester) {
      fold(link.peer, link.mbps);
    } else if (link.peer == requester) {
      fold(reporter, link.mbps);
    }
  }
}

void TelemetryBook::ingest(const rpc::TelemetryMsg& msg) {
  if (msg.from_node < 0 ||
      static_cast<std::size_t>(msg.from_node) > rate_.size()) {
    return;
  }
  ++reports_;
  ingest_links(msg.from_node, msg.links);
  if (msg.compute_ms > 0 &&
      static_cast<std::size_t>(msg.from_node) < compute_ms_.size()) {
    auto& est = compute_ms_[static_cast<std::size_t>(msg.from_node)];
    est = est <= 0 ? msg.compute_ms
                   : smoothing_ * msg.compute_ms + (1 - smoothing_) * est;
  }
}

std::vector<Mbps> TelemetryBook::device_rates() const { return rate_; }

std::vector<double> TelemetryBook::compute_ms() const { return compute_ms_; }

net::Network TelemetryBook::refreshed_network(
    const net::Network& baseline) const {
  net::Network fresh = baseline;
  const int n = std::min(num_devices(), baseline.num_devices());
  for (int i = 0; i < n; ++i) {
    const Mbps est = rate_[static_cast<std::size_t>(i)];
    if (est <= 0) continue;
    net::Link link = baseline.link(i);  // keep the I/O overhead terms
    link.trace = net::ThroughputTrace::constant(est);
    fresh.set_device_link(i, link);
  }
  return fresh;
}

sim::ClusterLatency scale_latency(const sim::ClusterLatency& base,
                                  const std::vector<double>& factors) {
  sim::ClusterLatency scaled;
  scaled.reserve(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    double f = i < factors.size() ? factors[i] : 1.0;
    if (!(f > 0)) f = 1.0;
    f = std::clamp(f, 1.0 / 32.0, 32.0);
    scaled.push_back(std::make_shared<ScaledLatencyModel>(base[i], f));
  }
  return scaled;
}

}  // namespace de::ctrl
