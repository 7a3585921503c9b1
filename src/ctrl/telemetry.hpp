// Telemetry aggregation of the adaptive control plane (DESIGN.md
// §control-plane): wire kTelemetry reports stream in from the providers
// (plus the requester's own link samples) and this book folds them into a
// per-device view — achieved link Mbps and measured per-image compute —
// that refreshes the planner's net::Network / ClusterLatency knowledge.
//
// Rate attribution: a sample on link u -> v reports min(rate_u, rate_v) —
// a *lower bound* on both radios, so naively folding it into both
// estimates drags a healthy endpoint down whenever its peer collapses.
// The book therefore only attributes samples from requester links
// (scatter/gather — the bulk of the stream) to their *device* endpoint:
// the requester radio is presumed provisioned (the paper's testbed
// assumption), which makes min(r_dev, r_req) a tight estimate of r_dev.
// Provider-to-provider halo samples are ambiguous and ignored. Estimates
// smooth across windows with an EWMA.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "device/latency_model.hpp"
#include "net/network.hpp"
#include "rpc/wire.hpp"
#include "sim/exec_sim.hpp"

namespace de::ctrl {

/// One membership transition observed by poll_membership(): a device whose
/// lease lapsed (kDied) or a dead device heard from again (kJoined — the
/// candidate for profile-on-join adoption).
struct MembershipEvent {
  enum Kind { kDied, kJoined };
  Kind kind = kDied;
  rpc::NodeId node = rpc::kNilNode;
};

class TelemetryBook {
 public:
  /// `smoothing` is the EWMA weight of a fresh window (1 = no smoothing).
  explicit TelemetryBook(int n_devices, double smoothing = 0.6);

  int num_devices() const { return static_cast<int>(rate_.size()); }

  /// Folds one wire report in. `reporter` must be the frame's from_node;
  /// reports from unknown node ids are ignored.
  void ingest(const rpc::TelemetryMsg& msg);

  /// Folds locally-sampled link rates in (the requester's own shaper —
  /// no wire hop needed for the node the controller runs on).
  void ingest_links(rpc::NodeId reporter,
                    const std::vector<rpc::LinkRateSample>& links);

  /// Current smoothed rate estimate per device (0 = never observed).
  std::vector<Mbps> device_rates() const;
  /// Current mean per-image compute per device (0 = never observed).
  std::vector<double> compute_ms() const;

  /// `baseline` with every observed device link replaced by a constant
  /// link at the estimated rate; unobserved devices and the requester keep
  /// their baseline traces.
  net::Network refreshed_network(const net::Network& baseline) const;

  int reports() const { return reports_; }

  // --- Heartbeat / lease tracking (membership layer) -------------------
  //
  // Leases are judged on RECEIVER arrival time (`received_us`, the
  // controller's own clock at ingest), never on the sender's embedded
  // timestamp — a clock-skewed device renews its lease exactly like a
  // well-synchronised one, and only silence kills it. `hb_seq` must be
  // monotone per sender within one life: a delayed or reordered heartbeat
  // can never renew a lease the sender has since let lapse. A device
  // declared dead has its sequence floor reset, so a revived (restarted)
  // node's fresh counter is accepted and surfaces as a kJoined event.

  /// Folds one heartbeat in. Returns true when the heartbeat renewed the
  /// lease (false: stale hb_seq replay, or unknown node). `sender_steady_us`
  /// is retained for the caller's clock-offset bookkeeping only.
  bool ingest_heartbeat(rpc::NodeId node, std::uint32_t hb_seq,
                        std::int64_t sender_steady_us,
                        std::int64_t received_us);

  /// Sweeps the leases against `now_us`: a device whose last renewal is
  /// STRICTLY older than `lease_us` micros dies (a heartbeat landing
  /// exactly at expiry still saves it); a dead device that has renewed
  /// since rejoins. Devices never heard from start their lease at the
  /// first poll (grace period) rather than being declared dead before the
  /// fleet finished starting. Returns the transitions since the last poll.
  std::vector<MembershipEvent> poll_membership(std::int64_t now_us,
                                               std::int64_t lease_us);

  /// Takes back `node`'s lapse: the lease is live again and runs from
  /// `now_us` (the heartbeat floor stays reset, so the node's next beat of
  /// either life renews it).
  void restart_lease(rpc::NodeId node, std::int64_t now_us);

  /// True while the device's lease is considered live (also true before
  /// the first poll — unknown is not dead).
  bool alive(rpc::NodeId node) const;

  std::int64_t heartbeats() const { return heartbeats_; }

  /// Read-only copy of one device's lease, for the ops plane's /membership
  /// endpoint. `last_renewal_us` is on the receiver (controller) clock;
  /// -1 = never heard from (still in its first-poll grace period).
  struct LeaseInfo {
    rpc::NodeId node = rpc::kNilNode;
    std::uint32_t hb_seq = 0;
    std::int64_t last_renewal_us = -1;
    bool dead = false;
  };
  /// Every device's lease, ordered by node id. Thread-safe: the lease
  /// state (alone) is mutex-guarded so a scrape thread can snapshot it
  /// while the controller ingests heartbeats.
  std::vector<LeaseInfo> lease_snapshot() const;

 private:
  void fold(rpc::NodeId device, Mbps rate);

  struct Lease {
    std::uint32_t last_seq = 0;       ///< highest hb_seq this life
    std::int64_t last_renewal_us = -1; ///< receiver clock; -1 = never
    std::int64_t last_sender_us = 0;   ///< sender steady clock (diagnostic)
    bool dead = false;
  };

  double smoothing_;
  std::vector<Mbps> rate_;  ///< one smoothed estimate per device
  std::vector<double> compute_ms_;
  /// Guards lease_ only: heartbeats are low-rate (ms cadence) and the ops
  /// plane snapshots leases from scrape threads; the rate/compute books
  /// stay controller-thread-only as before.
  mutable std::mutex lease_mu_;
  std::vector<Lease> lease_;
  int reports_ = 0;
  std::int64_t heartbeats_ = 0;
};

/// A latency model scaled by a constant factor — the cheapest honest way to
/// fold "device i measured k x its predicted compute" telemetry back into
/// the planner's ClusterLatency view.
class ScaledLatencyModel final : public device::LatencyModel {
 public:
  ScaledLatencyModel(std::shared_ptr<const device::LatencyModel> base,
                     double scale)
      : base_(std::move(base)), scale_(scale) {}

  Ms layer_ms(const cnn::LayerConfig& layer, int out_rows) const override {
    return scale_ * base_->layer_ms(layer, out_rows);
  }
  Ms fc_ms(const cnn::FcConfig& fc) const override {
    return scale_ * base_->fc_ms(fc);
  }

 private:
  std::shared_ptr<const device::LatencyModel> base_;
  double scale_;
};

/// Per-device scaled copy of `base`; factors outside [1/32, 32] are clamped
/// (a synthetic model and real silicon can disagree by a constant without
/// the *relative* device speeds — what planning runs on — being wrong).
sim::ClusterLatency scale_latency(const sim::ClusterLatency& base,
                                  const std::vector<double>& factors);

}  // namespace de::ctrl
