// The adaptive controller (DESIGN.md §control-plane): the thread that
// closes the loop between runtime telemetry and the planners.
//
//   telemetry frames ──> TelemetryBook ──> refreshed Network/ClusterLatency
//        (kTelemetryMailbox)                        │ drift > threshold?
//                                                   v
//   serving loop  <── SwapDecision <── planner.plan(refreshed ctx)
//    (take_swap)        │ keep only if the event simulator predicts the new
//                       │ strategy beats the serving one on the refreshed
//                       v view (paper §V-F: the old strategy keeps serving
//                  while planning runs — the controller thread plans, the
//                  requester thread swaps at an image boundary)
//
// The controller never touches the data plane itself: it drains its own
// mailbox, plans on its own thread, and publishes at most one pending
// decision that the serving loop picks up between images and turns into a
// kReconfigure epoch (runtime::push_stream_epoch).
#pragma once

#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "core/planner.hpp"
#include "ctrl/telemetry.hpp"
#include "device/profiler.hpp"
#include "obs/trace_export.hpp"
#include "rpc/shaped_transport.hpp"
#include "rpc/transport.hpp"
#include "sim/exec_sim.hpp"

namespace de::ctrl {

struct ControllerConfig {
  core::Planner* planner = nullptr;       ///< required; not owned
  const cnn::CnnModel* model = nullptr;   ///< required; not owned
  /// Baseline device knowledge (profiled/synthetic models); telemetry
  /// rescales it per device when `calibrate_compute` is on.
  sim::ClusterLatency latency;
  /// Baseline network view; telemetry replaces observed links with
  /// constant links at the achieved rate.
  net::Network network{1};
  /// Max relative per-device rate drift tolerated before replanning.
  double drift_threshold = 0.25;
  /// Predicted one-image-latency gain (fraction) a new strategy must show
  /// on the refreshed view before it is offered for a swap.
  double improvement_margin = 0.03;
  /// Telemetry-mailbox wait per loop tick.
  int poll_ms = 10;
  /// Debounce: minimum wall seconds between published swaps.
  Seconds min_swap_gap_s = 0.25;
  /// Fold measured/predicted compute ratios into the latency view.
  bool calibrate_compute = true;
  /// Optional trace-merge clock book (not owned). The controller is the
  /// thread that drains telemetry, so it is also the natural collector of
  /// the kTelemetry steady-clock samples (wire v4): each frame's
  /// `steady_now_us` is ingested as (reported, received-on-our-clock).
  obs::ClockSyncBook* clock_sync = nullptr;
  /// The collector node's own clock origin, subtracted from the receive
  /// timestamp so both sides of a sample are node-local clocks.
  std::int64_t clock_origin_us = 0;
  /// Membership lease in milliseconds; 0 disables heartbeat tracking. A
  /// device whose kHeartbeat renewals stop for longer than this (judged on
  /// the controller's own arrival clock — clock skew cannot kill a node) is
  /// declared dead and a membership SwapDecision is published. Death
  /// decisions bypass the drift threshold, the improvement margin, and the
  /// swap debounce: a dead device is not a regime to be smoothed over.
  int lease_ms = 0;
  /// Adopt-time calibration: profile the model on the joining device
  /// (device::profile_model_measured) and replace its latency slot before
  /// replanning. In-process "joiners" share this machine's silicon, so the
  /// measured table is the honest stand-in for the paper's
  /// profile-on-register step.
  bool profile_on_join = false;
  /// Measured-profile knobs for profile_on_join (granularity/repeats/exec).
  device::MeasuredProfileOptions join_profile{};
};

/// A freshly planned strategy the serving loop should cut over to. When
/// `died`/`joined` are non-empty this is a *membership* decision: the
/// serving loop must also cancel + re-dispatch the dead devices' in-flight
/// images and announce the change to the fleet, not just push an epoch.
struct SwapDecision {
  sim::RawStrategy strategy;
  Ms predicted_serving_ms = 0;  ///< serving strategy, refreshed view
  Ms predicted_next_ms = 0;     ///< new strategy, same view
  std::vector<Mbps> device_mbps;  ///< rate estimates planned against
  std::vector<rpc::NodeId> died;    ///< devices whose lease lapsed
  std::vector<rpc::NodeId> joined;  ///< devices adopted by this decision

  bool membership() const { return !died.empty() || !joined.empty(); }
};

struct ControllerStats {
  int telemetry_frames = 0;
  int replans = 0;        ///< planner invocations
  int swaps = 0;          ///< decisions published
  int plan_failures = 0;  ///< replan attempts that threw (kept serving)
  int deaths = 0;         ///< devices declared dead (lease expiry)
  int joins = 0;          ///< devices adopted (revival or fresh joiner)
  std::int64_t heartbeats = 0;    ///< lease renewals folded in
  std::vector<Mbps> device_mbps;  ///< latest smoothed estimates
};

class Controller {
 public:
  explicit Controller(ControllerConfig config);
  ~Controller();

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Starts the control loop: drains `transport`'s kTelemetryMailbox
  /// (which must be open) and replans against drift from the rates
  /// underlying `serving`. `local_links`, when given, is sampled every
  /// tick for the controller node's own outgoing links (the scatter
  /// direction — no wire hop needed). The transport must outlive stop().
  void start(rpc::Transport& transport, const sim::RawStrategy& serving,
             rpc::LinkRateSampler* local_links = nullptr);

  /// External-feed alternative to start(): no thread and no mailbox of its
  /// own. The owner pushes each telemetry frame through ingest() and
  /// planning runs inline on the caller's thread. This is how the serving
  /// front door runs one controller per tenant stream off the *shared*
  /// telemetry mailbox: the door drains the mailbox once and fans every
  /// frame to all tenant controllers (provider compute windows mix the
  /// tenants' images, so each controller sees the same fleet view).
  void start_external(const sim::RawStrategy& serving);

  /// Feeds one already-decoded telemetry frame (start_external mode only).
  /// Cheap when no replan triggers; a planner invocation runs inline.
  void ingest(const rpc::TelemetryMsg& msg);

  /// Wires the trace-merge clock book (see ControllerConfig::clock_sync)
  /// after construction — serve_stream calls this for traced runs, because
  /// only it knows the fabric's clock origins. Must precede start().
  void set_clock_sync(obs::ClockSyncBook* book, std::int64_t origin_us) {
    config_.clock_sync = book;
    config_.clock_origin_us = origin_us;
  }

  /// The serving loop's half: pops the pending decision, if any. Taking it
  /// commits the controller to the new strategy as its drift baseline.
  std::optional<SwapDecision> take_swap();

  /// True while an unapplied *membership* decision is pending — the serving
  /// loop polls this between images to trigger recovery promptly.
  bool membership_pending() const;

  /// True while the unapplied decision declares at least one death. Only
  /// these may interrupt a *blocked* gather (a dead device's rows are never
  /// coming, and the interrupted image is about to be cancelled anyway);
  /// pure joins wait for the next image boundary — an interrupted gather
  /// cannot resume, so interrupting one for an image that will NOT be
  /// cancelled would strand its already-consumed chunks.
  bool death_pending() const;

  /// Feeds one already-decoded heartbeat (start_external mode only — the
  /// threaded loop drains its own mailbox). `received_us` is the caller's
  /// receive-time clock; lease expiry is swept against the same clock on
  /// the next ingest/poll.
  void ingest_heartbeat(const rpc::HeartbeatMsg& msg,
                        std::int64_t received_us);

  /// Stops and joins the control loop. Idempotent; also run on destruction.
  void stop();

  ControllerStats stats() const;

  // --- Ops-plane membership view (/membership endpoint) ----------------

  /// One device's live membership row. `lease_age_us` is how long ago the
  /// lease was last renewed on the controller's receive clock (-1 = never
  /// heard from, still in the first-poll grace window). kJoining covers
  /// the gap between the controller adopting a (re)joined device and the
  /// serving loop applying that decision (take_swap) — the device is
  /// heartbeating but not yet serving rows.
  struct MembershipRow {
    enum class State { kAlive, kDead, kJoining };
    rpc::NodeId node = rpc::kNilNode;
    std::uint32_t hb_seq = 0;
    std::int64_t lease_age_us = -1;
    State state = State::kAlive;
  };
  struct MembershipView {
    std::vector<MembershipRow> devices;
    bool swap_pending = false;  ///< an unapplied decision exists
    int deaths = 0;             ///< cumulative lease expiries
    int joins = 0;              ///< cumulative adoptions
    int swaps = 0;              ///< cumulative decisions published
  };
  /// Snapshot for scrape threads; `now_us` must be on the same clock the
  /// caller stamps heartbeat receive times with (obs::now_us() in-process).
  MembershipView membership_view(std::int64_t now_us) const;

 private:
  void loop();
  void check_and_plan();
  void sweep_leases(std::int64_t now_us);
  void handle_membership(const std::vector<MembershipEvent>& events);

  ControllerConfig config_;
  rpc::Transport* transport_ = nullptr;
  rpc::LinkRateSampler* local_links_ = nullptr;

  TelemetryBook book_;
  sim::RawStrategy serving_;
  /// Last full (unmasked) planner output — the fallback shape membership
  /// masking redistributes from when a fresh plan fails or is unavailable.
  sim::RawStrategy base_strategy_;
  std::vector<bool> dead_;  ///< current dead set, indexed by device
  std::vector<Mbps> baseline_rates_;  ///< rates the serving strategy assumes
  std::chrono::steady_clock::time_point last_swap_;

  mutable std::mutex mu_;
  std::optional<SwapDecision> pending_;
  ControllerStats stats_;

  std::atomic<bool> stop_{false};
  std::thread thread_;
  bool external_ = false;  ///< start_external mode: no thread, ingest()-fed
};

/// Renders a MembershipView as the ops plane's /membership JSON document.
/// `last_swap_epoch` is the serving loop's most recently pushed epoch
/// (-1 = no swap yet) — the controller publishes decisions but only the
/// serving loop knows the epoch they became.
std::string membership_json(const Controller::MembershipView& view,
                            int last_swap_epoch);

}  // namespace de::ctrl
