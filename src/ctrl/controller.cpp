#include "ctrl/controller.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/require.hpp"
#include "ctrl/membership.hpp"
#include "device/latency_table.hpp"
#include "obs/trace.hpp"

namespace de::ctrl {

Controller::Controller(ControllerConfig config)
    : config_(std::move(config)),
      book_(static_cast<int>(config_.latency.size())) {
  DE_REQUIRE(config_.planner != nullptr, "controller needs a planner");
  DE_REQUIRE(config_.model != nullptr, "controller needs the model");
  DE_REQUIRE(!config_.latency.empty(), "controller needs device knowledge");
  DE_REQUIRE(config_.network.num_devices() ==
                 static_cast<int>(config_.latency.size()),
             "controller network/latency device counts disagree");
  DE_REQUIRE(config_.drift_threshold > 0, "drift threshold must be positive");
}

void Controller::start(const sim::RawStrategy& serving,
                       rpc::LinkRateSampler* local_links) {
  local_links_ = local_links;
  serving_ = serving;
  base_strategy_ = serving;
  const int n = static_cast<int>(config_.latency.size());
  dead_.assign(static_cast<std::size_t>(n), false);
  baseline_rates_.assign(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    baseline_rates_[static_cast<std::size_t>(i)] =
        config_.network.device_rate(i, 0.0);
  }
  last_swap_ = std::chrono::steady_clock::now();
}

void Controller::ingest(const rpc::TelemetryMsg& msg) {
  obs::trace_instant(obs::Cat::kDriftSample, -1, -1, -1, msg.from_node);
  book_.ingest(msg);
  std::lock_guard lk(mu_);
  ++stats_.telemetry_frames;
}

void Controller::ingest_heartbeat(const rpc::HeartbeatMsg& msg,
                                  std::int64_t received_us) {
  if (book_.ingest_heartbeat(msg.from_node, msg.hb_seq, msg.steady_now_us,
                             received_us)) {
    std::lock_guard lk(mu_);
    ++stats_.heartbeats;
  }
  if (config_.lease_ms > 0) sweep_leases(received_us);
}

void Controller::poll(std::int64_t now_us) {
  if (config_.lease_ms > 0) sweep_leases(now_us);
  if (local_links_ != nullptr) {
    // The requester is node n_devices: its own links estimate their device
    // ends (TelemetryBook::ingest_links).
    book_.ingest_links(static_cast<rpc::NodeId>(book_.num_devices()),
                       local_links_->sample_link_rates());
  }
  {
    std::lock_guard lk(mu_);
    stats_.device_mbps = book_.device_rates();
  }
  try {
    check_and_plan();
  } catch (const std::exception&) {
    // A planner/simulator failure on a degenerate refreshed view keeps the
    // stream serving its current strategy; the next poll retries.
    std::lock_guard lk(mu_);
    ++stats_.plan_failures;
  }
}

void Controller::sweep_leases(std::int64_t now_us) {
  const auto events = book_.poll_membership(
      now_us, static_cast<std::int64_t>(config_.lease_ms) * 1000);
  if (!events.empty()) handle_membership(events, now_us);
}

std::optional<SwapDecision> Controller::take_swap() {
  std::lock_guard lk(mu_);
  auto taken = std::move(pending_);
  pending_.reset();
  return taken;
}

bool Controller::membership_pending() const {
  std::lock_guard lk(mu_);
  return pending_.has_value() && pending_->membership();
}

bool Controller::death_pending() const {
  std::lock_guard lk(mu_);
  return pending_.has_value() && !pending_->died.empty();
}

ControllerStats Controller::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

Controller::MembershipView Controller::membership_view(
    std::int64_t now_us) const {
  MembershipView view;
  // Lease book first (its own lock), then the pending-decision overlay
  // under mu_ — never both locks at once.
  const auto leases = book_.lease_snapshot();
  std::lock_guard lk(mu_);
  view.swap_pending = pending_.has_value();
  view.deaths = stats_.deaths;
  view.joins = stats_.joins;
  view.swaps = stats_.swaps;
  view.devices.reserve(leases.size());
  for (const auto& lease : leases) {
    MembershipRow row;
    row.node = lease.node;
    row.hb_seq = lease.hb_seq;
    // Clamp to >=0: clock skew between hb_origin and our stamping clock can
    // make the difference negative, which must not collapse into the
    // "never renewed" -1 sentinel (nor reach the ms formatter signed).
    row.lease_age_us =
        lease.last_renewal_us < 0
            ? -1
            : std::max<std::int64_t>(0, now_us - lease.last_renewal_us);
    row.state = lease.dead ? MembershipRow::State::kDead
                           : MembershipRow::State::kAlive;
    if (pending_.has_value() &&
        std::find(pending_->joined.begin(), pending_->joined.end(),
                  lease.node) != pending_->joined.end()) {
      row.state = MembershipRow::State::kJoining;
    }
    view.devices.push_back(row);
  }
  return view;
}

std::string membership_json(const Controller::MembershipView& view,
                            int last_swap_epoch) {
  const auto state_name = [](Controller::MembershipRow::State s) {
    switch (s) {
      case Controller::MembershipRow::State::kAlive: return "alive";
      case Controller::MembershipRow::State::kDead: return "dead";
      case Controller::MembershipRow::State::kJoining: return "joining";
    }
    return "unknown";
  };
  std::string out = "{\"devices\":[";
  bool first = true;
  for (const auto& row : view.devices) {
    if (!first) out += ',';
    first = false;
    out += "{\"node\":" + std::to_string(row.node) + ",\"state\":\"" +
           state_name(row.state) +
           "\",\"hb_seq\":" + std::to_string(row.hb_seq) +
           ",\"lease_age_ms\":" +
           (row.lease_age_us < 0
                ? std::string("-1")
                : std::to_string(row.lease_age_us / 1000) + "." +
                      std::to_string((row.lease_age_us % 1000) / 100)) +
           "}";
  }
  out += "],\"swap_pending\":";
  out += view.swap_pending ? "true" : "false";
  out += ",\"deaths\":" + std::to_string(view.deaths) +
         ",\"joins\":" + std::to_string(view.joins) +
         ",\"swaps\":" + std::to_string(view.swaps) +
         ",\"last_swap_epoch\":" + std::to_string(last_swap_epoch) + "}\n";
  return out;
}

void Controller::handle_membership(const std::vector<MembershipEvent>& events,
                                   std::int64_t now_us) {
  std::vector<rpc::NodeId> died;
  std::vector<rpc::NodeId> joined;
  for (const auto& ev : events) {
    const auto idx = static_cast<std::size_t>(ev.node);
    if (idx >= dead_.size()) continue;
    if (ev.kind == MembershipEvent::kDied) {
      if (dead_[idx]) continue;
      dead_[idx] = true;
      died.push_back(ev.node);
    } else {
      if (!dead_[idx]) continue;
      dead_[idx] = false;
      joined.push_back(ev.node);
      // Profile-on-join calibration: measure the model on the joiner and
      // replace its latency slot before planning over the grown fleet.
      if (config_.profile_on_join) {
        try {
          config_.latency[idx] = std::make_shared<device::LatencyTable>(
              device::profile_model_measured(*config_.model,
                                             config_.join_profile));
        } catch (const std::exception&) {
          // Keep the baseline table; adoption still proceeds.
        }
      }
      obs::trace_instant(obs::Cat::kJoinAdopt, -1, -1, -1, ev.node);
    }
  }
  if (std::find(dead_.begin(), dead_.end(), false) == dead_.end()) {
    // No device left alive: the collector's own thread stalled past the
    // lease, or the whole fleet is gone. There is no survivor to plan for,
    // so restart the leases instead: a device that really died lapses again
    // on its own a lease later, and a fleet that is really gone fails the
    // stream's gathers loudly.
    for (const auto node : died) {
      dead_[static_cast<std::size_t>(node)] = false;
      book_.restart_lease(node, now_us);
    }
    died.clear();
  }
  if (died.empty() && joined.empty()) return;
  {
    std::lock_guard lk(mu_);
    stats_.deaths += static_cast<int>(died.size());
    stats_.joins += static_cast<int>(joined.size());
  }

  // Replan over the survivors. The planner does not know about death, so
  // dead devices' links are collapsed to a token rate (it starves them of
  // rows on its own terms) and the result is masked afterwards — empties
  // are *guaranteed* by the mask, whatever the planner chose. A planner
  // failure falls back to masking the last full strategy: recovery must
  // never depend on a planner succeeding under a degenerate view.
  const int n = static_cast<int>(config_.latency.size());
  std::vector<Mbps> rates = book_.device_rates();
  sim::RawStrategy raw = base_strategy_;
  try {
    net::Network refreshed = book_.refreshed_network(config_.network);
    for (int i = 0; i < n; ++i) {
      if (!dead_[static_cast<std::size_t>(i)]) continue;
      net::Link link = refreshed.link(i);
      link.trace = net::ThroughputTrace::constant(0.001);
      refreshed.set_device_link(i, link);
    }
    core::PlanContext ctx;
    ctx.model = config_.model;
    ctx.latency = config_.latency;
    ctx.network = &refreshed;
    {
      std::lock_guard lk(mu_);
      ++stats_.replans;
    }
    core::DistributionStrategy planned = config_.planner->plan(ctx);
    planned.validate(*config_.model, n);
    raw = planned.to_raw(*config_.model);
    base_strategy_ = raw;
  } catch (const std::exception&) {
    std::lock_guard lk(mu_);
    ++stats_.plan_failures;
  }
  sim::RawStrategy masked = mask_strategy(raw, dead_);

  obs::trace_instant(obs::Cat::kMembershipSwap, -1, -1, -1,
                     static_cast<std::int64_t>(died.size()));
  SwapDecision decision;
  decision.strategy = std::move(masked);
  decision.device_mbps = rates;
  decision.died = std::move(died);
  decision.joined = std::move(joined);
  serving_ = decision.strategy;
  baseline_rates_ = std::move(rates);
  last_swap_ = std::chrono::steady_clock::now();
  std::lock_guard lk(mu_);
  ++stats_.swaps;
  if (pending_.has_value() && pending_->membership()) {
    // An unapplied membership decision is superseded, not lost: its
    // died/joined lists merge into the new one so the serving loop learns
    // about every transition exactly once — one pending decision at a
    // time, never two concurrent adoptions. A node appearing on BOTH
    // merged lists flapped entirely inside the unapplied window: from the
    // fleet's point of view nothing happened, so the pair cancels out —
    // surfacing the join would jump chunk ids on a node that never
    // restarted and strand its in-flight traffic below the peers'
    // fast-forwarded dedup watermarks.
    auto merge_into = [](std::vector<rpc::NodeId>& dst,
                         const std::vector<rpc::NodeId>& src) {
      for (const auto node : src) {
        if (std::find(dst.begin(), dst.end(), node) == dst.end()) {
          dst.push_back(node);
        }
      }
    };
    merge_into(decision.died, pending_->died);
    merge_into(decision.joined, pending_->joined);
    for (auto it = decision.died.begin(); it != decision.died.end();) {
      auto jt = std::find(decision.joined.begin(), decision.joined.end(), *it);
      if (jt != decision.joined.end()) {
        decision.joined.erase(jt);
        it = decision.died.erase(it);
      } else {
        ++it;
      }
    }
  }
  pending_ = std::move(decision);
}

void Controller::check_and_plan() {
  if (serving_.volumes.empty()) return;  // not started: no baseline yet
  {
    std::lock_guard lk(mu_);
    if (pending_.has_value()) return;  // previous decision not yet applied
  }
  const int n = static_cast<int>(config_.latency.size());
  std::vector<Mbps> rates = book_.device_rates();
  double drift = 0;
  for (int i = 0; i < n; ++i) {
    auto& rate = rates[static_cast<std::size_t>(i)];
    const Mbps base = baseline_rates_[static_cast<std::size_t>(i)];
    if (rate <= 0) rate = base;  // never observed: assume no drift
    if (base > 0) drift = std::max(drift, std::abs(rate - base) / base);
  }
  if (drift <= config_.drift_threshold) return;
  const auto now = std::chrono::steady_clock::now();
  if (std::chrono::duration_cast<std::chrono::duration<double>>(
          now - last_swap_)
          .count() < config_.min_swap_gap_s) {
    return;
  }

  // The refreshed world view: observed link rates, compute rescaled by the
  // measured/predicted ratio of the strategy currently serving.
  const net::Network refreshed = book_.refreshed_network(config_.network);
  sim::ClusterLatency latency = config_.latency;
  if (config_.calibrate_compute) {
    const auto predicted = sim::execute_strategy(*config_.model, serving_,
                                                 config_.latency, refreshed);
    const auto measured = book_.compute_ms();
    std::vector<double> factors(static_cast<std::size_t>(n), 1.0);
    for (int i = 0; i < n; ++i) {
      const double expect =
          predicted.device_compute_ms[static_cast<std::size_t>(i)];
      const double got = measured[static_cast<std::size_t>(i)];
      if (expect > 0 && got > 0) {
        factors[static_cast<std::size_t>(i)] = got / expect;
      }
    }
    latency = scale_latency(config_.latency, factors);
  }

  core::PlanContext ctx;
  ctx.model = config_.model;
  ctx.latency = latency;
  ctx.network = &refreshed;
  {
    std::lock_guard lk(mu_);
    ++stats_.replans;
  }
  obs::SpanScope replan(obs::Cat::kReplan, -1, -1, -1,
                        static_cast<std::int64_t>(drift * 1000));
  core::DistributionStrategy planned = config_.planner->plan(ctx);
  planned.validate(*config_.model, n);
  sim::RawStrategy raw = planned.to_raw(*config_.model);
  base_strategy_ = raw;
  // A drift replan after a death must not resurrect the dead: the planner
  // has no concept of membership, so its output is re-masked here.
  if (std::find(dead_.begin(), dead_.end(), true) != dead_.end()) {
    raw = mask_strategy(raw, dead_);
  }

  // Keep the swap only when the event simulator — the same predictor the
  // paper's controller trusts — says the new strategy beats the serving one
  // on the refreshed view by the configured margin.
  const Ms serving_ms =
      sim::execute_strategy(*config_.model, serving_, latency, refreshed)
          .total_ms;
  const Ms next_ms =
      sim::execute_strategy(*config_.model, raw, latency, refreshed).total_ms;
  // Either way, this drift level is now the baseline — no replan storm on a
  // regime the planner has already answered.
  baseline_rates_ = rates;
  if (next_ms >= serving_ms * (1.0 - config_.improvement_margin)) return;

  obs::trace_instant(obs::Cat::kSwapDecision, -1, -1, -1,
                     static_cast<std::int64_t>(next_ms * 1000));
  SwapDecision decision;
  decision.strategy = raw;
  decision.predicted_serving_ms = serving_ms;
  decision.predicted_next_ms = next_ms;
  decision.device_mbps = rates;
  serving_ = std::move(raw);
  last_swap_ = now;
  std::lock_guard lk(mu_);
  ++stats_.swaps;
  pending_ = std::move(decision);
}

}  // namespace de::ctrl
