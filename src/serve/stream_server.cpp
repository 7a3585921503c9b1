#include "serve/stream_server.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "ctrl/membership.hpp"
#include "obs/admin.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "rpc/wire.hpp"
#include "runtime/runtime_metrics.hpp"

namespace de::serve {

StreamServer::StreamServer(rpc::Transport& door, int n_devices,
                           std::span<const TenantSpec> fleet,
                           runtime::DataPlaneStats& stats,
                           StreamServerOptions options)
    : door_(door),
      n_devices_(n_devices),
      fleet_(fleet.begin(), fleet.end()),
      stats_(stats),
      options_(options) {
  DE_REQUIRE(n_devices_ > 0, "a serving fleet needs at least one provider");
  DE_REQUIRE(!fleet_.empty(), "a serving fleet needs at least one tenant");
  DE_REQUIRE(options_.max_streams > 0 && options_.default_window > 0,
             "stream cap and default window must be positive");
  register_admin();
  pump_thread_ = std::thread([this] { pump(); });
}

StreamServer::~StreamServer() { close(); }

void StreamServer::register_admin() {
  if (options_.admin == nullptr) return;
  // Flight-recorder mode: a door with an ops plane keeps the recorder
  // armed for its whole life (and deliberately leaves it on afterwards) so
  // /trace/dump always has the trailing window.
  if (!obs::TraceRecorder::instance().enabled()) {
    obs::TraceRecorder::instance().enable();
  }
  const auto add = [this](const std::string& path, obs::AdminHandler h) {
    options_.admin->route(path, std::move(h));
    admin_paths_.push_back(path);
  };
  add("/healthz", [this](std::string_view) {
    const bool bad = down();
    return obs::HttpResponse{bad ? 503 : 200, "text/plain; charset=utf-8",
                             bad ? "pump down\n" : "ok\n"};
  });
  add("/metrics", [this](std::string_view) {
    runtime::fold_data_plane_metrics(stats_, registry_);
    {
      std::lock_guard lk(mu_);
      runtime::sample_queue_depths(door_, rtx_, registry_);
      std::int64_t delivered = 0;
      std::int64_t stalls = 0;
      int inflight = 0;
      for (const auto& [id, s] : streams_) {
        delivered += s.delivered;
        stalls += s.credit_stalls;
        // Credits taken at dispatch, outputs not yet gathered.
        inflight += s.window - s.credits - static_cast<int>(s.outputs.size());
      }
      registry_.counter(runtime::kMetricStreamImages).set(delivered);
      registry_.counter("door.credit_stalls").set(stalls);
      registry_.gauge("door.open_streams")
          .set(static_cast<double>(streams_.size()));
      registry_.gauge("door.inflight").set(static_cast<double>(inflight));
    }
    return obs::HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                             obs::to_prometheus(registry_.snapshot())};
  });
  add("/membership", [this](std::string_view) {
    // The door stamps heartbeat receive times with raw obs::now_us()
    // (drain_control), so lease ages are judged on the same clock. Every
    // attached controller sees every heartbeat; the first one's book is as
    // good as any. The door has no fleet-wide epoch counter (-1).
    ctrl::Controller* controller = nullptr;
    {
      std::lock_guard lk(mu_);
      for (const auto& [id, s] : streams_) {
        if (s.controller != nullptr) {
          controller = s.controller;
          break;
        }
      }
    }
    if (controller == nullptr) {
      return obs::HttpResponse{200, "application/json; charset=utf-8",
                               "{\"devices\":[]}\n"};
    }
    const auto view = controller->membership_view(obs::now_us());
    return obs::HttpResponse{200, "application/json; charset=utf-8",
                             ctrl::membership_json(view, -1)};
  });
  if (options_.node_origins != nullptr) {
    add("/trace/dump", [this](std::string_view query) {
      double seconds = 10.0;  // default retention window
      if (const auto s = obs::query_param(query, "s"); s.has_value()) {
        seconds = std::atof(std::string(*s).c_str());
      }
      // A fresh capture per dump (the recorder rings are snapshot-safe
      // while writers are live). No sync book: the door's fabric is
      // in-process, where origin arithmetic alone rebases exactly.
      obs::TraceCapture cap;
      cap.dump = obs::TraceRecorder::instance().snapshot();
      cap.node_origin_us = *options_.node_origins;
      auto merged = obs::trim_to_window(
          obs::merge_capture(cap),
          seconds > 0 ? static_cast<std::int64_t>(seconds * 1e6) : 0);
      std::ostringstream os;
      obs::write_chrome_trace(os, merged);
      return obs::HttpResponse{200, "application/json; charset=utf-8",
                               os.str()};
    });
  }
  add("/streams", [this](std::string_view) {
    struct Row {
      int id = 0;
      int model_id = 0;
      int window = 0;
      int occupancy = 0;
      int queued = 0;
      std::int64_t submitted = 0;
      std::int64_t delivered = 0;
      std::int64_t credit_stalls = 0;
      bool closed = false;
      std::shared_ptr<obs::SloWindow> slo;
    };
    std::vector<Row> rows;
    {
      std::lock_guard lk(mu_);
      rows.reserve(streams_.size());
      for (const auto& [id, s] : streams_) {
        rows.push_back(Row{id, s.model_id, s.window, s.window - s.credits,
                           static_cast<int>(s.inputs.size()), s.submitted,
                           s.delivered, s.credit_stalls, s.closed, s.slo});
      }
    }
    // Percentiles are computed outside mu_ (SloWindow has its own lock; the
    // pump records without mu_ held, so there is no order to invert).
    std::string body = "{\"streams\":[";
    bool first = true;
    for (const auto& row : rows) {
      const auto st = row.slo ? row.slo->stats() : obs::SloWindow::Stats{};
      if (!first) body += ",";
      first = false;
      body += "{\"stream\":" + std::to_string(row.id);
      body += ",\"model\":" + std::to_string(row.model_id);
      body += ",\"closed\":" + std::string(row.closed ? "true" : "false");
      body += ",\"submitted\":" + std::to_string(row.submitted);
      body += ",\"delivered\":" + std::to_string(row.delivered);
      body += ",\"queued\":" + std::to_string(row.queued);
      body += ",\"inflight\":" + std::to_string(row.occupancy);
      body += ",\"window\":" + std::to_string(row.window);
      body += ",\"p50_ms\":" + std::to_string(st.p50_ms);
      body += ",\"p95_ms\":" + std::to_string(st.p95_ms);
      body += ",\"p99_ms\":" + std::to_string(st.p99_ms);
      body += ",\"slo_ms\":" + std::to_string(st.target_ms);
      body += ",\"slo_violations\":" + std::to_string(st.violations);
      body += ",\"credit_stalls\":" + std::to_string(row.credit_stalls);
      body += "}";
    }
    body += "]}\n";
    return obs::HttpResponse{200, "application/json; charset=utf-8",
                             std::move(body)};
  });
}

void StreamServer::unregister_admin() {
  if (options_.admin == nullptr) return;
  for (const auto& path : admin_paths_) options_.admin->unroute(path);
  admin_paths_.clear();
}

bool StreamServer::down() const {
  std::lock_guard lk(mu_);
  return down_;
}

int StreamServer::open_stream(int model_id, int window) {
  std::lock_guard lk(mu_);
  if (closing_ || down_) return -1;
  if (model_id < 0 || model_id >= static_cast<int>(fleet_.size())) return -1;
  if (window < 0) return -1;
  int open = 0;
  for (const auto& [id, s] : streams_) open += s.closed ? 0 : 1;
  if (open >= options_.max_streams) return -1;
  const int id = next_stream_++;
  Stream s;
  s.model_id = model_id;
  s.window = window == 0 ? options_.default_window : window;
  s.credits = s.window;
  s.slo = std::make_shared<obs::SloWindow>(256, options_.slo_ms);
  s.cost = tenant(model_id).model->conv_chain_ops();
  streams_.emplace(id, std::move(s));
  return id;
}

void StreamServer::attach_controller(int stream, ctrl::Controller* controller) {
  std::lock_guard lk(mu_);
  streams_.at(stream).controller = controller;
}

bool StreamServer::submit(int stream, cnn::Tensor input) {
  std::unique_lock lk(mu_);
  auto it = streams_.find(stream);
  if (it == streams_.end()) return false;
  Stream& s = it->second;
  // A mis-shaped image would fail at dispatch, inside the pump, and take
  // the door down for every tenant: refuse it before it takes a credit.
  const cnn::CnnModel& model = *tenant(s.model_id).model;
  if (input.h != model.input_h() || input.w != model.input_w() ||
      input.c != model.input_c()) {
    return false;
  }
  // The window counts images anywhere between submit and pop. Dispatched-
  // but-unpopped images hold (window - credits), so the queue may only grow
  // while it still fits in the remaining credits.
  cv_client_.wait(lk, [&] {
    return down_ || s.closed || static_cast<int>(s.inputs.size()) < s.credits;
  });
  if (down_ || s.closed) return false;
  s.inputs.emplace_back(std::move(input), Clock::now());
  ++s.submitted;
  cv_pump_.notify_one();
  return true;
}

std::optional<cnn::Tensor> StreamServer::pop(int stream) {
  std::unique_lock lk(mu_);
  Stream& s = streams_.at(stream);
  cv_client_.wait(lk, [&] {
    return !s.outputs.empty() || down_ ||
           (s.closed && s.inputs.empty() && s.credits == s.window);
  });
  if (s.outputs.empty()) return std::nullopt;  // drained or down
  cnn::Tensor out = std::move(s.outputs.front());
  s.outputs.pop_front();
  ++s.credits;
  ++s.delivered;
  // The returned credit may unblock both a submit() waiter on this stream
  // and the pump (which skips credit-starved streams).
  cv_client_.notify_all();
  cv_pump_.notify_one();
  return out;
}

void StreamServer::swap_strategy(int stream, const sim::RawStrategy& strategy) {
  std::lock_guard lk(mu_);
  streams_.at(stream).pending_swap = strategy;
}

void StreamServer::close_stream(int stream) {
  std::lock_guard lk(mu_);
  auto it = streams_.find(stream);
  if (it == streams_.end()) return;
  it->second.closed = true;
  cv_client_.notify_all();
  cv_pump_.notify_one();
}

void StreamServer::close() {
  // Routes come down first: unroute() is a barrier, so once it returns no
  // scrape thread is inside a handler that reads the state about to drain.
  unregister_admin();
  {
    std::lock_guard lk(mu_);
    closing_ = true;
    for (auto& [id, s] : streams_) s.closed = true;
    cv_client_.notify_all();
    cv_pump_.notify_one();
  }
  if (pump_thread_.joinable()) pump_thread_.join();
}

StreamSnapshot StreamServer::snapshot(int stream) const {
  std::lock_guard lk(mu_);
  const Stream& s = streams_.at(stream);
  StreamSnapshot snap;
  snap.model_id = s.model_id;
  snap.window = s.window;
  snap.epochs_pushed = s.epochs_pushed;
  snap.submitted = s.submitted;
  snap.delivered = s.delivered;
  snap.queued = static_cast<int>(s.inputs.size());
  snap.latency_ms = s.latency_ms;
  snap.credit_stalls = s.credit_stalls;
  return snap;
}

void StreamServer::prepare_lane(runtime::RequesterContext& ctx, int id,
                                int from_seq) {
  int model_id = 0;
  bool lane_open = false;
  std::optional<sim::RawStrategy> swap;
  ctrl::Controller* controller = nullptr;
  {
    std::lock_guard lk(mu_);
    Stream& s = streams_.at(id);
    model_id = s.model_id;
    lane_open = s.lane_open;
    swap = std::move(s.pending_swap);
    s.pending_swap.reset();
    controller = s.controller;
  }
  // An attached per-tenant controller's decision wins over an older
  // explicit swap_strategy() registration — it planned against fresher
  // telemetry. Membership decisions are NOT consumed here: the pump's
  // recovery step takes those, because they need the in-flight window.
  if (controller != nullptr && !controller->membership_pending()) {
    if (auto decision = controller->take_swap()) {
      swap = std::move(decision->strategy);
    }
  }
  const TenantSpec& tenant = fleet_[static_cast<std::size_t>(model_id)];
  if (!lane_open) {
    const sim::RawStrategy& strategy = swap ? *swap : tenant.strategy;
    runtime::push_stream_epoch(ctx, id, model_id, *tenant.model, strategy,
                               from_seq);
    std::lock_guard lk(mu_);
    Stream& s = streams_.at(id);
    s.lane_open = true;
    s.current = strategy;
    ++s.epochs_pushed;
  } else if (swap) {
    runtime::push_stream_epoch(ctx, id, model_id, *tenant.model, *swap,
                               from_seq);
    std::lock_guard lk(mu_);
    Stream& s = streams_.at(id);
    s.current = std::move(*swap);
    ++s.epochs_pushed;
  }
}

void StreamServer::pump() {
  obs::bind_thread("serve-door", n_devices_);
  runtime::RequesterContext ctx(door_, n_devices_, stats_,
                                options_.reliability);
  std::unique_ptr<runtime::Retransmitter> rtx;
  if (options_.reliability.enabled) {
    rtx = std::make_unique<runtime::Retransmitter>(door_, options_.reliability,
                                                   stats_);
    ctx.rtx = rtx.get();
    std::lock_guard lk(mu_);
    rtx_ = rtx.get();  // /metrics samples the outbox depth while it lives
  }

  struct Job {
    int stream = 0;
    int model_id = 0;
    cnn::Tensor input;
    Clock::time_point t0;
  };
  struct InFlight {
    int stream = 0;
    int model_id = 0;
    int seq = 0;
    /// Kept until the gather delivers: a membership death voids the whole
    /// window, and re-dispatch needs the original pixels back.
    cnn::Tensor input;
    Clock::time_point t0;
  };
  std::deque<InFlight> inflight;
  // Depth cap: enough images in flight to keep every provider busy with
  // the next one queued behind it; the rest of the backlog waits here, in
  // fair order, instead of in the providers' inboxes.
  const int cap = 2 * n_devices_;
  Ops vtime = 0;  ///< fair-queue virtual time (detail::fair_pick)
  std::vector<detail::FairEntry> fair;
  std::vector<std::pair<int, Stream*>> fair_streams;
  int next_seq = 0;
  int join_count = 0;
  std::vector<bool> dead(static_cast<std::size_t>(n_devices_), false);
  bool failed = false;

  // Fans fleet control frames to the attached per-tenant controllers.
  // Every controller sees every frame (a provider's compute/link report —
  // and its lease renewals — concern all tenants sharing it); each
  // controller's own planner decides whether its tenant should move.
  const auto drain_control = [&] {
    while (auto frame = door_.try_receive(rpc::kTelemetryMailbox)) {
      try {
        std::vector<ctrl::Controller*> sinks;
        {
          std::lock_guard lk(mu_);
          for (auto& [id, s] : streams_) {
            if (s.controller != nullptr) sinks.push_back(s.controller);
          }
        }
        if (rpc::peek_type(*frame) == rpc::MsgType::kHeartbeat) {
          const rpc::HeartbeatMsg hb = rpc::decode_heartbeat(*frame);
          const std::int64_t received_us = obs::now_us();
          for (auto* sink : sinks) sink->ingest_heartbeat(hb, received_us);
        } else {
          const rpc::TelemetryMsg msg = rpc::decode_telemetry(*frame);
          for (auto* sink : sinks) sink->ingest(msg);
        }
      } catch (const Error&) {
        // Malformed control frame: drop, like the in-thread controller does.
      }
    }
  };
  // A gather blocked on a dead device's rows would never see the death
  // (only the pump drains the control mailbox): the interrupt hook keeps
  // the lease books fed from inside the gather's receive loop and reports
  // a pending death so the gather bails out for recovery.
  ctx.interrupt = [&] {
    drain_control();
    std::lock_guard lk(mu_);
    for (auto& [id, s] : streams_) {
      if (s.controller != nullptr && s.controller->death_pending()) {
        return true;
      }
    }
    return false;
  };

  // Membership recovery, door flavour (DESIGN.md §membership): announce the
  // change fleet-wide, void the in-flight window on a death and hand those
  // inputs back to their streams' queues (front, original submit stamps —
  // they re-dispatch under fresh seqs before anything newer), and re-aim
  // every live lane at a survivor strategy. The decision's own stream gets
  // the freshly planned strategy; other streams get their current strategy
  // masked over the survivors (their controllers, if any, will refine it).
  const auto recover = [&](int owner_stream, const ctrl::SwapDecision& d) {
    const bool death = !d.died.empty();
    rpc::MembershipMsg msg;
    msg.cancel_below =
        death ? next_seq
              : (inflight.empty() ? next_seq : inflight.front().seq);
    msg.resume_seq = next_seq;
    msg.died = d.died;
    for (const auto node : d.joined) {
      ++join_count;
      msg.joined.push_back(rpc::MembershipJoin{
          node, static_cast<std::uint32_t>(join_count) << 24});
    }
    for (const auto node : d.died) dead[static_cast<std::size_t>(node)] = true;
    for (const auto node : d.joined) {
      dead[static_cast<std::size_t>(node)] = false;
    }
    runtime::apply_membership_local(ctx, msg);
    for (int k = 0; k < n_devices_; ++k) {
      if (dead[static_cast<std::size_t>(k)]) continue;
      runtime::post_membership(ctx, static_cast<rpc::NodeId>(k), msg);
    }
    std::lock_guard lk(mu_);
    if (death && !inflight.empty()) {
      stats_.images_cancelled.fetch_add(
          static_cast<std::int64_t>(inflight.size()),
          std::memory_order_relaxed);
      for (auto it = inflight.rbegin(); it != inflight.rend(); ++it) {
        Stream& s = streams_.at(it->stream);
        s.inputs.emplace_front(std::move(it->input), it->t0);
        ++s.credits;
      }
      inflight.clear();
    }
    for (auto& [id, s] : streams_) {
      if (!s.lane_open && s.inputs.empty()) continue;
      if (id == owner_stream) {
        s.pending_swap = d.strategy;
        continue;
      }
      const sim::RawStrategy& base =
          s.current.volumes.empty()
              ? fleet_[static_cast<std::size_t>(s.model_id)].strategy
              : s.current;
      s.pending_swap = ctrl::mask_strategy(base, dead);
    }
  };

  try {
    for (;;) {
      // 1. Feed the per-tenant controllers, then run any membership
      //    recovery they decided on — before dispatching anything new, so
      //    re-queued inputs go out under the survivor strategy.
      drain_control();
      {
        std::vector<std::pair<int, ctrl::Controller*>> pending;
        {
          std::lock_guard lk(mu_);
          for (auto& [id, s] : streams_) {
            if (s.controller != nullptr && s.controller->membership_pending()) {
              pending.emplace_back(id, s.controller);
            }
          }
        }
        for (auto& [id, controller] : pending) {
          if (auto decision = controller->take_swap()) {
            if (decision->membership()) recover(id, *decision);
          }
        }
      }

      // 1b. Lane GC: a closed stream whose window fully drained will never
      //     dispatch again — reclaim its epoch lane here and tell every
      //     (live) provider to do the same once its cursor passes the
      //     stream's last image. Without this, long-gone streams pin their
      //     whole epoch history for the life of the fleet.
      {
        std::vector<int> evictable;
        {
          std::lock_guard lk(mu_);
          for (auto& [id, s] : streams_) {
            if (s.closed && s.lane_open && !s.evicted && s.inputs.empty() &&
                s.credits == s.window) {
              s.evicted = true;
              evictable.push_back(id);
            }
          }
        }
        for (const int id : evictable) {
          ctx.lanes.erase(id);
          for (int k = 0; k < n_devices_; ++k) {
            if (dead[static_cast<std::size_t>(k)]) continue;
            runtime::post_lane_evict(
                ctx, static_cast<rpc::NodeId>(k),
                rpc::LaneEvictMsg{0, 0, id, next_seq});
          }
        }
      }

      // 2. Fair dispatch under the depth cap: while fewer than `cap`
      //    images are dispatched but not yet gathered, the next slot goes
      //    to the stream with the smallest finish tag (detail::fair_pick),
      //    so a cheap tenant's image is not queued behind a heavy tenant's
      //    backlog and an idle stream banks no service. A credit-starved
      //    (slow-consumer) stream is skipped without stalling the others.
      //    Credits are consumed here, at dispatch.
      std::vector<Job> batch;
      {
        std::lock_guard lk(mu_);
        const auto head = [](const Stream& s) {
          return s.inputs.empty() ? Clock::time_point{}
                                  : s.inputs.front().second;
        };
        fair.clear();
        fair_streams.clear();
        for (auto& [id, s] : streams_) {
          // Credit-stall accounting: one tick per pump round a stream sat
          // with queued input it had no credits to dispatch (slow consumer
          // — the pump skips it rather than letting it block the others).
          if (s.credits <= 0 && !s.inputs.empty()) ++s.credit_stalls;
          fair.push_back(detail::FairEntry{s.cost, s.finish,
                                           static_cast<int>(s.inputs.size()),
                                           s.credits, head(s), s.backlogged});
          fair_streams.emplace_back(id, &s);
        }
        for (;;) {
          const int k = detail::fair_pick(
              fair, vtime, static_cast<int>(inflight.size() + batch.size()),
              cap);
          if (k < 0) break;
          auto& [id, s] = fair_streams[static_cast<std::size_t>(k)];
          batch.push_back(Job{id, s->model_id,
                              std::move(s->inputs.front().first),
                              s->inputs.front().second});
          s->inputs.pop_front();
          --s->credits;
          auto& e = fair[static_cast<std::size_t>(k)];
          e.queued = static_cast<int>(s->inputs.size());
          e.credits = s->credits;
          e.head = head(*s);
        }
        for (std::size_t k = 0; k < fair.size(); ++k) {
          fair_streams[k].second->finish = fair[k].finish;
          fair_streams[k].second->backlogged = fair[k].backlogged;
        }
      }
      if (!batch.empty()) cv_client_.notify_all();  // queue room freed
      for (auto& job : batch) {
        prepare_lane(ctx, job.stream, next_seq);
        runtime::scatter_image(ctx, job.stream, next_seq, job.input);
        inflight.push_back(InFlight{job.stream, job.model_id, next_seq,
                                    std::move(job.input), job.t0});
        ++next_seq;
      }

      // 3. Gather the oldest in-flight image (global seq order; later
      //    images' chunks park in the context stash meanwhile).
      if (!inflight.empty()) {
        InFlight job = std::move(inflight.front());
        inflight.pop_front();
        const TenantSpec& tenant =
            fleet_[static_cast<std::size_t>(job.model_id)];
        cnn::Tensor out;
        const auto gathered =
            runtime::gather_image(ctx, job.seq, *tenant.model, out);
        if (gathered == runtime::GatherStatus::kInterrupted) {
          // A death is pending: put the image back (its input survives for
          // re-dispatch) and let the top of the loop run the recovery.
          inflight.push_front(std::move(job));
          continue;
        }
        if (gathered == runtime::GatherStatus::kFailed) {
          failed = true;
          break;
        }
        runtime::retire_below(ctx, job.seq + 1);
        const double latency_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - job.t0)
                .count();
        std::shared_ptr<obs::SloWindow> slo;
        {
          std::lock_guard lk(mu_);
          Stream& s = streams_.at(job.stream);
          s.outputs.push_back(std::move(out));
          s.latency_ms.push_back(latency_ms);
          slo = s.slo;
          runtime::sample_queue_depths(door_, rtx_, registry_);
        }
        // Recorded outside mu_: SloWindow has its own lock, and holding
        // both here would order them against the /streams handler.
        if (slo) slo->record_ms(latency_ms);
        cv_client_.notify_all();
        continue;
      }

      // 4. Idle: wait for a dispatchable submission or shutdown. Streams
      //    whose consumers stopped popping hold queued inputs but no
      //    credits; they are not dispatchable and cannot hold the pump (or
      //    the other streams) hostage. The wait is bounded so an idle door
      //    still pumps heartbeats into the tenant controllers — a device
      //    dying (or rejoining) between streams must not go unnoticed until
      //    the next submission.
      std::unique_lock lk(mu_);
      const auto dispatchable = [&] {
        for (const auto& [id, s] : streams_) {
          if (!s.inputs.empty() && s.credits > 0) return true;
        }
        return false;
      };
      if (closing_ && !dispatchable()) break;
      cv_pump_.wait_for(lk, std::chrono::milliseconds(5),
                        [&] { return closing_ || dispatchable(); });
      if (closing_ && !dispatchable()) break;
    }
  } catch (...) {
    failed = true;
  }

  // End of serving: release the (always-streaming) providers, then stop the
  // retransmitter while the transport is still up.
  try {
    for (int i = 0; i < n_devices_; ++i) {
      door_.send(runtime::data_addr(i), rpc::encode_shutdown());
    }
  } catch (...) {
    // Transport already down — the providers were torn down with it.
  }
  {
    // The retransmitter dies with this frame: null the scrape pointer
    // first, under the same lock the /metrics handler samples through.
    std::lock_guard lk(mu_);
    rtx_ = nullptr;
  }
  if (rtx) rtx->stop();
  stats_.frame_allocs.fetch_add(ctx.arena.stats().allocated,
                                std::memory_order_relaxed);
  {
    std::lock_guard lk(mu_);
    if (failed) down_ = true;
    closing_ = true;
    for (auto& [id, s] : streams_) s.closed = true;
  }
  cv_client_.notify_all();
}

namespace detail {

int fair_pick(std::span<FairEntry> entries, Ops& vtime, int inflight,
              int cap) {
  FairEntry* best = nullptr;
  for (FairEntry& e : entries) {
    const bool ready = e.queued > 0 && e.credits > 0;
    // The restart happens once, on becoming ready. An entry that stays
    // ready keeps its tag however far vtime moves; re-taking the max at
    // every pick would float its tag with vtime and starve any stream
    // costing more than twice one that is always ready.
    if (ready && !e.backlogged) e.finish = std::max(e.finish, vtime);
    e.backlogged = ready;
    if (!ready) continue;
    if (best == nullptr || e.finish + e.cost < best->finish + best->cost ||
        (e.finish + e.cost == best->finish + best->cost &&
         e.head < best->head)) {
      best = &e;
    }
  }
  if (best == nullptr || inflight >= cap) return -1;
  vtime = std::max(vtime, best->finish);
  best->finish += best->cost;
  return static_cast<int>(best - entries.data());
}

}  // namespace detail

}  // namespace de::serve
