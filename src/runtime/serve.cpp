#include "runtime/serve.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "common/require.hpp"
#include "ctrl/controller.hpp"
#include "obs/admin.hpp"
#include "obs/prometheus.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "runtime/fabric.hpp"
#include "runtime/runtime_metrics.hpp"
#include "sim/fault_model.hpp"

namespace de::runtime {

namespace {

/// Registered admin routes, unrouted as a unit before the serving loop's
/// handler-captured locals die (teardown). unroute() is a barrier: after
/// release() returns no scrape thread is inside any of these handlers.
struct RouteGuard {
  obs::AdminServer* admin = nullptr;
  std::vector<std::string> paths;

  void add(const std::string& path, obs::AdminHandler handler) {
    admin->route(path, std::move(handler));
    paths.push_back(path);
  }
  void release() {
    if (admin == nullptr) return;
    for (const auto& path : paths) admin->unroute(path);
    paths.clear();
  }
};

}  // namespace

ServeResult serve_stream(const cnn::CnnModel& model,
                         const sim::RawStrategy& strategy,
                         const std::vector<cnn::ConvWeights>& weights,
                         std::span<const cnn::Tensor> inputs, int n_devices,
                         const ServeOptions& options) {
  DE_REQUIRE(!inputs.empty(), "serve_stream needs at least one image");
  DE_REQUIRE(options.inflight >= 1, "need at least one image in flight");
  DE_REQUIRE(options.faults == nullptr || options.reliability.enabled,
             "fault injection without the reliability protocol would hang "
             "the chunk accounting — enable ServeOptions::reliability");
  DE_REQUIRE(std::is_sorted(options.swaps.begin(), options.swaps.end(),
                            [](const ScriptedSwap& a, const ScriptedSwap& b) {
                              return a.at_image < b.at_image;
                            }),
             "scripted swaps must be sorted by at_image");
  DE_REQUIRE(std::is_sorted(options.chaos.begin(), options.chaos.end(),
                            [](const ChaosEvent& a, const ChaosEvent& b) {
                              return a.at_image < b.at_image;
                            }),
             "chaos events must be sorted by at_image");
  DE_REQUIRE(options.chaos.empty() ||
                 (options.faults != nullptr && options.controller != nullptr &&
                  options.heartbeat_ms > 0),
             "a chaos schedule needs a fault-decorated fabric (the kill "
             "switch lives on the fault decorators), heartbeats, and a "
             "lease-tracking controller to observe the deaths");
  for (const auto& input : inputs) {
    validate_cluster_inputs(model, weights, input);
  }
  // Validates the strategy before any thread starts.
  const auto plan = build_transfer_plan(model, strategy, n_devices);
  const int n_images = static_cast<int>(inputs.size());
  const int telemetry_every =
      options.telemetry_every > 0
          ? options.telemetry_every
          : (options.controller != nullptr || options.trace != nullptr ? 1
                                                                       : 0);

  auto fabric = make_fabric(n_devices, options.use_tcp, options.faults,
                            DataPlaneMode::kOverlapZeroCopy, options.shaping);
  DataPlaneStats stats;
  // The stream is lane 0 of the shared provider loop, serving model 0.
  constexpr int kStream = 0;
  const TenantModel tenant{&model, &weights};
  Supervisor supervisor = spawn_providers_multi(
      fabric, n_devices, std::span<const TenantModel>(&tenant, 1), stats,
      options.reliability, options.exec, telemetry_every,
      options.heartbeat_ms, options.provider_max_restarts);

  ServeResult result;
  result.images = n_images;
  result.per_image.reserve(static_cast<std::size_t>(n_images));

  const int requester_node = plan.requester_node();
  obs::bind_thread("requester", requester_node);
  const std::int64_t requester_origin =
      fabric.node_origin_us[static_cast<std::size_t>(requester_node)];

  // Per-run registry: the data-plane totals fold in at the end; the gather
  // latency histogram records live (one lookup here, lock-free records).
  obs::MetricsRegistry registry;
  obs::Histogram& gather_latency =
      registry.histogram(kMetricGatherLatencyUs);
  obs::Histogram& image_latency = registry.histogram(kMetricImageLatencyUs);
  // Live stream counters: written per delivery (lock-free sets) so a
  // /metrics scrape mid-stream sees current values, re-set at the end with
  // the final totals.
  obs::Counter& images_counter = registry.counter(kMetricStreamImages);
  obs::Gauge& ips_gauge = registry.gauge(kMetricStreamIps);
  obs::Gauge& wall_gauge = registry.gauge(kMetricStreamWallS);
  // Ops-plane stream state (scrape threads read, the serving loop writes).
  obs::SloWindow slo(256, options.slo_ms);
  std::atomic<int> pub_delivered{0};
  std::atomic<int> pub_inflight{0};
  std::atomic<int> pub_last_epoch{-1};

  RequesterContext ctx(fabric.requester(), n_devices, stats,
                       options.reliability);
  std::unique_ptr<Retransmitter> rtx;
  if (options.reliability.enabled) {
    rtx = std::make_unique<Retransmitter>(fabric.requester(),
                                          options.reliability, stats);
    ctx.rtx = rtx.get();
  }
  if (options.controller != nullptr) {
    if (options.trace != nullptr) {
      // The controller drains the telemetry mailbox, so it must also be the
      // one collecting the frames' steady-clock samples.
      options.controller->set_clock_sync(&options.trace->sync,
                                         requester_origin);
    }
    options.controller->start(fabric.requester(), strategy,
                              fabric.sampler(plan.requester_node()));
  }

  // Live ops plane: register the endpoint routes before the first scatter
  // so a scraper sees the stream from birth. Handlers capture serving-loop
  // state by reference — safe because RouteGuard::release() (first act of
  // teardown) is a barrier past which no scrape thread is inside them.
  RouteGuard routes{options.admin};
  if (options.admin != nullptr) {
    // Flight-recorder mode: arm the always-on rings if nobody has yet, and
    // deliberately leave them enabled at teardown — the recorder keeps
    // covering the gap until the next stream (or /trace/dump) wants history.
    if (!obs::TraceRecorder::instance().enabled()) {
      obs::TraceRecorder::instance().enable();
    }
    // Lease ages must be judged on the clock the controller stamps receive
    // times with: origin-rebased when the trace sync is wired, raw
    // obs::now_us() otherwise (clock_origin_us defaults to 0).
    const std::int64_t hb_origin =
        options.trace != nullptr && options.controller != nullptr
            ? requester_origin
            : 0;
    routes.add("/healthz", [](std::string_view) {
      return obs::HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
    });
    routes.add("/metrics", [&](std::string_view) {
      // The data-plane fold uses set(), so re-folding per scrape is
      // idempotent; live stream counters were set at the last delivery.
      fold_data_plane_metrics(stats, registry);
      sample_queue_depths(fabric.requester(), ctx.rtx, registry);
      return obs::HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                               obs::to_prometheus(registry.snapshot())};
    });
    routes.add("/membership", [&options, &pub_last_epoch,
                               hb_origin](std::string_view) {
      if (options.controller == nullptr) {
        return obs::HttpResponse{200, "application/json; charset=utf-8",
                                 "{\"devices\":[]}\n"};
      }
      const auto view =
          options.controller->membership_view(obs::now_us() - hb_origin);
      return obs::HttpResponse{
          200, "application/json; charset=utf-8",
          ctrl::membership_json(view,
                               pub_last_epoch.load(std::memory_order_relaxed))};
    });
    routes.add("/streams", [&](std::string_view) {
      const auto st = slo.stats();
      std::string body = "{\"streams\":[{\"stream\":0";
      body += ",\"delivered\":" +
              std::to_string(pub_delivered.load(std::memory_order_relaxed));
      body += ",\"inflight\":" +
              std::to_string(pub_inflight.load(std::memory_order_relaxed));
      body += ",\"window\":" + std::to_string(options.inflight);
      body += ",\"p50_ms\":" + std::to_string(st.p50_ms);
      body += ",\"p95_ms\":" + std::to_string(st.p95_ms);
      body += ",\"p99_ms\":" + std::to_string(st.p99_ms);
      body += ",\"slo_ms\":" + std::to_string(st.target_ms);
      body += ",\"slo_violations\":" + std::to_string(st.violations);
      body += ",\"credit_stalls\":0}]}\n";
      return obs::HttpResponse{200, "application/json; charset=utf-8",
                               std::move(body)};
    });
    routes.add("/trace/dump", [&fabric, &options](std::string_view query) {
      double seconds = 10.0;  // default retention window
      if (const auto s = obs::query_param(query, "s"); s.has_value()) {
        seconds = std::atof(std::string(*s).c_str());
      }
      // A fresh capture per dump: the recorder rings are snapshot-safe
      // while writers are live, and the sync book (non-copyable) is rebuilt
      // from the stream's collected samples so the merge rebases remote
      // clocks exactly like the end-of-run export does.
      obs::TraceCapture cap;
      cap.dump = obs::TraceRecorder::instance().snapshot();
      cap.node_origin_us = fabric.node_origin_us;
      if (options.trace != nullptr) {
        for (const auto& s : options.trace->sync.samples()) {
          cap.sync.ingest(s.node, s.reported_us, s.received_us);
        }
      }
      auto merged = obs::trim_to_window(
          obs::merge_capture(cap),
          seconds > 0 ? static_cast<std::int64_t>(seconds * 1e6) : 0);
      std::ostringstream os;
      obs::write_chrome_trace(os, merged);
      return obs::HttpResponse{200, "application/json; charset=utf-8",
                               os.str()};
    });
  }

  // Shared teardown: unroute the admin handlers (barrier — everything they
  // capture may die after), stop the controller (it reads the requester
  // transport), release every provider, close the fabric, join. Nothing
  // may unwind past the live provider threads — a joinable std::thread's
  // destructor is std::terminate.
  const auto teardown = [&] {
    routes.release();
    if (options.controller != nullptr) options.controller->stop();
    if (rtx) rtx->stop();
    fabric.shutdown_all();
    supervisor.join_all();
  };

  const auto t0 = std::chrono::steady_clock::now();
  const auto stream_s = [&t0] {
    return std::chrono::duration_cast<std::chrono::duration<double>>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  // Registers and announces `next` as the lane's epoch from `from_seq` on.
  const auto push_epoch_at = [&](const sim::RawStrategy& next, int from_seq) {
    return push_stream_epoch(ctx, kStream, /*model_id=*/0, model, next,
                             from_seq);
  };
  // The initial strategy is the lane's first epoch, announced like any
  // swap; the strategy was validated above, so this cannot throw past the
  // live providers.
  push_epoch_at(strategy, 0);
  // Cut the stream over to `next` starting at the first unscattered image.
  const auto swap_now = [&](const sim::RawStrategy& next, int from_seq,
                            Ms pred_serving, Ms pred_next) {
    const int epoch = push_epoch_at(next, from_seq);
    pub_last_epoch.store(epoch, std::memory_order_relaxed);
    result.reconfigurations.push_back(
        ReconfigEvent{epoch, from_seq, stream_s(), pred_serving, pred_next});
  };
  std::size_t next_scripted = 0;

  // The dispatch state that makes re-dispatch possible: global seqs are
  // allocated forever forward, and the binding seq -> input index lives in
  // `inflight` (scatter order). A membership death voids the whole in-flight
  // window — the same inputs go back to the front of `todo` and out again
  // under fresh seqs, so no image is ever lost or delivered twice.
  std::deque<int> todo;  // input indices not yet (re-)dispatched
  for (int idx = 0; idx < n_images; ++idx) todo.push_back(idx);
  // One in-flight image: its global seq, its input index, and when its
  // (first) scatter began — the submit->deliver clock the SLO window and
  // the stream.image_latency_us histogram run on.
  struct InflightImage {
    int seq = 0;
    int idx = 0;
    std::int64_t scattered_us = 0;
  };
  std::deque<InflightImage> inflight;
  int next_seq = 0;
  int delivered = 0;
  int join_count = 0;
  std::size_t next_chaos = 0;
  if (options.keep_outputs) result.outputs.resize(inputs.size());

  if (options.controller != nullptr) {
    // Death decisions may interrupt a *blocked* gather: the rows the gather
    // is waiting for are on a dead device and will never arrive, and the
    // interrupted image is about to be cancelled anyway. Pure joins never
    // interrupt (an interrupted gather cannot resume — its consumed chunks
    // are gone), they wait for the next image boundary.
    ctx.interrupt = [&options] {
      return options.controller->death_pending();
    };
  }

  // Membership recovery: cancel the in-flight window, announce the change
  // to the survivors (the dead get nothing — a tracked frame to them only
  // churns the retransmit budget), cut the fleet over to the survivor
  // strategy, and re-dispatch the voided inputs under fresh seqs.
  const auto recover = [&](const ctrl::SwapDecision& d) {
    const bool death = !d.died.empty();
    rpc::MembershipMsg msg;
    // A death voids every in-flight image (split-compute: the dead device
    // owned a slice of each); a pure join voids nothing — the floor is
    // simply the oldest still-ungathered seq, below which everything is
    // already delivered.
    msg.cancel_below =
        death ? next_seq
              : (inflight.empty() ? next_seq : inflight.front().seq);
    msg.resume_seq = next_seq;
    msg.died = d.died;
    for (const auto node : d.joined) {
      // One fresh chunk-id incarnation per adoption: the joiner's outgoing
      // ids jump above every id of its previous life, and peers
      // fast-forward their dedup so the new ids are never mistaken for
      // replays (or worse, acked-and-dropped below a stale watermark).
      ++join_count;
      msg.joined.push_back(rpc::MembershipJoin{
          node, static_cast<std::uint32_t>(join_count) << 24});
    }
    apply_membership_local(ctx, msg);
    for (int k = 0; k < n_devices; ++k) {
      const auto node = static_cast<rpc::NodeId>(k);
      if (std::find(msg.died.begin(), msg.died.end(), node) !=
          msg.died.end()) {
        continue;
      }
      post_membership(ctx, node, msg);
    }
    int cancelled = 0;
    if (death) {
      cancelled = static_cast<int>(inflight.size());
      stats.images_cancelled.fetch_add(cancelled, std::memory_order_relaxed);
      for (auto it = inflight.rbegin(); it != inflight.rend(); ++it) {
        todo.push_front(it->idx);  // reverse walk keeps dispatch order
      }
      inflight.clear();
    }
    const int epoch = push_epoch_at(d.strategy, next_seq);
    pub_last_epoch.store(epoch, std::memory_order_relaxed);
    result.reconfigurations.push_back(ReconfigEvent{
        epoch, next_seq, stream_s(), d.predicted_serving_ms,
        d.predicted_next_ms, static_cast<int>(d.died.size()),
        static_cast<int>(d.joined.size()), cancelled});
  };

  // Pops the controller's pending decision, routing membership decisions
  // through recovery and plain drift swaps through a regular epoch push.
  const auto poll_controller = [&] {
    if (options.controller == nullptr) return;
    if (auto decision = options.controller->take_swap()) {
      if (decision->membership()) {
        recover(*decision);
      } else {
        swap_now(decision->strategy, next_seq, decision->predicted_serving_ms,
                 decision->predicted_next_ms);
      }
    }
  };

  while (delivered < n_images) {
    // History below the oldest ungathered seq is dead: epochs nothing
    // references and (after a cancellation) the voided dispatch window.
    retire_below(ctx, inflight.empty() ? next_seq : inflight.front().seq);
    // Chaos events are keyed on the delivered count, so a schedule is
    // deterministic under any timing: "kill node 2 after 8 deliveries".
    while (next_chaos < options.chaos.size() &&
           options.chaos[next_chaos].at_image <= delivered) {
      const ChaosEvent& ev = options.chaos[next_chaos];
      fabric.set_node_down(ev.node, ev.kill);
      result.chaos_applied_at_s.push_back(stream_s());
      ++next_chaos;
    }
    try {
      if (options.controller != nullptr &&
          options.controller->membership_pending()) {
        poll_controller();
      }
      while (!todo.empty() &&
             static_cast<int>(inflight.size()) < options.inflight) {
        // Swaps land exactly here — between two scatters — so every image
        // runs wholly under one epoch. Scripted swaps key on the global
        // scatter count (identical to the input index on a stable fleet).
        while (next_scripted < options.swaps.size() &&
               options.swaps[next_scripted].at_image <= next_seq) {
          swap_now(options.swaps[next_scripted].strategy, next_seq, 0, 0);
          ++next_scripted;
        }
        if (options.controller != nullptr) {
          if (auto decision = options.controller->take_swap()) {
            if (decision->membership()) {
              recover(*decision);
              break;  // the in-flight window changed: re-enter the fill loop
            }
            swap_now(decision->strategy, next_seq,
                     decision->predicted_serving_ms,
                     decision->predicted_next_ms);
          }
        }
        const int idx = todo.front();
        todo.pop_front();
        const std::int64_t scattered_us = obs::now_us();
        scatter_image(ctx, kStream, next_seq,
                      inputs[static_cast<std::size_t>(idx)]);
        inflight.push_back({next_seq, idx, scattered_us});
        ++next_seq;
      }
    } catch (...) {
      // A swap's strategy failed plan building/validation (bad scripted
      // input or a buggy planner). Tear down before rethrowing — never
      // unwind past live threads.
      teardown();
      throw;
    }
    if (inflight.empty()) continue;  // recovery emptied the window: refill
    const auto [seq, idx, scattered_us] = inflight.front();
    cnn::Tensor output;
    ImageRetryStats retry;
    const std::int64_t gather_t0 = obs::now_us();
    const GatherStatus gathered = gather_image(ctx, seq, model, output, &retry);
    gather_latency.record(obs::now_us() - gather_t0);
    switch (gathered) {
      case GatherStatus::kInterrupted:
        continue;  // pending death: the top of the loop runs the recovery
      case GatherStatus::kFailed: {
        // A provider failed (its barrier shut the fabric down), a peer sent
        // plan-mismatched chunks, or the gather starved past its timeout
        // budget. A provider's own failure reason rides along.
        teardown();
        const std::string cause = supervisor.stats().first_escalation;
        throw Error(
            "stream transport shut down or starved mid-gather (image " +
            std::to_string(idx) + " of " + std::to_string(n_images) + ")" +
            (cause.empty() ? "" : ": " + cause));
      }
      case GatherStatus::kOk:
        break;
    }
    inflight.pop_front();
    ++delivered;
    result.delivered_at_s.push_back(stream_s());
    result.per_image.push_back(retry);
    // Publish the delivery to the ops plane: submit->deliver latency into
    // the histogram and the SLO window, live stream counters a /metrics or
    // /streams scrape reads mid-flight.
    const std::int64_t image_lat_us = obs::now_us() - scattered_us;
    image_latency.record(image_lat_us);
    slo.record_ms(static_cast<double>(image_lat_us) / 1000.0);
    pub_delivered.store(delivered, std::memory_order_relaxed);
    pub_inflight.store(static_cast<int>(inflight.size()),
                       std::memory_order_relaxed);
    images_counter.set(delivered);
    const double so_far_s = stream_s();
    wall_gauge.set(so_far_s);
    ips_gauge.set(so_far_s > 0 ? delivered / so_far_s : 0.0);
    if (options.admin != nullptr) {
      sample_queue_depths(fabric.requester(), ctx.rtx, registry);
    }
    if (options.keep_outputs) {
      // Indexed by *input*, not delivery order: a re-dispatched image must
      // land in its own slot for the bit-exactness gate to compare.
      result.outputs[static_cast<std::size_t>(idx)] = std::move(output);
    }
    if (telemetry_every > 0 && options.controller == nullptr) {
      // Telemetry was requested with nobody else to read it: drain the
      // mailbox here (or it grows for the life of the stream). A traced run
      // mines each frame for its steady-clock sample first.
      while (auto frame = fabric.requester().try_receive(
                 rpc::kTelemetryMailbox)) {
        if (options.trace == nullptr) continue;
        try {
          const rpc::TelemetryMsg msg = rpc::decode_telemetry(*frame);
          if (msg.steady_now_us > 0) {
            options.trace->sync.ingest(msg.from_node, msg.steady_now_us,
                                       obs::now_us() - requester_origin);
          }
        } catch (const Error&) {
          // Malformed telemetry: ignore, exactly like the controller does.
        }
      }
    }
  }
  const auto t1 = std::chrono::steady_clock::now();

  // End of stream: announce shutdown to every provider (best-effort — the
  // frame may be faulted away) before the common teardown closes the
  // fabric, which releases any provider that missed the frame. Only then
  // join: a provider blocked on a lost shutdown frame would otherwise
  // starve for its full timeout budget.
  for (int i = 0; i < n_devices; ++i) {
    fabric.requester().send(data_addr(i), rpc::encode_shutdown());
  }
  teardown();

  result.wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();
  result.measured_ips =
      result.wall_s > 0 ? static_cast<double>(n_images) / result.wall_s : 0.0;
  stats.frame_allocs.fetch_add(ctx.arena.stats().allocated,
                               std::memory_order_relaxed);

  if (options.trace != nullptr) {
    // Everything merge_capture needs: the event dump, each node's clock
    // origin, and the sync samples collected above (or by the controller).
    options.trace->node_origin_us = fabric.node_origin_us;
    options.trace->dump = obs::TraceRecorder::instance().snapshot();
    // Critical-path attribution runs on the merged timeline; the per-device
    // straggler scores also land in the registry (before the snapshot
    // below) so they ride the same /metrics channel as everything else.
    result.attribution =
        obs::attribute_critical_paths(obs::merge_capture(*options.trace));
    for (const auto& dev : result.attribution.devices) {
      registry
          .gauge(std::string(kMetricStragglerScore) +
                 "{node=" + std::to_string(dev.node) + "}")
          .set(dev.score);
    }
  }

  // Fold the data-plane totals and the stream extras into the registry,
  // snapshot once, and fill the compatibility scalars from the snapshot —
  // the canonical names are the same ones run_distributed{,_tcp} report.
  fold_data_plane_metrics(stats, registry);
  registry.counter(kMetricStreamImages).set(n_images);
  registry.gauge(kMetricStreamWallS).set(result.wall_s);
  registry.gauge(kMetricStreamIps).set(result.measured_ips);
  registry.counter(kMetricStreamReconfigs)
      .set(static_cast<std::int64_t>(result.reconfigurations.size()));
  result.metrics = registry.snapshot();
  result.messages_exchanged = result.metrics.counter(kMetricMessages);
  result.bytes_moved = result.metrics.counter(kMetricPayloadBytes);
  result.wire_bytes = result.metrics.counter(kMetricWireBytes);
  result.bytes_copied = result.metrics.counter(kMetricBytesCopied);
  result.frame_allocs = result.metrics.counter(kMetricFrameAllocs);
  result.retransmits = result.metrics.counter(kMetricRetransmits);
  result.duplicates_dropped = result.metrics.counter(kMetricDupsDropped);
  result.recv_timeouts = result.metrics.counter(kMetricRecvTimeouts);
  result.nacks = result.metrics.counter(kMetricNacks);
  result.chunks_abandoned =
      result.metrics.counter(kMetricChunksAbandoned);
  result.retx_cancelled =
      stats.retx_cancelled.load(std::memory_order_relaxed);
  result.images_cancelled =
      stats.images_cancelled.load(std::memory_order_relaxed);
  result.provider_restarts = supervisor.stats().restarts;
  if (options.controller != nullptr) {
    const auto cstats = options.controller->stats();
    result.deaths = cstats.deaths;
    result.joins = cstats.joins;
    result.heartbeats = cstats.heartbeats;
  }

  if (options.latency != nullptr && options.network != nullptr) {
    sim::StreamOptions stream;
    stream.n_images = n_images;
    sim::LinkFaultModel mirror;
    if (options.faults != nullptr) {
      mirror = sim::mirror_faults(options.faults->drop_prob,
                                  options.faults->dup_prob,
                                  options.faults->delay_prob,
                                  0.5 * (options.faults->delay_min_ms +
                                         options.faults->delay_max_ms),
                                  options.reliability.rto_ms,
                                  options.reliability.max_attempts);
      stream.faults = &mirror;
    }
    const auto predicted = sim::stream_images(model, strategy, *options.latency,
                                              *options.network, stream);
    result.predicted_ips = predicted.ips;
  }
  return result;
}

}  // namespace de::runtime
