// runtime::serve_stream (runtime/serve.hpp) as a client of a one-stream
// serve::StreamServer: the fabric and providers are built for the run, the
// stream's window is `inflight`, and the door's pump does the serving.
#include "runtime/serve.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "common/require.hpp"
#include "ctrl/controller.hpp"
#include "obs/trace.hpp"
#include "runtime/fabric.hpp"
#include "runtime/runtime_metrics.hpp"
#include "serve/stream_server.hpp"
#include "sim/fault_model.hpp"

namespace de::runtime {

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
  const TenantModel tenant{&model, &weights};
  Supervisor supervisor = spawn_providers_multi(
      fabric, n_devices, std::span<const TenantModel>(&tenant, 1), stats,
      options.reliability, options.exec, telemetry_every,
      options.heartbeat_ms, options.provider_max_restarts);

  // The door's capture: the caller's, or with only an ops plane a local one
  // carrying the node origins /trace/dump needs.
  obs::TraceCapture local_trace;
  obs::TraceCapture* trace =
      options.trace != nullptr ? options.trace
      : options.admin != nullptr ? &local_trace
                                 : nullptr;
  if (trace != nullptr) trace->node_origin_us = fabric.node_origin_us;
  const serve::TenantSpec spec{&model, &weights, strategy};
  serve::StreamServerOptions door_options;
  door_options.max_streams = 1;
  door_options.reliability = options.reliability;
  door_options.admin = options.admin;
  door_options.slo_ms = options.slo_ms;
  door_options.trace = trace;
  serve::StreamServer door(fabric.requester(), n_devices,
                           std::span<const serve::TenantSpec>(&spec, 1),
                           stats, door_options);
  // Closing the door sends every provider kShutdown (best-effort — the
  // frame may be faulted away); closing the fabric then releases any that
  // missed it before the join. Nothing may unwind past the live provider
  // threads — a joinable std::thread's destructor is std::terminate.
  const auto teardown = [&] {
    door.close();
    fabric.shutdown_all();
    supervisor.join_all();
  };
  const int stream = door.open_stream(0, options.inflight);
  if (options.controller != nullptr) {
    options.controller->start(strategy,
                              fabric.sampler(plan.requester_node()));
    door.attach_controller(stream, options.controller);
  }

  ServeResult result;
  result.images = n_images;
  const auto t0 = std::chrono::steady_clock::now();
  const auto stream_s = [&t0] {
    using namespace std::chrono;
    return duration<double>(steady_clock::now() - t0).count();
  };
  int delivered = 0;  // short of n_images only if the door went down
  try {
    int submitted = 0;
    std::size_t next_swap = 0;
    std::size_t next_chaos = 0;
    while (delivered < n_images) {
      // Chaos events are keyed on the delivered count, so a schedule is
      // deterministic under any timing: "kill node 2 after 8 deliveries".
      for (; next_chaos < options.chaos.size() &&
             options.chaos[next_chaos].at_image <= delivered;
           ++next_chaos) {
        fabric.set_node_down(options.chaos[next_chaos].node,
                             options.chaos[next_chaos].kill);
        result.chaos_applied_at_s.push_back(stream_s());
      }
      // At most K images between submit and pop, so submit never blocks.
      for (; submitted < n_images && submitted - delivered < options.inflight;
           ++submitted) {
        // A scripted swap is pinned to the image it names.
        for (; next_swap < options.swaps.size() &&
               options.swaps[next_swap].at_image <= submitted;
             ++next_swap) {
          door.swap_strategy(stream, options.swaps[next_swap].strategy);
        }
        // Non-owning: the caller's inputs outlive the door.
        door.submit(stream, std::shared_ptr<const cnn::Tensor>(
                                std::shared_ptr<void>(),
                                &inputs[static_cast<std::size_t>(submitted)]));
      }
      auto output = door.pop(stream);
      if (!output.has_value()) break;
      ++delivered;
      result.delivered_at_s.push_back(stream_s());
      if (options.keep_outputs) result.outputs.push_back(std::move(*output));
    }
  } catch (...) {
    // A scripted swap's strategy failed validation.
    teardown();
    throw;
  }
  result.wall_s = stream_s();
  teardown();
  if (delivered < n_images) {
    // A provider failed (its barrier shut the fabric down), a peer sent
    // plan-mismatched chunks, or the gather starved past its timeout
    // budget. A provider's own failure reason rides along.
    const std::string cause = supervisor.stats().first_escalation;
    throw Error("stream transport shut down or starved mid-gather (image " +
                std::to_string(delivered) + " of " +
                std::to_string(n_images) + ")" +
                (cause.empty() ? "" : ": " + cause));
  }
  result.measured_ips =
      result.wall_s > 0 ? static_cast<double>(n_images) / result.wall_s : 0.0;
  result.reconfigurations = door.snapshot(stream).reconfigurations;

  // The run's extras beside the door's registry: wall time, rate, and (for
  // traced runs) the per-device straggler scores of the critical-path
  // attribution, all on the same metrics channel.
  obs::MetricsRegistry extras;
  extras.gauge(kMetricStreamWallS).set(result.wall_s);
  extras.gauge(kMetricStreamIps).set(result.measured_ips);
  if (options.trace != nullptr) {
    options.trace->dump = obs::TraceRecorder::instance().snapshot();
    result.attribution =
        obs::attribute_critical_paths(obs::merge_capture(*options.trace));
    for (const auto& dev : result.attribution.devices) {
      extras
          .gauge(std::string(kMetricStragglerScore) +
                 "{node=" + std::to_string(dev.node) + "}")
          .set(dev.score);
    }
  }
  result.metrics = door.metrics();
  auto& samples = result.metrics.samples;
  for (auto& sample : extras.snapshot().samples) {
    samples.push_back(std::move(sample));
  }
  std::sort(samples.begin(), samples.end(),
            [](const obs::MetricSample& a, const obs::MetricSample& b) {
              return a.name < b.name;
            });
  result.messages_exchanged = result.metrics.counter(kMetricMessages);
  result.bytes_moved = result.metrics.counter(kMetricPayloadBytes);
  result.wire_bytes = result.metrics.counter(kMetricWireBytes);
  result.bytes_copied = result.metrics.counter(kMetricBytesCopied);
  result.frame_allocs = result.metrics.counter(kMetricFrameAllocs);
  result.retransmits = result.metrics.counter(kMetricRetransmits);
  result.duplicates_dropped = result.metrics.counter(kMetricDupsDropped);
  result.recv_timeouts = result.metrics.counter(kMetricRecvTimeouts);
  result.nacks = result.metrics.counter(kMetricNacks);
  result.chunks_abandoned = result.metrics.counter(kMetricChunksAbandoned);
  result.retx_cancelled = stats.retx_cancelled.load(std::memory_order_relaxed);
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
    sim::StreamOptions stream_options;
    stream_options.n_images = n_images;
    sim::LinkFaultModel mirror;
    if (options.faults != nullptr) {
      mirror = sim::mirror_faults(options.faults->drop_prob,
                                  options.faults->dup_prob,
                                  options.faults->delay_prob,
                                  0.5 * (options.faults->delay_min_ms +
                                         options.faults->delay_max_ms),
                                  options.reliability.rto_ms,
                                  options.reliability.max_attempts);
      stream_options.faults = &mirror;
    }
    result.predicted_ips =
        sim::stream_images(model, strategy, *options.latency,
                           *options.network, stream_options)
            .ips;
  }
  return result;
}

}  // namespace de::runtime
