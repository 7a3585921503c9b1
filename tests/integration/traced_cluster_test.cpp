// Observability end-to-end: a traced 4-device loopback-TCP stream must
// yield (a) a merged cross-node timeline in which at least one image's
// spans chain requester scatter -> provider assemble/compute/halo ->
// requester gather on matching (image, epoch) correlation ids, (b) a
// Perfetto-loadable Chrome trace JSON of that timeline, and (c) a metrics
// snapshot whose canonical names agree between the streaming and
// finite-run entry points — all while the gathered outputs stay bit-exact
// against the reference forward.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/strategy.hpp"
#include "runtime/runtime_metrics.hpp"
#include "runtime/serve.hpp"

namespace de::runtime {
namespace {

cnn::CnnModel mini() {
  return cnn::ModelBuilder("mini", 24, 24, 3)
      .conv_same(6, 3)
      .conv_same(6, 3)
      .maxpool(2, 2)
      .conv_same(8, 3)
      .build();
}

sim::RawStrategy even_strategy(const cnn::CnnModel& m, int n_devices) {
  sim::RawStrategy strategy;
  strategy.volumes =
      cnn::volumes_from_boundaries({0, 2, m.num_layers()}, m.num_layers());
  const std::vector<double> weights(static_cast<std::size_t>(n_devices),
                                    1.0);
  for (const auto& v : strategy.volumes) {
    strategy.cuts.push_back(
        core::proportional_split(cnn::volume_out_height(m, v), weights).cuts);
  }
  return strategy;
}

std::vector<cnn::Tensor> random_inputs(const cnn::CnnModel& m, int n,
                                       Rng& rng) {
  std::vector<cnn::Tensor> inputs;
  for (int k = 0; k < n; ++k) {
    cnn::Tensor t(m.input_h(), m.input_w(), m.input_c());
    for (auto& v : t.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    inputs.push_back(std::move(t));
  }
  return inputs;
}

TEST(TracedCluster, MergedTimelineChainsOneImageAcrossNodes) {
  const auto model = mini();
  constexpr int kDevices = 4;
  Rng rng(7);
  const auto weights = random_weights(model, rng);
  const auto strategy = even_strategy(model, kDevices);
  const auto inputs = random_inputs(model, 6, rng);

  obs::TraceCapture capture;
  ServeOptions options;
  options.use_tcp = true;
  options.keep_outputs = true;
  options.trace = &capture;

  obs::TraceRecorder::instance().enable({});
  const auto result =
      serve_stream(model, strategy, weights, inputs, kDevices, options);
  obs::TraceRecorder::instance().disable();

  // Tracing never costs correctness.
  ASSERT_EQ(result.outputs.size(), inputs.size());
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    EXPECT_EQ(result.outputs[k].data,
              run_reference(model, weights, inputs[k]).data)
        << "image " << k;
  }

  // The capture is complete: every fabric node has a clock origin, and the
  // telemetry loop collected at least one steady-clock sample.
  ASSERT_EQ(capture.n_nodes(), kDevices + 1);
  EXPECT_EQ(capture.requester_node(), kDevices);
  EXPECT_FALSE(capture.sync.samples().empty());
  EXPECT_GT(capture.dump.total_events(), 0u);

  const obs::MergedTrace merged = obs::merge_capture(capture);

  // Pick image 0 and follow it across the timeline: the requester's
  // scatter and gather spans plus provider-side work spans on the same
  // (image, epoch) ids. The stream's initial strategy is epoch 1 (epoch 0
  // is never announced on the wire).
  bool saw_scatter = false;
  bool saw_gather = false;
  std::set<int> provider_nodes_with_work;
  for (const auto& me : merged.events) {
    const auto& ev = me.event;
    if (ev.seq != 0 || ev.epoch != 1) continue;
    const auto& thread =
        merged.threads[static_cast<std::size_t>(me.thread_index)];
    const auto cat = static_cast<obs::Cat>(ev.cat);
    if (cat == obs::Cat::kScatter) {
      saw_scatter = true;
      EXPECT_EQ(thread.node, kDevices);  // requester-side span
    }
    if (cat == obs::Cat::kGather) {
      saw_gather = true;
      EXPECT_EQ(thread.node, kDevices);
    }
    if (cat == obs::Cat::kAssemble || cat == obs::Cat::kCompute ||
        cat == obs::Cat::kComputeBand || cat == obs::Cat::kHaloPost) {
      if (thread.node >= 0 && thread.node < kDevices) {
        provider_nodes_with_work.insert(thread.node);
      }
    }
  }
  EXPECT_TRUE(saw_scatter);
  EXPECT_TRUE(saw_gather);
  // An even 4-way split puts image 0's work on every provider.
  EXPECT_EQ(provider_nodes_with_work.size(), static_cast<std::size_t>(kDevices));

  // Thread naming reached the dump: providers and the requester are bound.
  std::set<std::string> names;
  for (const auto& t : merged.threads) names.insert(t.name);
  EXPECT_TRUE(names.count("requester"));
  EXPECT_TRUE(names.count("provider-0"));
  EXPECT_TRUE(names.count("provider-3"));

  // The exported JSON is structurally sound and carries the chain's ids.
  std::ostringstream os;
  obs::write_chrome_trace(os, merged);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"image\":0"), std::string::npos);
  EXPECT_NE(json.find("\"scatter\""), std::string::npos);
  EXPECT_NE(json.find("\"gather\""), std::string::npos);

  // The rollup sees provider compute time.
  const auto totals = obs::span_totals_by_node(merged);
  EXPECT_FALSE(totals.empty());
}

TEST(TracedCluster, MetricNamesAgreeAcrossEntryPoints) {
  const auto model = mini();
  constexpr int kDevices = 2;
  Rng rng(11);
  const auto weights = random_weights(model, rng);
  const auto strategy = even_strategy(model, kDevices);
  const auto inputs = random_inputs(model, 3, rng);

  // Streaming.
  ServeOptions overlap;
  const auto served_overlap =
      serve_stream(model, strategy, weights, inputs, kDevices, overlap);
  // Finite single-image run.
  const auto once =
      run_distributed(model, strategy, weights, inputs[0], kDevices);

  const std::vector<std::string> canonical{
      kMetricMessages,     kMetricPayloadBytes,    kMetricWireBytes,
      kMetricBytesCopied,  kMetricFrameAllocs,     kMetricRetransmits,
      kMetricAcks,         kMetricDupsDropped,     kMetricNacks,
      kMetricRecvTimeouts, kMetricChunksAbandoned,
  };
  for (const auto& name : canonical) {
    EXPECT_NE(served_overlap.metrics.find(name), nullptr) << name;
    EXPECT_NE(once.metrics.find(name), nullptr) << name;
  }
  // Streaming extras exist.
  EXPECT_NE(served_overlap.metrics.find(kMetricGatherLatencyUs), nullptr);
  EXPECT_EQ(served_overlap.metrics.counter(kMetricStreamImages), 3);

  // The compatibility scalars are views into the snapshot, not a second
  // accounting: they must agree exactly.
  EXPECT_EQ(served_overlap.messages_exchanged,
            static_cast<int>(
                served_overlap.metrics.counter(kMetricMessages)));
  EXPECT_EQ(served_overlap.wire_bytes,
            served_overlap.metrics.counter(kMetricWireBytes));
  EXPECT_EQ(once.bytes_moved, once.metrics.counter(kMetricPayloadBytes));
  // A clean run reports clean reliability counters through the registry.
  EXPECT_EQ(served_overlap.metrics.counter(kMetricRetransmits), 0);
  EXPECT_EQ(served_overlap.metrics.counter(kMetricChunksAbandoned), 0);
  // The gather-latency histogram saw one sample per image.
  const auto* lat = served_overlap.metrics.find(kMetricGatherLatencyUs);
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->hist.count, 3);
}

}  // namespace
}  // namespace de::runtime
