#include "runtime/cluster.hpp"

#include <span>
#include <utility>

#include "runtime/serve.hpp"

namespace de::runtime {

namespace {

/// Single-image run over either transport backend: a stream of one image
/// with one in flight.
ClusterResult run_once(const cnn::CnnModel& model,
                       const sim::RawStrategy& strategy,
                       const std::vector<cnn::ConvWeights>& weights,
                       const cnn::Tensor& input, int n_devices, bool use_tcp,
                       const RunOptions& options) {
  ServeOptions serve;
  serve.inflight = 1;
  serve.use_tcp = use_tcp;
  serve.keep_outputs = true;
  serve.reliability = options.reliability;
  serve.faults = options.faults;
  serve.exec = options.exec;
  ServeResult served = serve_stream(model, strategy, weights,
                                    std::span<const cnn::Tensor>(&input, 1),
                                    n_devices, serve);

  ClusterResult result;
  result.output = std::move(served.outputs.front());
  result.metrics = std::move(served.metrics);
  result.messages_exchanged = served.messages_exchanged;
  result.bytes_moved = served.bytes_moved;
  result.wire_bytes = served.wire_bytes;
  result.bytes_copied = served.bytes_copied;
  result.frame_allocs = served.frame_allocs;
  result.retransmits = served.retransmits;
  result.duplicates_dropped = served.duplicates_dropped;
  result.recv_timeouts = served.recv_timeouts;
  return result;
}

}  // namespace

std::vector<cnn::ConvWeights> random_weights(const cnn::CnnModel& model, Rng& rng) {
  std::vector<cnn::ConvWeights> weights;
  weights.reserve(static_cast<std::size_t>(model.num_layers()));
  for (const auto& layer : model.layers()) {
    weights.push_back(layer.kind == cnn::LayerKind::kConv
                          ? cnn::ConvWeights::random(layer, rng)
                          : cnn::ConvWeights{});
  }
  return weights;
}

cnn::Tensor run_reference(const cnn::CnnModel& model,
                          const std::vector<cnn::ConvWeights>& weights,
                          const cnn::Tensor& input) {
  return cnn::volume_forward(
      std::span<const cnn::LayerConfig>(model.layers()),
      input, std::span<const cnn::ConvWeights>(weights));
}

ClusterResult run_distributed(const cnn::CnnModel& model,
                              const sim::RawStrategy& strategy,
                              const std::vector<cnn::ConvWeights>& weights,
                              const cnn::Tensor& input, int n_devices,
                              const RunOptions& options) {
  return run_once(model, strategy, weights, input, n_devices, /*use_tcp=*/false,
                  options);
}

ClusterResult run_distributed_tcp(const cnn::CnnModel& model,
                                  const sim::RawStrategy& strategy,
                                  const std::vector<cnn::ConvWeights>& weights,
                                  const cnn::Tensor& input, int n_devices,
                                  const RunOptions& options) {
  return run_once(model, strategy, weights, input, n_devices, /*use_tcp=*/true,
                  options);
}

}  // namespace de::runtime
