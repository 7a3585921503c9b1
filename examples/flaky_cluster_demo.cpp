// The resilient data plane under a hostile network, end to end: the same
// pipelined stream served over a clean fabric and over a fabric that drops,
// duplicates, delays/reorders frames and suffers a mid-stream partition —
// with every output still bit-identical to the single-device reference.
// Prints the reliability layer's work (retransmits, dedup, nack rounds)
// next to the simulator-mirrored IPS prediction.
//
//   $ ./example_flaky_cluster_demo [n_images] [drop_prob]
#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "core/strategy.hpp"
#include "device/device.hpp"
#include "net/network.hpp"
#include "runtime/serve.hpp"

int main(int argc, char** argv) {
  using namespace de;

  const int n_images = std::max(1, argc > 1 ? std::atoi(argv[1]) : 24);
  const double drop_prob =
      std::clamp(argc > 2 ? std::atof(argv[2]) : 0.05, 0.0, 0.9);
  const int n_devices = 3;

  const auto model = cnn::ModelBuilder("demo", 48, 48, 3)
                         .conv_same(16, 3)
                         .conv_same(16, 3)
                         .maxpool(2, 2)
                         .conv_same(32, 3)
                         .conv_same(32, 3)
                         .build();

  Rng rng(7);
  const auto weights = runtime::random_weights(model, rng);
  std::vector<cnn::Tensor> inputs;
  std::vector<cnn::Tensor> references;
  for (int k = 0; k < n_images; ++k) {
    cnn::Tensor t(model.input_h(), model.input_w(), model.input_c());
    for (auto& v : t.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    references.push_back(runtime::run_reference(model, weights, t));
    inputs.push_back(std::move(t));
  }

  sim::RawStrategy strategy;
  strategy.volumes = cnn::volumes_from_boundaries({0, 3, 5}, model.num_layers());
  for (const auto& v : strategy.volumes) {
    strategy.cuts.push_back(
        core::equal_split(cnn::volume_out_height(model, v), n_devices).cuts);
  }

  auto bit_equal = [](const cnn::Tensor& a, const cnn::Tensor& b) {
    return a.h == b.h && a.w == b.w && a.c == b.c && a.data == b.data;
  };
  auto verify = [&](const runtime::ServeResult& result) {
    for (int k = 0; k < n_images; ++k) {
      if (!bit_equal(result.outputs[static_cast<std::size_t>(k)],
                     references[static_cast<std::size_t>(k)])) {
        return false;
      }
    }
    return true;
  };

  // 1. Clean fabric: the baseline.
  runtime::ServeOptions clean;
  clean.inflight = 4;
  clean.keep_outputs = true;
  const auto baseline = serve_stream(model, strategy, weights, inputs,
                                     n_devices, clean);
  std::cout << "clean fabric:  " << std::fixed << std::setprecision(1)
            << baseline.measured_ips << " img/s, "
            << baseline.messages_exchanged << " chunks, outputs "
            << (verify(baseline) ? "bit-exact" : "MISMATCH") << '\n';

  // 2. Hostile fabric: drops, duplicates, delays (which reorder), plus a
  //    partition that severs the requester->provider-0 link for a stretch
  //    of the stream before healing.
  rpc::FaultSpec faults;
  faults.seed = 0xF1AC;
  faults.drop_prob = drop_prob;
  faults.dup_prob = 0.05;
  faults.delay_prob = 0.10;
  faults.delay_min_ms = 1;
  faults.delay_max_ms = 8;
  faults.outages.push_back(rpc::LinkOutage{/*to=*/0, /*sever_at=*/6,
                                           /*heal_at=*/10});

  runtime::ServeOptions flaky = clean;
  flaky.reliability.enabled = true;
  flaky.reliability.recv_timeout_ms = 20;
  flaky.reliability.rto_ms = 15;
  flaky.faults = &faults;

  // Mirror the degradation into the simulator's analytic loss model so the
  // prediction stays comparable to the degraded measurement.
  sim::ClusterLatency latency;
  for (int i = 0; i < n_devices; ++i) {
    latency.push_back(device::make_latency_model(device::DeviceType::kNano));
  }
  const net::Network network(n_devices);
  flaky.latency = &latency;
  flaky.network = &network;

  const auto degraded = serve_stream(model, strategy, weights, inputs,
                                     n_devices, flaky);

  std::cout << "flaky fabric:  " << degraded.measured_ips << " img/s ("
            << std::setprecision(0) << 100.0 * drop_prob
            << "% drop + dup + reorder + partition), outputs "
            << (verify(degraded) ? "bit-exact" : "MISMATCH") << '\n'
            << "  recovery:    " << degraded.retransmits << " retransmits, "
            << degraded.duplicates_dropped << " duplicates absorbed, "
            << degraded.recv_timeouts << " timeout rounds, " << degraded.nacks
            << " nacks, " << degraded.chunks_abandoned << " abandoned\n"
            << "  sim mirror:  " << std::setprecision(1)
            << degraded.predicted_ips << " img/s predicted for the modelled "
            << "cluster under the same loss model\n";

  return verify(baseline) && verify(degraded) ? 0 : 1;
}
