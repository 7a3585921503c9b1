#include "device/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <vector>

#include "common/require.hpp"

namespace de::device {

namespace {

/// Milliseconds of one `fn()` call, best of `repeats` (minimum filters
/// scheduler noise; means drag in preemption outliers).
template <typename Fn>
Ms time_best_ms(int repeats, const Fn& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int k = 0; k < repeats; ++k) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

void fill_random(std::vector<float>& v, Rng& rng) {
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
}

}  // namespace

LatencyTable profile_model(const cnn::CnnModel& model, const LatencyModel& device_model,
                           const ProfilerOptions& options, Rng* rng) {
  DE_REQUIRE(options.granularity >= 1, "granularity >= 1");
  DE_REQUIRE(options.repeats >= 1, "repeats >= 1");
  DE_REQUIRE(options.noise_sd_frac == 0.0 || rng != nullptr,
             "noisy profiling needs an Rng");

  LatencyTable table;
  for (const auto& layer : model.layers()) {
    if (table.has_layer(layer)) continue;  // identical signature already swept
    const int out_h = layer.out_h();
    // A granularity beyond the layer height still samples the full height.
    const int step = std::min(options.granularity, out_h);
    for (int rows = step; rows <= out_h; rows += step) {
      // Always include the full height even if granularity skips past it.
      const int r = (rows + step > out_h && rows != out_h) ? out_h : rows;
      const Ms truth = device_model.layer_ms(layer, r);
      double sum = 0.0;
      for (int k = 0; k < options.repeats; ++k) {
        double factor = 1.0;
        if (options.noise_sd_frac > 0.0) {
          factor = std::max(0.0, 1.0 + rng->normal(0.0, options.noise_sd_frac));
        }
        sum += truth * factor;
      }
      table.add_sample(layer, r, sum / options.repeats);
      if (r == out_h) break;
    }
  }
  for (const auto& fc : model.fc_tail()) {
    const Ms truth = device_model.fc_ms(fc);
    double sum = 0.0;
    for (int k = 0; k < options.repeats; ++k) {
      double factor = 1.0;
      if (options.noise_sd_frac > 0.0) {
        factor = std::max(0.0, 1.0 + rng->normal(0.0, options.noise_sd_frac));
      }
      sum += truth * factor;
    }
    table.set_fc(fc, sum / options.repeats);
  }
  return table;
}

LatencyTable profile_model_measured(const cnn::CnnModel& model,
                                    const MeasuredProfileOptions& options) {
  DE_REQUIRE(options.granularity >= 1, "granularity >= 1");
  DE_REQUIRE(options.repeats >= 1, "repeats >= 1");
  Rng rng(options.seed);
  // Defeats dead-code elimination of the timed forwards.
  volatile float sink = 0.0f;

  LatencyTable table;
  for (const auto& layer : model.layers()) {
    if (table.has_layer(layer)) continue;  // identical signature already swept
    cnn::Tensor input(layer.in_h, layer.in_w, layer.in_c);
    fill_random(input.data, rng);
    cnn::ConvWeights weights;
    if (layer.kind == cnn::LayerKind::kConv) {
      weights = cnn::ConvWeights::random(layer, rng);
    }
    const int out_h = layer.out_h();
    const int step = std::min(options.granularity, out_h);
    for (int rows = step; rows <= out_h; rows += step) {
      const int r = (rows + step > out_h && rows != out_h) ? out_h : rows;
      const cnn::RowInterval out_rows{0, r};
      // The weights pack on their first fast call, so the best of the
      // repeats measures the steady state the data plane sees.
      const Ms ms = time_best_ms(options.repeats, [&] {
        const auto out =
            layer.kind == cnn::LayerKind::kConv
                ? cnn::conv_forward_rows(layer, input, 0, out_rows, weights,
                                         options.exec)
                : cnn::maxpool_forward_rows(layer, input, 0, out_rows,
                                            options.exec);
        sink = sink + out.data[0];
      });
      table.add_sample(layer, r, ms);
      if (r == out_h) break;
    }
  }
  for (const auto& fc : model.fc_tail()) {
    // The FC tail runs undivided (paper §V-A); time it as a dense
    // matrix-vector product, which is what executing it amounts to.
    std::vector<float> x(static_cast<std::size_t>(fc.in_features));
    std::vector<float> w(static_cast<std::size_t>(fc.in_features) *
                         fc.out_features);
    fill_random(x, rng);
    fill_random(w, rng);
    const Ms ms = time_best_ms(options.repeats, [&] {
      float total = 0.0f;
      for (int o = 0; o < fc.out_features; ++o) {
        const float* row = &w[static_cast<std::size_t>(o) * fc.in_features];
        float acc = 0.0f;
        for (int i = 0; i < fc.in_features; ++i) acc += x[static_cast<std::size_t>(i)] * row[i];
        total += acc;
      }
      sink = sink + total;
    });
    table.set_fc(fc, ms);
  }
  return table;
}

}  // namespace de::device
