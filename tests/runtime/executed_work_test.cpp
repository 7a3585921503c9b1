// Executed work equals planned work. A provider computes each (volume,
// device) part as one part walk over its halo-first bands
// (plan_part_schedule + cnn::plan_part_walk, as the provider's
// schedules_for derives them), and each row of each layer of the part is
// computed once. Over every zoo model, coarse 2- and 3-volume and
// one-layer-per-volume staggered strategies, and 2–4 devices:
//   - unfused, the work the engine executes for a part's bands
//     (cnn::exec_flops) equals the plan's split_part_ops exactly;
//   - fused, the part equals one whole-part call bit for bit, serial and
//     tiled, and the excess stays within the fused-seam bound: a fused
//     conv→pool call whose pool rows are cut into n row pieces (the bands
//     that compute the step, times the row tiles each call fans out into)
//     computes at most (n − 1) · (pool kernel − pool stride) more conv rows
//     than one call over all of them — zero when the kernel does not
//     exceed the stride.
//
// The zoo models keep their heights, kernels, strides and paddings — all
// the walk depends on — but run with narrowed channels, so the sweep stays
// cheap enough for sanitized builds.
#include <gtest/gtest.h>

#include <algorithm>

#include "cnn/exec_engine.hpp"
#include "cnn/exec_kernel.hpp"
#include "cnn/layer_volume.hpp"
#include "cnn/model_zoo.hpp"
#include "core/strategy.hpp"
#include "runtime/cluster.hpp"
#include "runtime/transfer_plan.hpp"
#include "tensor_bits.hpp"

namespace de::runtime {
namespace {

/// `m` with every layer `channels` deep and no FC tail.
cnn::CnnModel narrowed(const cnn::CnnModel& m, int channels) {
  std::vector<cnn::LayerConfig> layers = m.layers();
  for (auto& l : layers) {
    l.in_c = channels;
    l.out_c = channels;
  }
  return cnn::CnnModel(m.name(), std::move(layers), {});
}

/// One volume per layer, even volumes cut at j·h/n and odd ones at the
/// midpoints, so every volume boundary moves most rows to another device.
sim::RawStrategy staggered_strategy(const cnn::CnnModel& m, int n_devices) {
  sim::RawStrategy strategy;
  std::vector<int> boundaries;
  for (int l = 0; l <= m.num_layers(); ++l) boundaries.push_back(l);
  strategy.volumes = cnn::volumes_from_boundaries(boundaries, m.num_layers());
  for (std::size_t v = 0; v < strategy.volumes.size(); ++v) {
    const int h = cnn::volume_out_height(m, strategy.volumes[v]);
    std::vector<int> cuts{0};
    for (int j = 1; j < n_devices; ++j) {
      const int at = v % 2 == 0 ? j * h / n_devices
                                : ((2 * j - 1) * h + n_devices) / (2 * n_devices);
      cuts.push_back(std::clamp(at, cuts.back(), h));
    }
    cuts.push_back(h);
    strategy.cuts.push_back(std::move(cuts));
  }
  return strategy;
}

/// Up to `n_volumes` volumes of about equal work, split equally.
sim::RawStrategy coarse_strategy(const cnn::CnnModel& m, int n_volumes,
                                 int n_devices) {
  const Ops total = m.conv_chain_ops();
  std::vector<int> boundaries{0};
  Ops acc = 0;
  for (int l = 0; l + 1 < m.num_layers(); ++l) {
    acc += m.layer(l).ops();
    const int next = static_cast<int>(boundaries.size());
    if (next < n_volumes && acc * n_volumes >= total * next) {
      boundaries.push_back(l + 1);
    }
  }
  boundaries.push_back(m.num_layers());
  sim::RawStrategy strategy;
  strategy.volumes = cnn::volumes_from_boundaries(boundaries, m.num_layers());
  for (const auto& v : strategy.volumes) {
    strategy.cuts.push_back(
        core::equal_split(cnn::volume_out_height(m, v), n_devices).cuts);
  }
  return strategy;
}

cnn::Tensor random_tensor(int h, int w, int c, Rng& rng) {
  cnn::Tensor t(h, w, c);
  for (auto& v : t.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

/// Conv work a walk may execute past its plan: for each fused step whose
/// pool kernel exceeds its stride, (pieces − 1) · (kernel − stride) conv
/// rows, where the pieces are the row tiles of every band's call (the
/// engine's plan_conv_tiles under threads_for_work).
Ops fused_seam_bound(std::span<const cnn::LayerConfig> layers,
                     const cnn::PartWalk& walk, const ThreadPool* pool) {
  Ops bound = 0;
  int first = 0;
  for (int s = 0; s < walk.n_steps(); ++s) {
    const int last = walk.step_last[s];
    const bool fused = last > first;
    const cnn::LayerConfig& conv = layers[static_cast<std::size_t>(first)];
    const cnn::LayerConfig& pl = layers[static_cast<std::size_t>(last)];
    first = last + 1;
    if (!fused) continue;
    int pieces = 0;
    for (int b = 0; b < walk.n_bands(); ++b) {
      const cnn::RowInterval rows = walk.step(b, s).compute;
      if (rows.empty()) continue;
      const Ops ops = conv.ops_for_rows(cnn::input_rows_for(pl, rows).size()) +
                      pl.ops_for_rows(rows.size());
      const int threads =
          pool == nullptr ? 1
                          : cnn::detail::threads_for_work(
                                ops, static_cast<int>(pool->size()));
      pieces += cnn::detail::plan_conv_tiles(rows, 1, threads).n_bands;
    }
    bound += static_cast<Ops>(std::max(pieces - 1, 0)) *
             std::max(pl.kernel - pl.stride, 0) * conv.ops_for_rows(1);
  }
  return bound;
}

struct PartRun {
  cnn::Tensor out;
  Ops executed = 0;
  Ops bound = 0;
};

/// Computes part (l, i) of `plan` as the provider does: its halo-first
/// bands, in order, through one part walk.
PartRun run_part(const cnn::CnnModel& m, const sim::RawStrategy& strategy,
                 const std::vector<cnn::ConvWeights>& weights,
                 const TransferPlan& plan, int l, int i,
                 const cnn::Tensor& crop, const cnn::ExecContext& ctx) {
  const auto& volume = strategy.volumes[static_cast<std::size_t>(l)];
  const auto layers = cnn::volume_layers(m, volume);
  const auto wts = std::span<const cnn::ConvWeights>(weights).subspan(
      static_cast<std::size_t>(volume.first),
      static_cast<std::size_t>(volume.size()));
  const auto part =
      plan.parts[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)];
  const auto need =
      plan.needs[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)];
  const PartSchedule sched = plan_part_schedule(plan, l, i);
  cnn::PartWalk walk;
  cnn::plan_part_walk(layers, sched.bands, ctx, walk);
  PartRun run{cnn::Tensor(part.size(), layers.back().out_w(),
                          layers.back().out_c)};
  const std::uint64_t before = cnn::exec_flops();
  for (int b = 0; b < walk.n_bands(); ++b) {
    cnn::part_walk_band_into(walk, b, layers, crop, need.begin, wts, ctx,
                             run.out, part.begin);
  }
  run.executed = static_cast<Ops>(cnn::exec_flops() - before);
  run.bound = fused_seam_bound(layers, walk, ctx.pool);
  return run;
}

/// Every part of `m` under `strategy` on `n_devices`: computed as a walk of
/// its bands under `ctx` and as one whole-part call, on the same crop.
void check_parts(const cnn::CnnModel& m, const sim::RawStrategy& strategy,
                 int n_devices, const cnn::ExecContext& ctx, Rng& rng) {
  const auto weights = random_weights(m, rng);
  const TransferPlan plan = build_transfer_plan(m, strategy, n_devices);
  for (int l = 0; l < plan.num_volumes(); ++l) {
    const auto& volume = strategy.volumes[static_cast<std::size_t>(l)];
    const auto layers = cnn::volume_layers(m, volume);
    const auto wts = std::span<const cnn::ConvWeights>(weights).subspan(
        static_cast<std::size_t>(volume.first),
        static_cast<std::size_t>(volume.size()));
    for (int i = 0; i < n_devices; ++i) {
      const auto part =
          plan.parts[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)];
      if (part.empty()) continue;
      const auto need =
          plan.needs[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)];
      const auto crop = random_tensor(need.size(), layers.front().in_w,
                                      layers.front().in_c, rng);
      const std::string what = m.name() + " devices " +
                               std::to_string(n_devices) + " volume " +
                               std::to_string(l) + " device " +
                               std::to_string(i) + " fuse " +
                               std::to_string(ctx.fuse_conv_pool) + " pool " +
                               std::to_string(ctx.pool != nullptr);
      const PartRun run = run_part(m, strategy, weights, plan, l, i, crop, ctx);
      expect_bitexact(run.out,
                      cnn::volume_forward_rows(layers, crop, need.begin, part,
                                               wts, ctx),
                      what);
      const Ops planned = cnn::split_part_ops(layers, part);
      if (ctx.fuse_conv_pool) {
        EXPECT_GE(run.executed, planned) << what;
        EXPECT_LE(run.executed, planned + run.bound) << what;
      } else {
        EXPECT_EQ(run.executed, planned) << what;
      }
    }
  }
}

std::vector<sim::RawStrategy> strategies(const cnn::CnnModel& m,
                                         int n_devices) {
  return {coarse_strategy(m, 2, n_devices), coarse_strategy(m, 3, n_devices),
          staggered_strategy(m, n_devices)};
}

TEST(ExecutedWork, UnfusedPartsExecuteExactlyTheirPlannedWork) {
  Rng rng(2101);
  cnn::ExecContext ctx = cnn::ExecContext::fast();
  ctx.fuse_conv_pool = false;
  for (const auto& name : cnn::zoo_names()) {
    const auto real = cnn::model_by_name(name);
    const auto m = narrowed(real, 2);
    for (int n = 2; n <= 4; ++n) {
      for (const auto& strategy : strategies(real, n)) {
        check_parts(m, strategy, n, ctx, rng);
      }
    }
  }
}

TEST(ExecutedWork, FusedPartsMatchWholeCallsWithinTheSeamBound) {
  Rng rng(2102);
  ThreadPool pool(3);
  for (const auto& name : cnn::zoo_names()) {
    const auto real = cnn::model_by_name(name);
    // Serial: every layout, at two channels.
    const auto thin = narrowed(real, 2);
    for (int n = 2; n <= 4; ++n) {
      for (const auto& strategy : strategies(real, n)) {
        check_parts(thin, strategy, n, cnn::ExecContext::fast(), rng);
      }
    }
    // Tiled: deep enough that most calls fan out across the pool.
    check_parts(narrowed(real, 8), coarse_strategy(real, 3, 2), 2,
                cnn::ExecContext::fast(&pool), rng);
  }
}

}  // namespace
}  // namespace de::runtime
