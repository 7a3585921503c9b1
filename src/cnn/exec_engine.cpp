// Fast conv/pool execution front-end (DESIGN.md §execution-engine).
//
// The arithmetic lives in the per-ISA band kernels (exec_kernel_<isa>.cpp,
// shared body in exec_band.inl): pack weights `lanes` output channels
// innermost, gather each output row's patches into the executing thread's
// persistent panel, multiply-accumulate in the reference's per-pixel op
// order. This file owns everything around the kernel: the packs each
// ConvWeights holds (built on first use under a per-slot once-guard, then
// shared read-only by every thread), the work-sized fan-out of every layer
// kind (exec_threads: a conv, pool or fused call too small to repay a pool
// round-trip runs inline, a larger one gets tiles in proportion to its
// work, up to 4 per pool worker), the 2-D (row bands × oc-block ranges)
// tile decomposition run across the ThreadPool, the channel-innermost
// maxpool loop shared by standalone and fused pooling, the fused
// conv→relu→maxpool epilogue, and the part walk that chains a volume's
// layers through the thread's reused activation buffers and seam store.
//
// Padding taps are *skipped* exactly like the reference skips them (ky and
// kx clamp to the in-bounds range), never multiplied in as zeros: x + 0.0f
// is not an identity for x == -0.0f, and the bit-exactness contract is
// absolute. The build compiles this directory with -ffp-contract=off so
// neither engine can be fma-contracted differently from the other, and the
// SIMD kernels use explicit mul+add intrinsics — never FMA.
#include "cnn/exec_engine.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <vector>

#include "cnn/exec_kernel.hpp"
#include "common/require.hpp"

namespace de::cnn {

const char* to_string(ExecEngine engine) {
  switch (engine) {
    case ExecEngine::kReference: return "reference";
    case ExecEngine::kFast: return "fast";
  }
  return "?";
}

ExecEngine exec_engine_from_string(const std::string& name) {
  if (name == "reference") return ExecEngine::kReference;
  if (name == "fast") return ExecEngine::kFast;
  throw Error("unknown exec engine: \"" + name + "\" (want reference|fast)");
}

namespace {

using detail::BandScratch;
using detail::ConvBandCall;
using detail::ConvBandFn;
using detail::ConvTile;
using detail::PackedKernel;

/// The kernel actually dispatched for `ctx`: explicit ctx.isa, else the
/// process default. Loud failure (not silent fallback) when the forced
/// target cannot run here — a conformance run forced to one ISA must never
/// quietly measure another.
struct KernelTarget {
  KernelIsa isa;
  ConvBandFn fn;
  int lanes;
};

KernelTarget kernel_target(const ExecContext& ctx) {
  const KernelIsa isa =
      ctx.isa == KernelIsa::kAuto ? default_kernel_isa() : ctx.isa;
  DE_REQUIRE(kernel_isa_supported(isa),
             std::string("kernel ISA \"") + to_string(isa) +
                 "\" is not supported on this host/build");
  return {isa, detail::conv_band_fn(isa), detail::kernel_isa_lanes(isa)};
}

/// Threads' worth of work in a call of `ops` (LayerConfig::ops_for_rows:
/// FLOPs for conv, comparisons for pool, their sum for a fused pair —
/// detail::threads_for_work): 1 runs the whole call inline on the calling
/// thread, no parallel_for round-trip — without a pool or below two
/// threads' worth. Above that it only sets the tile count (about 4 per
/// thread); parallel_for still wakes one pool worker per tile, up to the
/// whole pool.
int exec_threads(const ExecContext& ctx, Ops ops) {
  if (ctx.pool == nullptr) return 1;
  return detail::threads_for_work(ops, static_cast<int>(ctx.pool->size()));
}

std::atomic<std::uint64_t> g_executed{0};

void count_executed(Ops ops) {
  g_executed.fetch_add(static_cast<std::uint64_t>(ops),
                       std::memory_order_relaxed);
}

/// The packed form of `w` at `lanes` wide blocks, built by the first call
/// that needs it and shared by every later one, on any thread. The extent
/// assert catches one weights object used for two layer configs.
const PackedKernel& packed_for(const LayerConfig& l, const ConvWeights& w,
                               int lanes) {
  DE_ASSERT(lanes == 8 || lanes == 16, "packed lane width is 8 or 16");
  auto& slot = w.packed.slots().by_lanes[lanes / 16];
  std::call_once(slot.once, [&] {
    slot.kernel = detail::pack_weights(l, w, lanes);
  });
  const PackedKernel& pk = slot.kernel;
  DE_ASSERT(pk.k == l.kernel && pk.row_len == l.kernel * l.in_c &&
                pk.blocks == (l.out_c + lanes - 1) / lanes,
            "packed weights belong to a different layer config");
  return pk;
}

/// Runs `plan`'s tiles, each writing disjoint bytes of the output: a
/// single-tile plan inline on the calling thread with zero dispatch
/// overhead, more across ctx.pool (the caller claims tiles too). Every
/// layer kind goes through here, sized by exec_threads.
template <typename TileFn>
void run_tiles(const detail::ConvTilePlan& plan, const ExecContext& ctx,
               const TileFn& run_tile) {
  if (plan.count() <= 1) {
    run_tile(plan.tile(0));
    return;
  }
  ctx.pool->parallel_for(static_cast<std::size_t>(plan.count()),
                         [&](std::size_t i) {
                           run_tile(plan.tile(static_cast<int>(i)));
                         });
}

/// Max-pools output row `oy` of `l` over channels [ch_lo, ch_hi) into
/// `drow` (the row's out_w * in_c floats); `in_row(iy)` points at input row
/// iy. Channel-innermost: each output's channels start at -inf and fold
/// every in-range (ky, kx) tap in the reference's order with
/// `d < v ? v : d`, which is std::max(d, v) per channel — NaN taps and ±0
/// ties resolve exactly as in maxpool_forward_rows — and which GCC emits as
/// IEEE-exact maxps without fast-math. Seeding from the first tap instead
/// of -inf would let a NaN first tap through.
template <typename InRow>
void maxpool_row(const LayerConfig& l, int oy, const InRow& in_row, int ch_lo,
                 int ch_hi, float* drow) {
  const int c = l.in_c;
  const int y0 = oy * l.stride;
  const int ky_n = std::min(l.kernel, l.in_h - y0);
  const int out_w = l.out_w();
  for (int ox = 0; ox < out_w; ++ox) {
    float* d = drow + static_cast<std::size_t>(ox) * c;
    std::fill(d + ch_lo, d + ch_hi, -std::numeric_limits<float>::infinity());
    const int x0 = ox * l.stride;
    const int kx_n = std::min(l.kernel, l.in_w - x0);
    for (int ky = 0; ky < ky_n; ++ky) {
      const float* tap = in_row(y0 + ky) + static_cast<std::size_t>(x0) * c;
      for (int kx = 0; kx < kx_n; ++kx, tap += c) {
        for (int ch = ch_lo; ch < ch_hi; ++ch) {
          d[ch] = d[ch] < tap[ch] ? tap[ch] : d[ch];
        }
      }
    }
  }
}

/// Fused conv→(relu)→maxpool tile: pool output rows `t.rows` × conv packed
/// blocks [t.blk_lo, t.blk_hi). Conv rows are produced on demand by the
/// band kernel into the thread's rolling window of pool.kernel rows (slot =
/// conv row % window height — rows alive together always span less than
/// one window, so slots never collide), then pooled over the tile's
/// channel range by maxpool_row, in the reference's comparison order.
void conv_pool_tile(const LayerConfig& cl, const LayerConfig& pl,
                    const Tensor& in_crop, int in_row_offset, ConvTile t,
                    int out_top, const PackedKernel& pk, ConvBandFn fn,
                    Tensor& dst) {
  const int s = pl.stride;
  const int kp = pl.kernel;
  const int conv_h = cl.out_h();
  const int cc = cl.out_c;
  const std::size_t row_floats = static_cast<std::size_t>(cl.out_w()) * cc;
  BandScratch& scratch = detail::thread_band_scratch();
  float* ring = BandScratch::ensure(scratch.ring,
                                    static_cast<std::size_t>(kp) * row_floats);
  const auto ring_row = [&](int cy) {
    return ring + static_cast<std::size_t>(cy % kp) * row_floats;
  };
  const int ch_lo = t.blk_lo * pk.lanes;
  const int ch_hi = std::min(cc, t.blk_hi * pk.lanes);
  const std::size_t out_floats = static_cast<std::size_t>(pl.out_w()) * cc;

  int next_row = t.rows.begin * s;  // lowest conv row not yet in the window
  for (int oy = t.rows.begin; oy < t.rows.end; ++oy) {
    const int lo = oy * s;
    const int hi = std::min(lo + kp, conv_h);
    for (int cy = std::max(lo, next_row); cy < hi; ++cy) {
      const int slot = cy % kp;
      fn(ConvBandCall{&cl, in_crop.data.data(), in_row_offset, cy, cy + 1,
                      cy - slot, t.blk_lo, t.blk_hi, &pk, ring});
    }
    next_row = std::max(next_row, hi);
    float* drow =
        dst.data.data() + static_cast<std::size_t>(oy - out_top) * out_floats;
    maxpool_row(pl, oy, ring_row, ch_lo, ch_hi, drow);
  }
}

void require_crop_covers(const LayerConfig& layer, const Tensor& in_crop,
                         int in_row_offset, RowInterval out_rows) {
  DE_REQUIRE(!out_rows.empty(), "empty output interval");
  DE_REQUIRE(in_crop.w == layer.in_w && in_crop.c == layer.in_c,
             "input crop extents mismatch");
  const RowInterval needed = input_rows_for(layer, out_rows);
  DE_REQUIRE(in_row_offset <= needed.begin &&
                 in_row_offset + in_crop.h >= needed.end,
             "input crop does not cover the required rows");
}

void require_dst_covers(const LayerConfig& layer, const Tensor& dst,
                        int dst_top, RowInterval out_rows) {
  DE_REQUIRE(dst.w == layer.out_w() && dst.c == layer.out_c,
             "destination extents mismatch");
  DE_REQUIRE(out_rows.begin >= dst_top && out_rows.end - dst_top <= dst.h,
             "destination does not cover the output band");
}

/// Copies absolute rows `rows` of `src` (row 0 == `src_top`) into `dst`
/// (row 0 == `dst_top`); the reference-engine fallback of the _into paths.
void copy_band(const Tensor& src, int src_top, RowInterval rows, Tensor& dst,
               int dst_top) {
  const std::size_t row_floats =
      static_cast<std::size_t>(src.w) * static_cast<std::size_t>(src.c);
  std::copy_n(
      src.data.data() + static_cast<std::size_t>(rows.begin - src_top) * row_floats,
      static_cast<std::size_t>(rows.size()) * row_floats,
      dst.data.data() + static_cast<std::size_t>(rows.begin - dst_top) * row_floats);
}

}  // namespace

Tensor conv_forward_rows(const LayerConfig& layer, const Tensor& in_crop,
                         int in_row_offset, RowInterval out_rows,
                         const ConvWeights& w, const ExecContext& ctx) {
  DE_REQUIRE(!out_rows.empty(), "empty output interval");
  Tensor out(out_rows.size(), layer.out_w(), layer.out_c);
  conv_forward_rows_into(layer, in_crop, in_row_offset, out_rows, w, ctx, out,
                         out_rows.begin);
  return out;
}

Tensor maxpool_forward_rows(const LayerConfig& layer, const Tensor& in_crop,
                            int in_row_offset, RowInterval out_rows,
                            const ExecContext& ctx) {
  DE_REQUIRE(!out_rows.empty(), "empty output interval");
  Tensor out(out_rows.size(), layer.out_w(), layer.out_c);
  maxpool_forward_rows_into(layer, in_crop, in_row_offset, out_rows, ctx, out,
                            out_rows.begin);
  return out;
}

void conv_forward_rows_into(const LayerConfig& layer, const Tensor& in_crop,
                            int in_row_offset, RowInterval out_rows,
                            const ConvWeights& w, const ExecContext& ctx,
                            Tensor& dst, int dst_top) {
  require_dst_covers(layer, dst, dst_top, out_rows);
  if (ctx.engine == ExecEngine::kReference) {
    const Tensor band =
        conv_forward_rows(layer, in_crop, in_row_offset, out_rows, w);
    count_executed(layer.ops_for_rows(out_rows.size()));
    copy_band(band, out_rows.begin, out_rows, dst, dst_top);
    return;
  }
  DE_REQUIRE(layer.kind == LayerKind::kConv, "conv_forward_rows on non-conv");
  require_crop_covers(layer, in_crop, in_row_offset, out_rows);
  const KernelTarget target = kernel_target(ctx);
  const PackedKernel& pk = packed_for(layer, w, target.lanes);
  const Ops ops = layer.ops_for_rows(out_rows.size());
  count_executed(ops);
  const auto plan =
      detail::plan_conv_tiles(out_rows, pk.blocks, exec_threads(ctx, ops));
  run_tiles(plan, ctx, [&](ConvTile t) {
    target.fn(ConvBandCall{&layer, in_crop.data.data(), in_row_offset,
                           t.rows.begin, t.rows.end, dst_top, t.blk_lo,
                           t.blk_hi, &pk, dst.data.data()});
  });
}

void maxpool_forward_rows_into(const LayerConfig& layer, const Tensor& in_crop,
                               int in_row_offset, RowInterval out_rows,
                               const ExecContext& ctx, Tensor& dst,
                               int dst_top) {
  require_dst_covers(layer, dst, dst_top, out_rows);
  if (ctx.engine == ExecEngine::kReference) {
    const Tensor band =
        maxpool_forward_rows(layer, in_crop, in_row_offset, out_rows);
    count_executed(layer.ops_for_rows(out_rows.size()));
    copy_band(band, out_rows.begin, out_rows, dst, dst_top);
    return;
  }
  DE_REQUIRE(layer.kind == LayerKind::kMaxPool,
             "maxpool_forward_rows on non-pool");
  require_crop_covers(layer, in_crop, in_row_offset, out_rows);
  const std::size_t in_floats =
      static_cast<std::size_t>(layer.in_w) * layer.in_c;
  const std::size_t out_floats =
      static_cast<std::size_t>(layer.out_w()) * layer.out_c;
  const auto in_row = [&](int iy) {
    return in_crop.data.data() +
           static_cast<std::size_t>(iy - in_row_offset) * in_floats;
  };
  const Ops ops = layer.ops_for_rows(out_rows.size());
  count_executed(ops);
  // One channel block: pool tiles are row bands only.
  const auto plan = detail::plan_conv_tiles(out_rows, 1, exec_threads(ctx, ops));
  run_tiles(plan, ctx, [&](ConvTile t) {
    for (int oy = t.rows.begin; oy < t.rows.end; ++oy) {
      maxpool_row(layer, oy, in_row, 0, layer.in_c,
                  dst.data.data() +
                      static_cast<std::size_t>(oy - dst_top) * out_floats);
    }
  });
}

bool can_fuse_conv_pool(const LayerConfig& conv, const LayerConfig& pool) {
  return conv.kind == LayerKind::kConv && pool.kind == LayerKind::kMaxPool &&
         pool.in_w == conv.out_w() && pool.in_h == conv.out_h() &&
         pool.in_c == conv.out_c && pool.padding == 0;
}

void conv_pool_forward_rows_into(const LayerConfig& conv,
                                 const LayerConfig& pool, const Tensor& in_crop,
                                 int in_row_offset, RowInterval out_rows,
                                 const ConvWeights& w, const ExecContext& ctx,
                                 Tensor& dst, int dst_top) {
  DE_REQUIRE(can_fuse_conv_pool(conv, pool),
             "conv_pool_forward_rows on a pair that does not fuse");
  DE_REQUIRE(!out_rows.empty(), "empty output interval");
  require_dst_covers(pool, dst, dst_top, out_rows);
  const RowInterval conv_rows = input_rows_for(pool, out_rows);
  const Ops pool_ops = pool.ops_for_rows(out_rows.size());
  if (ctx.engine == ExecEngine::kReference) {
    const Tensor conv_out =
        conv_forward_rows(conv, in_crop, in_row_offset, conv_rows, w);
    const Tensor pooled =
        maxpool_forward_rows(pool, conv_out, conv_rows.begin, out_rows);
    count_executed(conv.ops_for_rows(conv_rows.size()) + pool_ops);
    copy_band(pooled, out_rows.begin, out_rows, dst, dst_top);
    return;
  }
  require_crop_covers(conv, in_crop, in_row_offset, conv_rows);
  const KernelTarget target = kernel_target(ctx);
  const PackedKernel& pk = packed_for(conv, w, target.lanes);
  const auto plan = detail::plan_conv_tiles(
      out_rows, pk.blocks,
      exec_threads(ctx, conv.ops_for_rows(conv_rows.size()) + pool_ops));
  // Each row band of tiles computes every conv row its pool windows span,
  // so bands share the conv rows of windows that overlap across them.
  Ops executed = pool_ops;
  for (int b = 0; b < plan.n_bands; ++b) {
    executed += conv.ops_for_rows(
        input_rows_for(pool, plan.tile(b * plan.oc_tiles).rows).size());
  }
  count_executed(executed);
  run_tiles(plan, ctx, [&](ConvTile t) {
    conv_pool_tile(conv, pool, in_crop, in_row_offset, t, dst_top, pk,
                   target.fn, dst);
  });
}

Tensor conv_pool_forward_rows(const LayerConfig& conv, const LayerConfig& pool,
                              const Tensor& in_crop, int in_row_offset,
                              RowInterval out_rows, const ConvWeights& w,
                              const ExecContext& ctx) {
  DE_REQUIRE(!out_rows.empty(), "empty output interval");
  Tensor out(out_rows.size(), pool.out_w(), pool.out_c);
  conv_pool_forward_rows_into(conv, pool, in_crop, in_row_offset, out_rows, w,
                              ctx, out, out_rows.begin);
  return out;
}

namespace {

/// `c` without the rows of `r`. `r` never lies strictly inside `c`: the
/// fields of disjoint bands grow monotonically with the band's position,
/// so an earlier band's field clips a prefix or a suffix of a later one's.
RowInterval without(RowInterval c, RowInterval r) {
  if (c.intersect(r).empty()) return c;
  if (r.begin <= c.begin) {
    c.begin = r.end;
  } else {
    DE_ASSERT(r.end >= c.end, "a band field inside another band's");
    c.end = r.begin;
  }
  return c.empty() ? RowInterval{} : c;
}

/// Calls fn for each run of `x` outside `c`: the rows of a step a band
/// reads but does not compute.
template <typename Fn>
void for_each_outside(RowInterval x, RowInterval c, const Fn& fn) {
  const RowInterval mid = x.intersect(c);
  if (mid.empty()) {
    if (!x.empty()) fn(x);
    return;
  }
  if (x.begin < mid.begin) fn(RowInterval{x.begin, mid.begin});
  if (mid.end < x.end) fn(RowInterval{mid.end, x.end});
}

std::size_t row_floats(const LayerConfig& l) {
  return static_cast<std::size_t>(l.out_w()) * l.out_c;
}

}  // namespace

void plan_part_walk(std::span<const LayerConfig> volume,
                    std::span<const RowInterval> bands, const ExecContext& ctx,
                    PartWalk& walk) {
  DE_REQUIRE(!volume.empty(), "empty volume");
  DE_REQUIRE(!bands.empty(), "a part walk needs at least one band");
  walk.fused = ctx.engine == ExecEngine::kFast && ctx.fuse_conv_pool;
  walk.step_last.clear();
  for (std::size_t i = 0; i < volume.size();) {
    i += walk.fused && i + 1 < volume.size() &&
                 can_fuse_conv_pool(volume[i], volume[i + 1])
             ? 2
             : 1;
    walk.step_last.push_back(static_cast<int>(i) - 1);
  }
  const int n_steps = walk.n_steps();
  walk.steps.assign(bands.size() * walk.step_last.size(), PartWalk::Step{});
  const auto at = [&](std::size_t b, int s) -> PartWalk::Step& {
    return walk.steps[b * walk.step_last.size() + static_cast<std::size_t>(s)];
  };
  // Rows of step s − 1's output (the volume input at s = 0) step s reads.
  const auto reads = [&](int s, RowInterval rows) {
    const int first = s == 0 ? 0 : walk.step_last[s - 1] + 1;
    for (int li = walk.step_last[s]; li >= first; --li) {
      rows = input_rows_for(volume[static_cast<std::size_t>(li)], rows);
    }
    return rows;
  };

  // A band computes the rows of its field no earlier band's field holds,
  // and its next step reads the rest of what it needs from the seam store.
  walk.seams.clear();
  for (std::size_t b = 0; b < bands.size(); ++b) {
    DE_REQUIRE(!bands[b].empty(), "empty split-part");
    for (std::size_t e = 0; e < b; ++e) {
      DE_REQUIRE(bands[e].intersect(bands[b]).empty(),
                 "part walk bands overlap");
    }
    RowInterval field = bands[b];
    for (int s = n_steps - 1; s >= 0; --s) {
      PartWalk::Step& st = at(b, s);
      st.field = field;
      st.compute = field;
      for (std::size_t e = 0; e < b; ++e) {
        st.compute = without(st.compute, at(e, s).field);
      }
      field = reads(s, field);
    }
    for (int s = 0; s < n_steps; ++s) {
      PartWalk::Step& st = at(b, s);
      st.held = s + 1 < n_steps ? reads(s + 1, at(b, s + 1).compute)
                                : st.compute;
      for_each_outside(st.held, st.compute, [&](RowInterval rows) {
        walk.seams.push_back({s, rows, 0});
      });
    }
  }

  // Lay out the seam store: each step's seam rows merged into runs.
  std::sort(walk.seams.begin(), walk.seams.end(),
            [](const PartWalk::SeamRun& x, const PartWalk::SeamRun& y) {
              return x.step != y.step ? x.step < y.step
                                      : x.rows.begin < y.rows.begin;
            });
  std::size_t n = 0;
  for (const PartWalk::SeamRun& run : walk.seams) {
    PartWalk::SeamRun* prev = n == 0 ? nullptr : &walk.seams[n - 1];
    if (prev != nullptr && prev->step == run.step &&
        run.rows.begin <= prev->rows.end) {
      prev->rows.end = std::max(prev->rows.end, run.rows.end);
    } else {
      walk.seams[n++] = run;
    }
  }
  walk.seams.resize(n);
  walk.seam_floats = 0;
  for (PartWalk::SeamRun& run : walk.seams) {
    run.at = walk.seam_floats;
    walk.seam_floats +=
        static_cast<std::size_t>(run.rows.size()) *
        row_floats(volume[static_cast<std::size_t>(walk.step_last[run.step])]);
  }
}

void part_walk_band_into(const PartWalk& walk, int band,
                         std::span<const LayerConfig> volume,
                         const Tensor& in_crop, int in_row_offset,
                         std::span<const ConvWeights> weights,
                         const ExecContext& ctx, Tensor& dst, int dst_top) {
  DE_REQUIRE(weights.size() == volume.size(), "one weight entry per layer");
  DE_REQUIRE(walk.n_steps() > 0 &&
                 walk.step_last.back() + 1 == static_cast<int>(volume.size()) &&
                 walk.fused ==
                     (ctx.engine == ExecEngine::kFast && ctx.fuse_conv_pool),
             "part walk planned for another volume or context");
  DE_REQUIRE(band >= 0 && band < walk.n_bands(), "part walk band out of range");
  // Intermediate steps alternate between the thread's two activation
  // buffers, which grow to the largest step seen and are never zero-filled:
  // the computed rows and the seam rows copied in overwrite every float the
  // next step reads.
  BandScratch& scratch = detail::thread_band_scratch();
  float* seams = BandScratch::ensure(scratch.seams, walk.seam_floats);
  const Tensor* cur = &in_crop;
  int cur_top = in_row_offset;
  std::size_t first = 0;  // the step's first layer
  for (int s = 0; s < walk.n_steps(); ++s) {
    const PartWalk::Step& st = walk.step(band, s);
    const auto last_layer = static_cast<std::size_t>(walk.step_last[s]);
    const LayerConfig& l = volume[last_layer];
    const bool last = s + 1 == walk.n_steps();
    Tensor& out = last ? dst
                       : scratch.activation(s % 2, st.held.size(), l.out_w(),
                                            l.out_c);
    const int out_top = last ? dst_top : st.held.begin;
    if (!st.compute.empty()) {
      if (last_layer > first) {
        conv_pool_forward_rows_into(volume[first], l, *cur, cur_top,
                                    st.compute, weights[first], ctx, out,
                                    out_top);
      } else if (l.kind == LayerKind::kConv) {
        conv_forward_rows_into(l, *cur, cur_top, st.compute, weights[first],
                               ctx, out, out_top);
      } else {
        maxpool_forward_rows_into(l, *cur, cur_top, st.compute, ctx, out,
                                  out_top);
      }
    }
    // Seam rows this band computed are kept for later bands; the ones it
    // reads but did not compute are copied in.
    const std::size_t rf = row_floats(l);
    for (const PartWalk::SeamRun& run : walk.seams) {
      if (run.step != s) continue;
      const auto seam_row = [&](int y) {
        return seams + run.at + static_cast<std::size_t>(y - run.rows.begin) * rf;
      };
      const auto out_row = [&](int y) {
        return out.data.data() + static_cast<std::size_t>(y - out_top) * rf;
      };
      const RowInterval reads = run.rows.intersect(st.held);
      const RowInterval kept = reads.intersect(st.compute);
      if (!kept.empty()) {
        std::copy_n(out_row(kept.begin), kept.size() * rf, seam_row(kept.begin));
      }
      for_each_outside(reads, st.compute, [&](RowInterval rows) {
        std::copy_n(seam_row(rows.begin), rows.size() * rf, out_row(rows.begin));
      });
    }
    cur = &out;
    cur_top = out_top;
    first = last_layer + 1;
  }
}

void volume_forward_rows_into(std::span<const LayerConfig> volume,
                              const Tensor& in_crop, int in_row_offset,
                              RowInterval last_out,
                              std::span<const ConvWeights> weights,
                              const ExecContext& ctx, Tensor& dst,
                              int dst_top) {
  PartWalk& walk = detail::thread_band_scratch().walk;
  plan_part_walk(volume, std::span(&last_out, 1), ctx, walk);
  part_walk_band_into(walk, 0, volume, in_crop, in_row_offset, weights, ctx,
                      dst, dst_top);
}

Tensor volume_forward_rows(std::span<const LayerConfig> volume,
                           const Tensor& in_crop, int in_row_offset,
                           RowInterval last_out,
                           std::span<const ConvWeights> weights,
                           const ExecContext& ctx) {
  DE_REQUIRE(!volume.empty(), "empty volume");
  DE_REQUIRE(!last_out.empty(), "empty split-part");
  Tensor out(last_out.size(), volume.back().out_w(), volume.back().out_c);
  volume_forward_rows_into(volume, in_crop, in_row_offset, last_out, weights,
                           ctx, out, last_out.begin);
  return out;
}

Tensor volume_forward(std::span<const LayerConfig> volume, const Tensor& in,
                      std::span<const ConvWeights> weights,
                      const ExecContext& ctx) {
  DE_REQUIRE(!volume.empty(), "empty volume");
  DE_REQUIRE(in.h == volume.front().in_h, "full forward input height mismatch");
  return volume_forward_rows(volume, in, 0,
                             RowInterval{0, volume.back().out_h()}, weights,
                             ctx);
}

std::uint64_t exec_scratch_allocs() { return detail::scratch_grow_count(); }

std::uint64_t exec_flops() {
  return g_executed.load(std::memory_order_relaxed);
}

}  // namespace de::cnn
