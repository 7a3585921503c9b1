// Fast conv/pool execution front-end (DESIGN.md §execution-engine).
//
// The arithmetic lives in the per-ISA band kernels (exec_kernel_<isa>.cpp,
// shared body in exec_band.inl): pack weights `lanes` output channels
// innermost, gather each output row's patches into the executing thread's
// persistent panel, multiply-accumulate in the reference's per-pixel op
// order. This file owns everything around the kernel: packed-weight
// caching (locked first-touch, so contexts may be shared across threads),
// the work-sized fan-out of every layer kind (exec_threads: a conv, pool or
// fused call too small to repay a pool round-trip runs inline, a larger one
// gets tiles in proportion to its work, up to 4 per pool worker), the 2-D
// (row bands × oc-block ranges) tile decomposition run across the
// ThreadPool, the channel-innermost maxpool loop shared by standalone and
// fused pooling, the fused conv→relu→maxpool epilogue, and volume chaining
// through the thread's reused activation buffers.
//
// Padding taps are *skipped* exactly like the reference skips them (ky and
// kx clamp to the in-bounds range), never multiplied in as zeros: x + 0.0f
// is not an identity for x == -0.0f, and the bit-exactness contract is
// absolute. The build compiles this directory with -ffp-contract=off so
// neither engine can be fma-contracted differently from the other, and the
// SIMD kernels use explicit mul+add intrinsics — never FMA.
#include "cnn/exec_engine.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <mutex>
#include <utility>
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

struct ExecCache::Impl {
  // Guards first-touch packing: two threads sharing a context must not race
  // the map insert (the historical hazard cnn_exec_cache_race_test pins).
  // Entries are packed under the lock and immutable afterwards; the map is
  // node-based, so returned references stay valid across later inserts.
  std::mutex mu;
  std::map<std::pair<const ConvWeights*, int>, detail::PackedKernel> packed;
};

ExecCache::ExecCache() : impl_(std::make_unique<Impl>()) {}
ExecCache::~ExecCache() = default;
ExecCache::ExecCache(ExecCache&&) noexcept = default;
ExecCache& ExecCache::operator=(ExecCache&&) noexcept = default;

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

/// The packed form of `w` at `lanes` wide blocks: from the cache when the
/// context carries one (packing each (weights, lanes) pair at most once per
/// cache, first touch under the cache lock), else packed into the calling
/// thread's scratch — reused across calls, so the no-cache path allocates
/// only until the largest layer has been seen. The cache key is the weights
/// object's address — valid because a ConvWeights belongs to one layer for
/// its whole life in this codebase; the extent assert catches a violation
/// of that assumption.
const PackedKernel& packed_for(const LayerConfig& l, const ConvWeights& w,
                               const ExecContext& ctx, int lanes) {
  if (ctx.cache == nullptr) {
    PackedKernel& scratch = detail::thread_band_scratch().pack;
    detail::pack_weights_into(scratch, l, w, lanes);
    return scratch;
  }
  auto& impl = ctx.cache->impl();
  std::lock_guard lk(impl.mu);
  PackedKernel& slot = impl.packed[{&w, lanes}];
  if (slot.blocks == 0) detail::pack_weights_into(slot, l, w, lanes);
  DE_ASSERT(slot.lanes == lanes && slot.k == l.kernel &&
                slot.row_len == l.kernel * l.in_c &&
                slot.blocks == (l.out_c + lanes - 1) / lanes,
            "cached packed weights belong to a different layer config");
  return slot;
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
  if (ctx.engine == ExecEngine::kReference) {
    return conv_forward_rows(layer, in_crop, in_row_offset, out_rows, w);
  }
  DE_REQUIRE(!out_rows.empty(), "empty output interval");
  Tensor out(out_rows.size(), layer.out_w(), layer.out_c);
  conv_forward_rows_into(layer, in_crop, in_row_offset, out_rows, w, ctx, out,
                         out_rows.begin);
  return out;
}

Tensor maxpool_forward_rows(const LayerConfig& layer, const Tensor& in_crop,
                            int in_row_offset, RowInterval out_rows,
                            const ExecContext& ctx) {
  if (ctx.engine == ExecEngine::kReference) {
    return maxpool_forward_rows(layer, in_crop, in_row_offset, out_rows);
  }
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
    copy_band(band, out_rows.begin, out_rows, dst, dst_top);
    return;
  }
  DE_REQUIRE(layer.kind == LayerKind::kConv, "conv_forward_rows on non-conv");
  require_crop_covers(layer, in_crop, in_row_offset, out_rows);
  const KernelTarget target = kernel_target(ctx);
  const PackedKernel& pk = packed_for(layer, w, ctx, target.lanes);
  const auto plan = detail::plan_conv_tiles(
      out_rows, pk.blocks,
      exec_threads(ctx, layer.ops_for_rows(out_rows.size())));
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
  // One channel block: pool tiles are row bands only.
  const auto plan = detail::plan_conv_tiles(
      out_rows, 1, exec_threads(ctx, layer.ops_for_rows(out_rows.size())));
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
  if (ctx.engine == ExecEngine::kReference) {
    const Tensor conv_out =
        conv_forward_rows(conv, in_crop, in_row_offset, conv_rows, w);
    const Tensor pooled =
        maxpool_forward_rows(pool, conv_out, conv_rows.begin, out_rows);
    copy_band(pooled, out_rows.begin, out_rows, dst, dst_top);
    return;
  }
  require_crop_covers(conv, in_crop, in_row_offset, conv_rows);
  const KernelTarget target = kernel_target(ctx);
  const PackedKernel& pk = packed_for(conv, w, ctx, target.lanes);
  const Ops ops =
      conv.ops_for_rows(conv_rows.size()) + pool.ops_for_rows(out_rows.size());
  run_tiles(
      detail::plan_conv_tiles(out_rows, pk.blocks, exec_threads(ctx, ops)),
      ctx, [&](ConvTile t) {
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

void volume_forward_rows_into(std::span<const LayerConfig> volume,
                              const Tensor& in_crop, int in_row_offset,
                              RowInterval last_out,
                              std::span<const ConvWeights> weights,
                              const ExecContext& ctx, Tensor& dst,
                              int dst_top) {
  DE_REQUIRE(weights.size() == volume.size(), "one weight entry per layer");
  DE_REQUIRE(!last_out.empty(), "empty split-part");
  if (ctx.engine == ExecEngine::kReference) {
    const Tensor band =
        volume_forward_rows(volume, in_crop, in_row_offset, last_out, weights);
    require_dst_covers(volume.back(), dst, dst_top, last_out);
    copy_band(band, last_out.begin, last_out, dst, dst_top);
    return;
  }
  // The first layer reads the caller's crop in place and the last lands in
  // `dst`; the layers between alternate between the calling thread's two
  // activation buffers, which grow to the largest band seen and are never
  // zero-filled — each layer overwrites every float the next one reads.
  // Conv layers whose entire output feeds the next maxpool are fused: that
  // conv activation is never materialized at all (conv_pool_forward_rows).
  BandScratch& scratch = detail::thread_band_scratch();
  std::vector<RowInterval>& per_layer = scratch.rows;
  per_layer.resize(volume.size());
  per_layer_output_rows(volume, last_out, per_layer);
  const Tensor* cur = &in_crop;
  int offset = in_row_offset;
  int buf = 0;  // the activation buffer the next intermediate layer fills
  for (std::size_t i = 0; i < volume.size();) {
    const bool fuse = ctx.fuse_conv_pool && i + 1 < volume.size() &&
                      can_fuse_conv_pool(volume[i], volume[i + 1]);
    const std::size_t last_i = fuse ? i + 1 : i;
    const bool last = last_i + 1 == volume.size();
    const LayerConfig& l = volume[last_i];
    const RowInterval rows = per_layer[last_i];
    Tensor& out =
        last ? dst : scratch.activation(buf, rows.size(), l.out_w(), l.out_c);
    const int out_top = last ? dst_top : rows.begin;
    if (fuse) {
      conv_pool_forward_rows_into(volume[i], l, *cur, offset, rows, weights[i],
                                  ctx, out, out_top);
    } else if (l.kind == LayerKind::kConv) {
      conv_forward_rows_into(l, *cur, offset, rows, weights[i], ctx, out,
                             out_top);
    } else {
      maxpool_forward_rows_into(l, *cur, offset, rows, ctx, out, out_top);
    }
    cur = &out;
    offset = rows.begin;
    buf ^= 1;
    i = last_i + 1;
  }
}

Tensor volume_forward_rows(std::span<const LayerConfig> volume,
                           const Tensor& in_crop, int in_row_offset,
                           RowInterval last_out,
                           std::span<const ConvWeights> weights,
                           const ExecContext& ctx) {
  if (ctx.engine == ExecEngine::kReference) {
    return volume_forward_rows(volume, in_crop, in_row_offset, last_out,
                               weights);
  }
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
  if (ctx.engine == ExecEngine::kReference) {
    return volume_forward(volume, in, weights);
  }
  DE_REQUIRE(weights.size() == volume.size(), "one weight entry per layer");
  DE_REQUIRE(!volume.empty(), "empty volume");
  DE_REQUIRE(in.h == volume.front().in_h, "full forward input height mismatch");
  return volume_forward_rows(volume, in, 0,
                             RowInterval{0, volume.back().out_h()}, weights,
                             ctx);
}

std::uint64_t exec_scratch_allocs() { return detail::scratch_grow_count(); }

}  // namespace de::cnn
