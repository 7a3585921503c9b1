// Internal interface between the engine front-end (exec_engine.cpp) and the
// per-ISA conv-band translation units (exec_kernel_<isa>.cpp). Not part of
// the public API — include exec_engine.hpp instead.
//
// A *band call* is the unit of parallel work: output rows [band_begin,
// band_end) × packed weight blocks [blk_lo, blk_hi) of one conv layer,
// written into disjoint bytes of a shared destination. The engine plans a
// 2-D grid of these (plan_conv_tiles) and runs them across the ThreadPool;
// each executing thread gathers input patches into its own persistent
// BandScratch panel, so steady state allocates nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "cnn/conv_exec.hpp"
#include "cnn/exec_engine.hpp"
#include "cnn/kernel_isa.hpp"
#include "cnn/layer.hpp"
#include "cnn/vsl.hpp"

namespace de::cnn::detail {

/// Output columns gathered per panel tile (one row of patches at a time).
constexpr int kOxTile = 48;

/// Conv weights repacked for the fast kernel: `lanes` output channels
/// innermost (independent accumulator lanes — one or two vector registers
/// per block depending on the ISA), one block per `lanes` channels, short
/// final blocks zero-padded (junk lanes are computed and discarded; they
/// share no accumulator with real ones). `lanes` is an ISA property: 8 for
/// generic/SSE2/AVX2, 16 for AVX-512 — layout only, never arithmetic.
struct PackedKernel {
  int k = 0;
  int row_len = 0;  ///< kernel * in_c: one ky row of a patch
  int blocks = 0;
  int lanes = 0;
  std::vector<float> data;  ///< [block][ky][kx*in_c][lanes]
  std::vector<float> bias;  ///< [block][lanes]

  const float* block_weights(int blk) const {
    return &data[static_cast<std::size_t>(blk) * k * row_len * lanes];
  }
  const float* block_bias(int blk) const {
    return &bias[static_cast<std::size_t>(blk) * lanes];
  }
};

/// `w` packed for `lanes`-wide blocks.
PackedKernel pack_weights(const LayerConfig& l, const ConvWeights& w,
                          int lanes);

/// Accumulator lanes per packed block for `isa` (a concrete target): 8 or
/// 16.
int kernel_isa_lanes(KernelIsa isa);

/// One ConvWeights' packs: slot 0 holds the 8-lane form, slot 1 the
/// 16-lane one, each packed once under its own guard (packed_for in
/// exec_engine.cpp).
struct PackedWeights::Slots {
  struct Slot {
    std::once_flag once;
    PackedKernel kernel;
  };
  Slot by_lanes[2];
};

/// Per-thread reusable buffers for the fast path. Thread-local: pool
/// workers and external callers each own one for the life of the thread, so
/// after the first call at a given geometry the steady state never touches
/// the allocator (asserted by tests via scratch_grow_count()).
struct BandScratch {
  std::vector<float> panel;  ///< gathered patch tile (kOxTile columns)
  std::vector<float> ring;   ///< fused conv→pool rolling conv-row window
  Tensor act[2];  ///< part walk's intermediate steps, alternating
  std::vector<float> seams;  ///< part walk's seam store (PartWalk::seams)
  PartWalk walk;  ///< volume_forward_rows_into's one-band walk

  /// Grows `v` to at least `n` floats; counts a scratch growth when the
  /// capacity actually changes.
  static float* ensure(std::vector<float>& v, std::size_t n);

  /// act[i] with extents h × w × c. Its data grows through ensure() and is
  /// never shrunk or zero-filled again, so it may hold more than h * w * c
  /// floats; only the first h * w * c belong to the activation.
  Tensor& activation(int i, int h, int w, int c);
};

/// The calling thread's scratch (created on first use).
BandScratch& thread_band_scratch();

/// Process-wide count of scratch buffer growths (relaxed). Flat in steady
/// state — the banded-equivalence test asserts it stops moving once every
/// participating thread has warmed up.
std::uint64_t scratch_grow_count();

/// One fast-conv work item (see file comment). `out` points at rows of
/// `layer->out_w() * layer->out_c` floats whose row 0 is absolute output
/// row `out_top`; only rows [band_begin, band_end) × channels
/// [blk_lo*lanes, min(blk_hi*lanes, out_c)) are written.
struct ConvBandCall {
  const LayerConfig* layer;
  const float* in;  ///< crop base: rows of in_w * in_c floats
  int in_row_offset;
  int band_begin;
  int band_end;
  int out_top;
  int blk_lo;
  int blk_hi;
  const PackedKernel* pk;
  float* out;
};

using ConvBandFn = void (*)(const ConvBandCall&);

/// Per-target entry point, or nullptr when the target is not compiled into
/// this binary (wrong architecture). Host-CPU support is *not* checked here
/// — kernel_isa_supported() is the safe query.
ConvBandFn conv_band_fn(KernelIsa isa);

// Defined one per exec_kernel_<isa>.cpp.
extern const ConvBandFn kConvBandGeneric;
extern const ConvBandFn kConvBandSse2;
extern const ConvBandFn kConvBandAvx2;
extern const ConvBandFn kConvBandAvx512;

/// A tile of the 2-D (row bands × oc-block ranges) decomposition.
struct ConvTile {
  RowInterval rows;
  int blk_lo = 0;
  int blk_hi = 0;
};

/// The 2-D decomposition of a conv call as a computed view (no per-call
/// allocation): tile i is row band i / oc_tiles × block range i % oc_tiles.
/// Bands partition out_rows exactly; block ranges partition [0, blocks).
struct ConvTilePlan {
  RowInterval out_rows;
  int blocks = 1;
  int n_bands = 1;
  int oc_tiles = 1;

  int count() const { return n_bands * oc_tiles; }
  ConvTile tile(int i) const {
    const int b = i / oc_tiles;
    const int o = i % oc_tiles;
    const int rows = out_rows.size();
    return ConvTile{
        RowInterval{out_rows.begin + rows * b / n_bands,
                    out_rows.begin + rows * (b + 1) / n_bands},
        blocks * o / oc_tiles, blocks * (o + 1) / oc_tiles};
  }
};

/// Plans the 2-D decomposition of `out_rows` × `blocks` for `threads`
/// workers: rows are split first (splitting output channels duplicates the
/// per-row gather, so oc-block ranges join only when there are too few rows
/// to feed the pool), into ~4 tiles per worker so parallel_for's dynamic
/// claiming absorbs uneven tile cost. threads <= 1 yields the whole call as
/// one tile.
ConvTilePlan plan_conv_tiles(RowInterval out_rows, int blocks, int threads);

/// Work (LayerConfig::ops_for_rows: conv FLOPs, pool comparisons) of one
/// thread's worth. A call under two of these costs less to run inline than
/// the wake-up, claim and join round-trip of a pool its co-located
/// providers contend for (DESIGN.md §Execution engine has the measurements
/// behind the value).
inline constexpr Ops kMinOpsPerThread = 1'000'000;

/// Threads' worth of work in a call of `ops` on a pool of `pool_size`:
/// clamp(ops / kMinOpsPerThread, 1, pool_size). 1 runs the call inline on
/// the calling thread. Never exceeds max(pool_size, 1) and never decreases
/// as `ops` grows. The engine passes it to plan_conv_tiles, so above 1 it
/// sets the tile count only: ThreadPool::parallel_for still wakes one
/// worker per tile, up to the whole pool.
int threads_for_work(Ops ops, int pool_size);

}  // namespace de::cnn::detail
