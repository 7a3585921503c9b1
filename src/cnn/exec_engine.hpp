// Convolution execution engines: the naive reference path and a fast path
// (packed kernels + im2col-style row panels + 2-D tiled ThreadPool
// decomposition + runtime ISA dispatch) that is bit-exact with it.
//
// kReference is the scalar 7-deep loop of conv_exec.cpp — the numerical
// ground truth. kFast repacks the conv weights so output channels are the
// innermost (vector-lane) dimension, gathers each output row's input patches
// into a per-thread reusable panel, and runs a cache-tiled
// multiply-accumulate over both. Bit-exactness is by construction, not by
// tolerance: for every output pixel the fast kernel performs exactly the
// reference's float operations in exactly the reference's order — bias
// first, then ky→kx→ic ascending with the same zero-padding taps *skipped*
// (never added as +0.0f) — and the only reordering is across independent
// output pixels / channels, which share no accumulator.
//
// Parallelism is a 2-D tiling: output rows × output-channel block ranges
// partition each call into tiles run across a ThreadPool (a standalone pool
// call into row bands only). A conv, pool or fused call below two
// detail::kMinOpsPerThread of work (FLOPs, comparisons) runs inline on the
// calling thread; a larger one gets about 4 tiles per kMinOpsPerThread, up
// to 4 per pool worker. Tiles write disjoint bytes, so threading cannot
// change results either. The multiply-accumulate micro-kernel is selected
// once per process from cpuid
// (generic scalar / SSE2 / AVX2 / AVX-512 — see kernel_isa.hpp), every
// target bit-exact by the same argument: lane width is packing layout, and
// no target uses FMA contraction. Maxpool runs channel-innermost (the
// compiler vectorizes it) yet keeps every output's comparison order, so NaN
// and ±0 ties resolve as in the reference. A fused conv→ReLU→maxpool
// epilogue computes pooling from a rolling window of conv rows without
// materializing the conv tensor; the pooled result is bitwise the same
// because max over identical values in identical order is. DESIGN.md §execution-engine has
// the full argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cnn/conv_exec.hpp"
#include "cnn/kernel_isa.hpp"
#include "common/thread_pool.hpp"

namespace de::cnn {

enum class ExecEngine {
  kReference,  ///< conv_exec.cpp scalar loops, single-threaded
  kFast,       ///< packed kernels + panels + 2-D tiled threading + ISA dispatch
};

const char* to_string(ExecEngine engine);
/// Parses "reference" / "fast" (as printed by to_string). Throws on unknown.
ExecEngine exec_engine_from_string(const std::string& name);

/// How to execute conv/pool forwards: which engine, (fast engine only) which
/// pool to spread tiles across, which ISA micro-kernel (kAuto = the process
/// default from cpuid / DE_KERNEL_ISA), and whether volume execution may
/// fuse conv→relu→pool pairs. A null pool runs the fast kernel
/// single-threaded, and so does any call too small to repay a pool
/// round-trip; the reference engine never threads, never packs, never
/// fuses. The fast engine packs each ConvWeights once per lane width, into
/// the weights object itself (ConvWeights::packed).
struct ExecContext {
  ExecEngine engine = ExecEngine::kReference;
  ThreadPool* pool = nullptr;  ///< not owned; tile parallelism when set
  KernelIsa isa = KernelIsa::kAuto;  ///< force a dispatch target (testing)
  bool fuse_conv_pool = true;  ///< volume fusion epilogue (fast engine only)

  static ExecContext reference() { return {}; }
  static ExecContext fast(ThreadPool* pool = nullptr) {
    return {ExecEngine::kFast, pool};
  }
  /// Fast engine on the process-wide shared pool — what the cluster runtime
  /// defaults to.
  static ExecContext fast_shared() {
    return {ExecEngine::kFast, &ThreadPool::shared()};
  }
};

/// Engine-dispatched counterparts of the conv_exec.hpp entry points. With
/// ExecContext::reference() they call the reference path verbatim; with the
/// fast engine they produce bit-identical tensors (tests/cnn/exec_engine_test).
Tensor conv_forward_rows(const LayerConfig& layer, const Tensor& in_crop,
                         int in_row_offset, RowInterval out_rows,
                         const ConvWeights& w, const ExecContext& ctx);
Tensor maxpool_forward_rows(const LayerConfig& layer, const Tensor& in_crop,
                            int in_row_offset, RowInterval out_rows,
                            const ExecContext& ctx);
Tensor volume_forward(std::span<const LayerConfig> volume, const Tensor& in,
                      std::span<const ConvWeights> weights,
                      const ExecContext& ctx);
Tensor volume_forward_rows(std::span<const LayerConfig> volume,
                           const Tensor& in_crop, int in_row_offset,
                           RowInterval last_out,
                           std::span<const ConvWeights> weights,
                           const ExecContext& ctx);

/// In-place band entries for the halo-first data plane: identical math to
/// the allocating counterparts, but the (final-layer) output rows land
/// directly in `dst`, whose row 0 is absolute output row `dst_top` — so a
/// part tensor can be filled band by band (boundary bands first, interior
/// later) with zero stitching copies. Disjoint `out_rows`/`last_out` bands
/// write disjoint bytes of `dst`, and a part computed as any row partition
/// of bands is bit-identical to one whole-part call: bands only re-cut the
/// row loop, and both engines are order-exact per output pixel. With the
/// reference engine the band is materialized and copied in (the reference
/// path stays byte-for-byte the conv_exec.cpp ground truth).
void conv_forward_rows_into(const LayerConfig& layer, const Tensor& in_crop,
                            int in_row_offset, RowInterval out_rows,
                            const ConvWeights& w, const ExecContext& ctx,
                            Tensor& dst, int dst_top);
void maxpool_forward_rows_into(const LayerConfig& layer, const Tensor& in_crop,
                               int in_row_offset, RowInterval out_rows,
                               const ExecContext& ctx, Tensor& dst,
                               int dst_top);
/// The one-band part walk (below): each band called on its own computes
/// its whole receptive field.
void volume_forward_rows_into(std::span<const LayerConfig> volume,
                              const Tensor& in_crop, int in_row_offset,
                              RowInterval last_out,
                              std::span<const ConvWeights> weights,
                              const ExecContext& ctx, Tensor& dst,
                              int dst_top);

/// The walk of one (volume, device) part computed as disjoint row bands of
/// the volume's last layer, in a fixed order (DESIGN.md §Halo-first
/// schedule). A step is one layer, or a conv→pool pair the context fuses.
/// At every step a band computes the rows of its field (every row its
/// output depends on) that no earlier band's field holds, and its next step
/// reads those plus rows earlier bands computed, which they left in the
/// seam store. So each row of each step is computed once per part and
/// executed work equals split_part_ops — except that a fused pair whose
/// pool kernel exceeds its stride recomputes, per band and tile seam, the
/// kernel − stride conv rows its pool windows share. Every row comes from
/// the same kernel call over the same input rows, so outputs are
/// bit-identical to computing each band alone. Intermediate steps live in
/// the calling thread's two alternating activation buffers and the seam
/// store in its scratch, so a walk's bands run in order on one thread.
struct PartWalk {
  struct Step {
    RowInterval field;    ///< rows of the step the band's output depends on
    RowInterval compute;  ///< rows the band computes (may be empty)
    RowInterval held;     ///< rows the next step reads (⊇ compute)
  };
  /// Seam rows of one step, stored from float `at` of the seam store.
  struct SeamRun {
    int step = 0;
    RowInterval rows;
    std::size_t at = 0;
  };

  bool fused = false;            ///< planned for a context that fuses
  std::vector<int> step_last;    ///< last volume layer of each step
  std::vector<Step> steps;       ///< steps[band * n_steps() + step]
  std::vector<SeamRun> seams;    ///< sorted by (step, rows)
  std::size_t seam_floats = 0;   ///< size of the seam store

  int n_steps() const { return static_cast<int>(step_last.size()); }
  int n_bands() const {
    return step_last.empty() ? 0
                             : static_cast<int>(steps.size() / step_last.size());
  }
  const Step& step(int band, int s) const {
    return steps[static_cast<std::size_t>(band) * step_last.size() +
                 static_cast<std::size_t>(s)];
  }
};

/// Plans `bands` (disjoint, non-empty, in compute order) of `volume` for
/// `ctx` into `walk`, reusing its storage: re-planning a walk of the same
/// shape allocates nothing.
void plan_part_walk(std::span<const LayerConfig> volume,
                    std::span<const RowInterval> bands, const ExecContext& ctx,
                    PartWalk& walk);
/// Runs band `band` of `walk` once bands [0, band) have run on this thread.
/// `in_crop` (row 0 = absolute row `in_row_offset`) covers the input every
/// band reads; the band's rows land in `dst` (row 0 = `dst_top`).
void part_walk_band_into(const PartWalk& walk, int band,
                         std::span<const LayerConfig> volume,
                         const Tensor& in_crop, int in_row_offset,
                         std::span<const ConvWeights> weights,
                         const ExecContext& ctx, Tensor& dst, int dst_top);

/// True when `pool` consumes exactly `conv`'s output (extents and channels
/// chain, no pool padding) — the shape volume execution fuses.
bool can_fuse_conv_pool(const LayerConfig& conv, const LayerConfig& pool);

/// Fused conv→(relu)→maxpool: produces `pool` output rows `out_rows` from
/// `conv`'s *input* crop, computing conv rows into a per-thread rolling
/// window of pool.kernel rows instead of materializing the conv tensor.
/// Bit-exact with the unfused two-layer chain: the conv rows are produced
/// by the same band kernel, and pooling performs identical comparisons in
/// identical order on identical values. With the reference engine the pair
/// is materialized layer by layer (ground truth unchanged).
Tensor conv_pool_forward_rows(const LayerConfig& conv, const LayerConfig& pool,
                              const Tensor& in_crop, int in_row_offset,
                              RowInterval out_rows, const ConvWeights& w,
                              const ExecContext& ctx);
void conv_pool_forward_rows_into(const LayerConfig& conv,
                                 const LayerConfig& pool, const Tensor& in_crop,
                                 int in_row_offset, RowInterval out_rows,
                                 const ConvWeights& w, const ExecContext& ctx,
                                 Tensor& dst, int dst_top);

/// Process-wide count of fast-path scratch buffer growths (panel /
/// fused-window / part-walk activations and seam store, across all
/// threads). Steady state is flat: once every participating thread has
/// executed a given geometry, repeated calls must not move this counter
/// (asserted in the banded-equivalence test — the engine-side analogue of
/// the data plane's frame_allocs).
std::uint64_t exec_scratch_allocs();

/// Process-wide count (relaxed) of the work the engine entries above
/// executed, in LayerConfig::ops_for_rows units: conv FLOPs plus pool
/// comparisons, the units of split_part_ops and CnnModel::conv_chain_ops.
std::uint64_t exec_flops();

}  // namespace de::cnn
