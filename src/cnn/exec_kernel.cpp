#include "cnn/exec_kernel.hpp"

#include <algorithm>
#include <memory>

#include "common/require.hpp"

namespace de::cnn::detail {

namespace {
std::atomic<std::uint64_t> g_scratch_grows{0};
}  // namespace

float* BandScratch::ensure(std::vector<float>& v, std::size_t n) {
  if (v.size() < n) {
    if (v.capacity() < n) {
      g_scratch_grows.fetch_add(1, std::memory_order_relaxed);
    }
    v.resize(n);
  }
  return v.data();
}

Tensor& BandScratch::activation(int i, int h, int w, int c) {
  Tensor& t = act[i];
  ensure(t.data, static_cast<std::size_t>(h) * w * c);
  t.h = h;
  t.w = w;
  t.c = c;
  return t;
}

BandScratch& thread_band_scratch() {
  thread_local BandScratch scratch;
  return scratch;
}

std::uint64_t scratch_grow_count() {
  return g_scratch_grows.load(std::memory_order_relaxed);
}

PackedWeights::Slots& PackedWeights::slots() const {
  Slots* have = slots_.load(std::memory_order_acquire);
  if (have != nullptr) return *have;
  auto fresh = std::make_unique<Slots>();
  if (slots_.compare_exchange_strong(have, fresh.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
    return *fresh.release();
  }
  return *have;  // another thread's first use won
}

void PackedWeights::reset() noexcept {
  delete slots_.exchange(nullptr, std::memory_order_acq_rel);
}

PackedKernel pack_weights(const LayerConfig& l, const ConvWeights& w,
                          int lanes) {
  PackedKernel p;
  p.k = l.kernel;
  p.row_len = l.kernel * l.in_c;
  p.blocks = (l.out_c + lanes - 1) / lanes;
  p.lanes = lanes;
  // Zero-filled: the junk lanes of a short final block stay zero.
  p.data.assign(
      static_cast<std::size_t>(p.blocks) * l.kernel * p.row_len * lanes, 0.0f);
  p.bias.assign(static_cast<std::size_t>(p.blocks) * lanes, 0.0f);
  float* data = p.data.data();
  float* bias = p.bias.data();
  const std::size_t k_in =
      static_cast<std::size_t>(l.in_c) * l.kernel * l.kernel;
  for (int oc = 0; oc < l.out_c; ++oc) {
    const int blk = oc / lanes;
    const int lane = oc % lanes;
    bias[static_cast<std::size_t>(blk) * lanes + lane] =
        w.bias[static_cast<std::size_t>(oc)];
    const float* src = &w.weights[static_cast<std::size_t>(oc) * k_in];
    for (std::size_t j = 0; j < k_in; ++j) {
      data[(static_cast<std::size_t>(blk) * l.kernel * p.row_len + j) * lanes +
           lane] = src[j];
    }
  }
  return p;
}

int kernel_isa_lanes(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kGeneric:
    case KernelIsa::kSse2:
    case KernelIsa::kAvx2:
      return 8;
    case KernelIsa::kAvx512:
      return 16;
    case KernelIsa::kAuto:
      break;
  }
  throw Error("kernel_isa_lanes on non-concrete ISA");
}

ConvBandFn conv_band_fn(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kGeneric: return kConvBandGeneric;
    case KernelIsa::kSse2: return kConvBandSse2;
    case KernelIsa::kAvx2: return kConvBandAvx2;
    case KernelIsa::kAvx512: return kConvBandAvx512;
    case KernelIsa::kAuto: break;
  }
  return nullptr;
}

ConvTilePlan plan_conv_tiles(RowInterval out_rows, int blocks, int threads) {
  ConvTilePlan plan{out_rows, std::max(1, blocks), 1, 1};
  const int rows = out_rows.size();
  if (threads <= 1 || rows <= 0) return plan;
  const int target = threads * 4;
  plan.n_bands = std::min(rows, target);
  if (plan.n_bands < target) {
    plan.oc_tiles = std::min(
        plan.blocks, (target + plan.n_bands - 1) / plan.n_bands);
  }
  return plan;
}

int threads_for_work(Ops ops, int pool_size) {
  return static_cast<int>(std::clamp<Ops>(ops / kMinOpsPerThread, 1,
                                          std::max(pool_size, 1)));
}

}  // namespace de::cnn::detail
