// Reference-oracle conformance suite for the fast execution engine: every
// tensor the fast path produces must be bit-identical (the same bit
// patterns, so -0.0 is not +0.0 and a NaN must match a NaN; no tolerance)
// to the reference scalar path — across every distinct conv and pool layer
// configuration in the model zoo, across randomized layer geometries,
// across degenerate row bands (1-row intervals, boundary rows, slack crops),
// across pool windows whose maximum only the comparison order decides
// (+0.0, -0.0, NaN, -inf), with and without ThreadPool tiling, for EVERY
// ISA dispatch target this host supports (generic / SSE2 / AVX2 / AVX-512),
// and with the fused conv→relu→maxpool epilogue on and off.
#include "cnn/exec_engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <latch>
#include <limits>
#include <map>
#include <string>

#include "cnn/exec_kernel.hpp"
#include "cnn/layer_volume.hpp"
#include "cnn/model.hpp"
#include "cnn/model_zoo.hpp"
#include "common/require.hpp"
#include "device/latency_model.hpp"
#include "obs/trace.hpp"
#include "tensor_bits.hpp"

namespace de::cnn {
namespace {

Tensor random_tensor(int h, int w, int c, Rng& rng) {
  Tensor t(h, w, c);
  for (auto& v : t.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

/// Threads' worth of work the fast engine plans for a conv or fused call of
/// `ops` FLOPs on `pool` (detail::threads_for_work); 1 runs it inline.
int work_threads(Ops ops, const ThreadPool& pool) {
  return detail::threads_for_work(ops, static_cast<int>(pool.size()));
}

/// The engine's work measure for one fused conv→pool call over `out_rows`.
Ops fused_ops(const LayerConfig& conv, const LayerConfig& pool_l,
              RowInterval out_rows) {
  return conv.ops_for_rows(input_rows_for(pool_l, out_rows).size()) +
         pool_l.ops_for_rows(out_rows.size());
}

/// The fewest rows, from `min_rows` up, over which a band of an `out_h`-row
/// call is worth as many threads of `pool` as the whole call, where
/// `ops_of(rows)` is the work of the band checked at that many rows: the
/// cheapest band that still fans out as far as the call can.
template <typename OpsOf>
int fanout_rows(int out_h, int min_rows, const ThreadPool& pool,
                const OpsOf& ops_of) {
  const int most = work_threads(ops_of(out_h), pool);
  int rows = std::min(min_rows, out_h);
  while (rows < out_h && work_threads(ops_of(rows), pool) < most) ++rows;
  return rows;
}

int fanout_rows(const LayerConfig& l, int min_rows, const ThreadPool& pool) {
  return fanout_rows(l.out_h(), min_rows, pool,
                     [&](int rows) { return l.ops_for_rows(rows); });
}

/// Input channels that give a conv of `l`'s geometry (any in_c) about
/// 3.2 MFLOP over `rows` output rows — three threads' worth, the most a
/// ThreadPool(3) plans for — clamped to [1, 256].
int fanout_in_c(const LayerConfig& l, int rows) {
  const Ops per_in_c = l.ops_for_rows(rows) / l.in_c;
  const Ops want = 16 * detail::kMinOpsPerThread / 5;
  return static_cast<int>(
      std::clamp<Ops>((want + per_in_c - 1) / per_in_c, 1, 256));
}

/// Runs one conv layer over `out_rows` with the minimal required crop (plus
/// `slack` extra leading rows) and checks fast == reference — serially and
/// tiled across `pool`, for every ISA dispatch target this host supports.
/// A tiled check must really fan out: a call below two threads' worth of
/// work runs inline and would only repeat the serial check.
void check_conv_rows(const LayerConfig& l, RowInterval out_rows, Rng& rng,
                     ThreadPool* pool, const std::string& what,
                     int slack = 0) {
  if (pool != nullptr) {
    ASSERT_GT(work_threads(l.ops_for_rows(out_rows.size()), *pool), 1)
        << what << " is too small to fan out";
  }
  const auto need = input_rows_for(l, out_rows);
  const int offset = std::max(0, need.begin - slack);
  // A band entirely inside the zero padding needs no input rows at all
  // (`need` is empty); a 1-row buffer still satisfies the coverage contract.
  const auto crop =
      random_tensor(std::max(1, need.end - offset), l.in_w, l.in_c, rng);
  const auto w = ConvWeights::random(l, rng);

  const auto ref = conv_forward_rows(l, crop, offset, out_rows, w);
  for (const KernelIsa isa : supported_kernel_isas()) {
    ExecContext ctx = ExecContext::fast();
    ctx.isa = isa;
    const auto fast = conv_forward_rows(l, crop, offset, out_rows, w, ctx);
    expect_bitexact(fast, ref,
                    what + " serial [" + to_string(isa) + "]");
    if (pool != nullptr) {
      ctx.pool = pool;
      const auto tiled = conv_forward_rows(l, crop, offset, out_rows, w, ctx);
      expect_bitexact(tiled, ref,
                      what + " tiled [" + to_string(isa) + "]");
    }
  }
}

/// Fused conv→pool epilogue over `out_rows` (pool rows) against the unfused
/// two-layer reference chain — per ISA, serial and tiled, plus the fast
/// unfused path (ctx.fuse_conv_pool = false) as a third witness. As in
/// check_conv_rows, a tiled check must fan out.
void check_conv_pool_crop(const LayerConfig& conv, const LayerConfig& pool_l,
                          const Tensor& crop, int offset, const ConvWeights& w,
                          RowInterval out_rows, ThreadPool* pool,
                          const std::string& what) {
  ASSERT_TRUE(can_fuse_conv_pool(conv, pool_l)) << what;
  if (pool != nullptr) {
    ASSERT_GT(work_threads(fused_ops(conv, pool_l, out_rows), *pool), 1)
        << what << " is too small to fan out";
  }
  const RowInterval conv_rows = input_rows_for(pool_l, out_rows);
  const auto conv_ref = conv_forward_rows(conv, crop, offset, conv_rows, w);
  const auto ref =
      maxpool_forward_rows(pool_l, conv_ref, conv_rows.begin, out_rows);

  for (const KernelIsa isa : supported_kernel_isas()) {
    ExecContext ctx = ExecContext::fast();
    ctx.isa = isa;
    expect_bitexact(
        conv_pool_forward_rows(conv, pool_l, crop, offset, out_rows, w, ctx),
        ref, what + " fused serial [" + to_string(isa) + "]");
    if (pool != nullptr) {
      ctx.pool = pool;
      expect_bitexact(
          conv_pool_forward_rows(conv, pool_l, crop, offset, out_rows, w, ctx),
          ref, what + " fused tiled [" + to_string(isa) + "]");
    }
  }
  // The volume path with fusion disabled must agree too (same layers run as
  // two separate fast calls).
  const LayerConfig layers[] = {conv, pool_l};
  const ConvWeights wts[] = {w, ConvWeights{}};
  ExecContext unfused = ExecContext::fast(pool);
  unfused.fuse_conv_pool = false;
  expect_bitexact(
      volume_forward_rows(layers, crop, offset, out_rows, wts, unfused), ref,
      what + " unfused volume");
  ExecContext fused = ExecContext::fast(pool);
  expect_bitexact(
      volume_forward_rows(layers, crop, offset, out_rows, wts, fused), ref,
      what + " fused volume");
}

/// check_conv_pool_crop on a random minimal crop and random weights.
void check_conv_pool_rows(const LayerConfig& conv, const LayerConfig& pool_l,
                          RowInterval out_rows, Rng& rng, ThreadPool* pool,
                          const std::string& what) {
  const auto need = input_rows_for(conv, input_rows_for(pool_l, out_rows));
  const auto crop =
      random_tensor(std::max(1, need.size()), conv.in_w, conv.in_c, rng);
  const auto w = ConvWeights::random(conv, rng);
  check_conv_pool_crop(conv, pool_l, crop, need.begin, w, out_rows, pool,
                       what);
}

/// Standalone maxpool over `out_rows` against the reference, per ISA
/// (dispatch must not reach pooling), serially and — when `pool` is set,
/// and the call must then fan out — tiled.
void check_pool_rows(const LayerConfig& l, const Tensor& crop, int offset,
                     RowInterval out_rows, ThreadPool* pool,
                     const std::string& what) {
  if (pool != nullptr) {
    ASSERT_GT(work_threads(l.ops_for_rows(out_rows.size()), *pool), 1)
        << what << " is too small to fan out";
  }
  const auto ref = maxpool_forward_rows(l, crop, offset, out_rows);
  for (const KernelIsa isa : supported_kernel_isas()) {
    ExecContext ctx = ExecContext::fast();
    ctx.isa = isa;
    expect_bitexact(maxpool_forward_rows(l, crop, offset, out_rows, ctx), ref,
                    what + " serial [" + to_string(isa) + "]");
    if (pool != nullptr) {
      ctx.pool = pool;
      expect_bitexact(maxpool_forward_rows(l, crop, offset, out_rows, ctx),
                      ref, what + " tiled [" + to_string(isa) + "]");
    }
  }
}

/// The values a max over them decides by comparison order alone:
/// std::max(best, v) keeps the first of +0.0 and -0.0 and never picks a
/// NaN, and -inf is where every window's fold starts.
const float kTies[] = {+0.0f, -0.0f, std::numeric_limits<float>::quiet_NaN(),
                       -std::numeric_limits<float>::infinity()};

Tensor ties_tensor(int h, int w, int c, Rng& rng) {
  Tensor t(h, w, c);
  for (auto& v : t.data) v = kTies[rng.uniform_int(0, 3)];
  return t;
}

/// The smallest odd input extent from `k` up at which `make(extent)`, a
/// layer or pair of that square input, carries `ops_of(layer)` of about
/// three threads' worth on a ThreadPool(3), like fanout_in_c.
template <typename Make, typename OpsOf>
auto grow_to_fanout(int k, const Make& make, const OpsOf& ops_of) {
  for (int extent = k | 1;; extent += 2) {
    const auto made = make(extent);
    if (ops_of(made) >= 16 * detail::kMinOpsPerThread / 5) return made;
  }
}

// Every distinct conv configuration that appears anywhere in the paper's
// eight-model zoo, exercised on a first-row band, a mid band, and a last-row
// band (the minimal crop of a band is the interesting case: the fast
// kernel's ky clamping and crop-offset arithmetic both engage). The mid band
// is at least 2 rows, grown until it fans out as far as the layer can; the
// few layers too small to fan out even whole run it inline, as they do in
// production.
TEST(ExecEngineZoo, EveryConvConfigBitExact) {
  ThreadPool pool(3);
  Rng rng(2024);
  std::map<std::string, LayerConfig> configs;
  for (const auto& name : zoo_names()) {
    const auto m = model_by_name(name);
    for (const auto& l : m.layers()) {
      if (l.kind == LayerKind::kConv) configs.emplace(device::layer_signature(l), l);
    }
  }
  ASSERT_GT(configs.size(), 20u);  // the zoo is genuinely diverse
  std::size_t tiled = 0;
  for (const auto& [sig, l] : configs) {
    const int out_h = l.out_h();
    check_conv_rows(l, RowInterval{0, 1}, rng, nullptr, sig + " first-row");
    const int rows = fanout_rows(l, 2, pool);
    const int mid = std::min(out_h / 2, out_h - rows);
    const bool fans_out = work_threads(l.ops_for_rows(rows), pool) > 1;
    tiled += fans_out ? 1 : 0;
    check_conv_rows(l, RowInterval{mid, mid + rows}, rng,
                    fans_out ? &pool : nullptr, sig + " mid-band");
    check_conv_rows(l, RowInterval{out_h - 1, out_h}, rng, nullptr,
                    sig + " last-row");
  }
  EXPECT_GT(tiled * 10, configs.size() * 9);  // nearly every layer tiles
}

// Zoo pooling configs on a 3-row band. Bands this small run inline under the
// fan-out rule; PoolTiesResolveLikeTheReference below checks tiled pools.
TEST(ExecEngineZoo, EveryPoolConfigBitExact) {
  ThreadPool pool(3);
  Rng rng(77);
  std::map<std::string, LayerConfig> configs;
  for (const auto& name : zoo_names()) {
    const auto m = model_by_name(name);
    for (const auto& l : m.layers()) {
      if (l.kind == LayerKind::kMaxPool)
        configs.emplace(device::layer_signature(l), l);
    }
  }
  ASSERT_FALSE(configs.empty());
  for (const auto& [sig, l] : configs) {
    const int out_h = l.out_h();
    const RowInterval out_rows{out_h / 3, std::min(out_h, out_h / 3 + 3)};
    const auto need = input_rows_for(l, out_rows);
    const auto crop = random_tensor(need.size(), l.in_w, l.in_c, rng);
    const auto ref = maxpool_forward_rows(l, crop, need.begin, out_rows);
    expect_bitexact(maxpool_forward_rows(l, crop, need.begin, out_rows,
                                         ExecContext::fast(&pool)),
                    ref, sig);
  }
}

// Pool windows whose maximum only the comparison order decides: every
// order of +0.0, -0.0, NaN and -inf in a 2x2 window (channel ch's four taps
// are the base-4 digits of ch), then random mixes under 2x2 s2 and the
// overlapping 3x3 s2 at 19 channels (off every vector width) — whole calls
// sized to fan out, and single first and last rows inline.
TEST(ExecEngineBitwise, PoolTiesResolveLikeTheReference) {
  ThreadPool pool(3);
  Rng rng(404);
  const auto every_order = LayerConfig::maxpool(2, 2, 256, 2, 2);
  Tensor orders(2, 2, 256);
  for (int ch = 0; ch < 256; ++ch) {
    for (int tap = 0; tap < 4; ++tap) {
      orders.at(tap / 2, tap % 2, ch) = kTies[(ch >> (2 * tap)) & 3];
    }
  }
  check_pool_rows(every_order, orders, 0, RowInterval{0, 1}, nullptr,
                  "every 2x2 order");

  for (const auto& [k, s] : {std::pair{2, 2}, std::pair{3, 2}}) {
    const auto l = grow_to_fanout(
        k, [&](int in) { return LayerConfig::maxpool(in, in, 19, k, s); },
        [](const LayerConfig& pl) { return pl.ops(); });
    const auto in = ties_tensor(l.in_h, l.in_w, l.in_c, rng);
    const int out_h = l.out_h();
    const std::string what = "ties " + std::to_string(l.in_h) + "^2 k" +
                             std::to_string(k) + " s" + std::to_string(s);
    check_pool_rows(l, in, 0, RowInterval{0, out_h}, &pool, what + " whole");
    check_pool_rows(l, in, 0, RowInterval{0, 1}, nullptr, what + " first-row");
    check_pool_rows(l, in, 0, RowInterval{out_h - 1, out_h}, nullptr,
                    what + " last-row");
  }
}

// The same ties through the fused epilogue: a 1x1, in_c 1, relu-off conv
// with unit weights and a -0.0 bias passes its input through bit for bit
// (-0.0 + x * 1.0 is x for ±0, NaN and -inf alike), so its pool sees the
// drawn ties — checked fused and unfused, serial and tiled, on every ISA.
TEST(ExecEngineBitwise, FusedPoolTiesResolveLikeTheReference) {
  ThreadPool pool(3);
  Rng rng(405);
  constexpr int kChannels = 19;
  ConvWeights unit;
  unit.weights.assign(kChannels, 1.0f);
  unit.bias.assign(kChannels, -0.0f);
  for (const auto& [k, s] : {std::pair{2, 2}, std::pair{3, 2}}) {
    const auto [conv, pl] = grow_to_fanout(
        k,
        [&](int in) {
          const auto c = LayerConfig::conv(in, in, 1, kChannels, 1, 1, 0,
                                           /*relu=*/false);
          return std::pair{c, LayerConfig::maxpool(in, in, kChannels, k, s)};
        },
        [](const auto& p) {
          return fused_ops(p.first, p.second, RowInterval{0, p.second.out_h()});
        });
    const auto in = ties_tensor(conv.in_h, conv.in_w, 1, rng);
    const auto passed = conv_forward(conv, in, unit);
    for (std::size_t i = 0; i < passed.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(passed.data[i]),
                std::bit_cast<std::uint32_t>(in.data[i / kChannels]))
          << "the unit conv changed its input at flat index " << i;
    }
    const int out_h = pl.out_h();
    const std::string what = "fused ties " + std::to_string(conv.in_h) +
                             "^2 k" + std::to_string(k) + " s" +
                             std::to_string(s);
    check_conv_pool_crop(conv, pl, in, 0, unit, RowInterval{0, out_h}, &pool,
                         what + " whole");
    check_conv_pool_crop(conv, pl, in, 0, unit, RowInterval{0, 1}, nullptr,
                         what + " first-row");
    check_conv_pool_crop(conv, pl, in, 0, unit, RowInterval{out_h - 1, out_h},
                         nullptr, what + " last-row");
  }
}

// Randomized geometry sweep: kernel/stride/padding/channel combinations the
// zoo never hits, including out_c that is smaller than / not a multiple of
// the packed-lane width, 1x1 kernels, strides that skip input rows, padding
// wider than the kernel overhang, and relu on/off. Each case is run over a
// random row interval, a 1-row band, and with a slack crop (the crop starts
// above the first required row). The input channel count is drawn last,
// sized so the random interval carries ~3 MFLOP: three threads' worth on
// the pool, so the tiled checks cut it into row-band tiles or — when the
// interval has few rows — oc-block tiles.
TEST(ExecEngineProperty, RandomizedConfigsBitExact) {
  ThreadPool pool(3);
  Rng rng(0xC0FFEE);
  int tiled = 0;
  int oc_tiled = 0;
  for (int iter = 0; iter < 60; ++iter) {
    const int kernel = rng.uniform_int(1, 5);
    const int stride = rng.uniform_int(1, 3);
    // padding < kernel: a band fully inside the zero padding is rejected by
    // input_rows_for itself (vsl.cpp clips to a non-empty interval), so every
    // legal 1-row band must keep at least one valid tap.
    const int padding = rng.uniform_int(0, kernel - 1);
    const int out_c = rng.uniform_int(1, 40);
    const int in_h = rng.uniform_int(kernel + stride, 32);
    const int in_w = rng.uniform_int(kernel + stride, 64);
    const bool relu = iter % 2 == 0;
    LayerConfig l;
    try {
      l = LayerConfig::conv(in_w, in_h, 1, out_c, kernel, stride, padding,
                            relu);
      l.validate();
    } catch (const Error&) {
      continue;  // geometry with empty output — not a runnable layer
    }
    const int out_h = l.out_h();
    const int a = rng.uniform_int(0, out_h - 1);
    const int b = rng.uniform_int(a + 1, out_h);
    const RowInterval band{a, b};
    l = LayerConfig::conv(in_w, in_h, fanout_in_c(l, band.size()), out_c,
                          kernel, stride, padding, relu);
    const std::string what = "iter " + std::to_string(iter) + " k" +
                             std::to_string(kernel) + " s" +
                             std::to_string(stride) + " p" +
                             std::to_string(padding) + " in_c" +
                             std::to_string(l.in_c);

    const int threads = work_threads(l.ops_for_rows(band.size()), pool);
    ThreadPool* tiles = threads > 1 ? &pool : nullptr;
    tiled += threads > 1 ? 1 : 0;
    const auto plan = detail::plan_conv_tiles(band, (out_c + 7) / 8, threads);
    oc_tiled += plan.oc_tiles > 1 ? 1 : 0;
    check_conv_rows(l, band, rng, tiles, what + " rand-band");
    const int r = rng.uniform_int(0, out_h - 1);
    check_conv_rows(l, RowInterval{r, r + 1}, rng, nullptr, what + " one-row");
    check_conv_rows(l, band, rng, tiles, what + " slack",
                    /*slack=*/rng.uniform_int(1, 3));
  }
  // The sweep really fanned out, in both tile dimensions (oc-block ranges
  // counted at 8 lanes; AVX-512's 16 splits fewer).
  EXPECT_GE(tiled, 30);
  EXPECT_GE(oc_tiled, 10);
}

// Full-tensor forwards and stitched split-parts through a mixed conv/pool
// volume: the fast engine must agree with the reference through layer
// chaining, not just per layer.
TEST(ExecEngineVolume, ForwardAndSplitPartsBitExact) {
  ThreadPool pool(3);
  Rng rng(9);
  const auto m = ModelBuilder("mini", 24, 24, 3)
                     .conv_same(6, 3)
                     .conv_same(6, 3)
                     .maxpool(2, 2)
                     .conv_same(12, 3)
                     .conv(12, 3, 2, 1)
                     .build();
  std::vector<ConvWeights> weights;
  for (const auto& l : m.layers()) {
    weights.push_back(l.kind == LayerKind::kConv ? ConvWeights::random(l, rng)
                                                 : ConvWeights{});
  }
  const auto in = random_tensor(m.input_h(), m.input_w(), m.input_c(), rng);
  const std::span<const LayerConfig> layers(m.layers());
  const std::span<const ConvWeights> wts(weights);

  const auto ref = volume_forward(layers, in, wts);
  expect_bitexact(volume_forward(layers, in, wts, ExecContext::fast(&pool)),
                  ref, "full forward");

  const int height = layers.back().out_h();
  for (int n_parts : {2, 5, height}) {  // height parts == every band is 1 row
    for (int p = 0; p < n_parts; ++p) {
      const RowInterval part{height * p / n_parts, height * (p + 1) / n_parts};
      if (part.empty()) continue;
      const auto need = required_input_rows(layers, part);
      Tensor crop(need.size(), in.w, in.c);
      for (int y = need.begin; y < need.end; ++y)
        for (int x = 0; x < in.w; ++x)
          for (int ch = 0; ch < in.c; ++ch)
            crop.at(y - need.begin, x, ch) = in.at(y, x, ch);
      const auto ref_part = volume_forward_rows(layers, crop, need.begin, part, wts);
      expect_bitexact(
          volume_forward_rows(layers, crop, need.begin, part, wts,
                              ExecContext::fast(&pool)),
          ref_part,
          "part " + std::to_string(p) + "/" + std::to_string(n_parts));
    }
  }
}

TEST(ExecEngineVolume, BandedIntoMatchesWholePart) {
  // The halo-first data plane fills one part tensor band by band through
  // volume_forward_rows_into; any band partition, in any order, must
  // reproduce the whole-part call byte for byte — for both engines, with
  // and without row-band threading. The model is sized so each band of the
  // 3-band partition still fans its first layer out across the pool.
  ThreadPool pool(3);
  Rng rng(21);
  const auto m = ModelBuilder("mini", 40, 40, 16)
                     .conv_same(16, 3)
                     .conv_same(16, 5)
                     .maxpool(2, 2)
                     .conv_same(24, 3)
                     .build();
  std::vector<ConvWeights> weights;
  for (const auto& l : m.layers()) {
    weights.push_back(l.kind == LayerKind::kConv ? ConvWeights::random(l, rng)
                                                 : ConvWeights{});
  }
  const auto in = random_tensor(m.input_h(), m.input_w(), m.input_c(), rng);
  const std::span<const LayerConfig> layers(m.layers());
  const std::span<const ConvWeights> wts(weights);

  const int height = layers.back().out_h();
  const RowInterval part{2, height - 1};  // off-origin on purpose
  const auto need = required_input_rows(layers, part);
  Tensor crop(need.size(), in.w, in.c);
  for (int y = need.begin; y < need.end; ++y)
    for (int x = 0; x < in.w; ++x)
      for (int ch = 0; ch < in.c; ++ch)
        crop.at(y - need.begin, x, ch) = in.at(y, x, ch);

  for (const auto& ctx :
       {ExecContext::reference(), ExecContext::fast(),
        ExecContext::fast(&pool)}) {
    const auto whole =
        volume_forward_rows(layers, crop, need.begin, part, wts, ctx);
    for (int n_bands : {1, 3, part.size()}) {
      Tensor dst(part.size(), whole.w, whole.c);
      // Boundary-first order: last band, first band, then the middle ones.
      std::vector<RowInterval> bands;
      for (int b = 0; b < n_bands; ++b) {
        bands.push_back(RowInterval{part.begin + part.size() * b / n_bands,
                                    part.begin + part.size() * (b + 1) / n_bands});
      }
      std::rotate(bands.begin(), bands.end() - 1, bands.end());
      for (const auto& band : bands) {
        if (band.empty()) continue;
        if (ctx.pool != nullptr && n_bands == 3) {
          const RowInterval first = per_layer_output_rows(layers, band)[0];
          ASSERT_GT(work_threads(layers[0].ops_for_rows(first.size()), pool), 1)
              << "band [" << band.begin << "," << band.end << ")";
        }
        volume_forward_rows_into(layers, crop, need.begin, band, wts, ctx,
                                 dst, part.begin);
      }
      expect_bitexact(dst, whole,
                      std::string(to_string(ctx.engine)) + " bands=" +
                          std::to_string(n_bands));
    }
  }
}

// The halo-first provider computes a part as one walk of its bands: each
// step's rows are computed once, by the first band whose field holds them,
// and later bands copy them in from the seam store. In any band order the
// part must equal one whole-part call bit for bit — both engines, fused or
// not, serial or tiled — and unfused, the bands execute exactly the part's
// planned work. The 3x3 s2 pool makes the fused conv rows at band seams
// the one recompute left (runtime_executed_work_test bounds it).
TEST(ExecEngineWalk, BandsComputeEachRowOnce) {
  ThreadPool pool(3);
  Rng rng(77);
  const auto m = ModelBuilder("mini", 40, 40, 16)
                     .conv_same(16, 3)
                     .conv_same(16, 5)
                     .maxpool(3, 2)
                     .conv_same(24, 3)
                     .conv(24, 3, 2, 1)
                     .build();
  std::vector<ConvWeights> weights;
  for (const auto& l : m.layers()) {
    weights.push_back(l.kind == LayerKind::kConv ? ConvWeights::random(l, rng)
                                                 : ConvWeights{});
  }
  const std::span<const LayerConfig> layers(m.layers());
  const std::span<const ConvWeights> wts(weights);
  const RowInterval part{1, layers.back().out_h() - 1};
  const auto need = required_input_rows(layers, part);
  const auto crop = random_tensor(need.size(), m.input_w(), m.input_c(), rng);

  for (ExecContext ctx : {ExecContext::reference(), ExecContext::fast(),
                          ExecContext::fast(&pool)}) {
    for (const bool fuse : {true, false}) {
      ctx.fuse_conv_pool = fuse;
      const auto whole =
          volume_forward_rows(layers, crop, need.begin, part, wts, ctx);
      for (int n_bands : {2, 3, part.size()}) {
        // Boundary-first order: last band, first band, then the middle.
        std::vector<RowInterval> bands;
        for (int b = 0; b < n_bands; ++b) {
          bands.push_back(
              RowInterval{part.begin + part.size() * b / n_bands,
                          part.begin + part.size() * (b + 1) / n_bands});
        }
        std::rotate(bands.begin(), bands.end() - 1, bands.end());
        PartWalk walk;
        plan_part_walk(layers, bands, ctx, walk);
        const std::string what = std::string(to_string(ctx.engine)) +
                                 " fuse=" + std::to_string(walk.fused) +
                                 " pool=" + std::to_string(ctx.pool != nullptr) +
                                 " bands=" + std::to_string(n_bands);
        EXPECT_GT(walk.seam_floats, 0u) << what;
        Tensor dst(part.size(), whole.w, whole.c);
        const std::uint64_t before = exec_flops();
        for (int b = 0; b < walk.n_bands(); ++b) {
          part_walk_band_into(walk, b, layers, crop, need.begin, wts, ctx, dst,
                              part.begin);
        }
        const auto executed = static_cast<Ops>(exec_flops() - before);
        expect_bitexact(dst, whole, what);
        if (walk.fused) {
          EXPECT_GE(executed, split_part_ops(layers, part)) << what;
        } else {
          EXPECT_EQ(executed, split_part_ops(layers, part)) << what;
        }
      }
    }
  }
}

TEST(ExecEngineProperty, PaddingWiderThanKernelBitExact) {
  // padding >= kernel is legal (validate only requires the kernel to fit the
  // padded input) and makes the outermost output columns consist of zero
  // taps only — the fast gather must skip them without ever forming an input
  // address. Rows 0 and out_h-1 are all-padding too and rejected by
  // input_rows_for itself, so the sweep covers the interior rows. These
  // 1-row calls are far too small to fan out, so they run serially.
  Rng rng(88);
  for (const auto& l :
       {LayerConfig::conv(4, 4, 2, 3, /*kernel=*/1, 1, /*padding=*/1),
        LayerConfig::conv(6, 5, 3, 9, /*kernel=*/2, 1, /*padding=*/2),
        LayerConfig::conv(7, 7, 1, 8, /*kernel=*/3, 2, /*padding=*/3)}) {
    const int out_h = l.out_h();
    for (int oy = 0; oy < out_h; ++oy) {
      const RowInterval band{oy, oy + 1};
      bool legal_band = true;
      try {
        input_rows_for(l, band);
      } catch (const Error&) {
        legal_band = false;  // band entirely inside the padding
      }
      if (!legal_band) continue;
      check_conv_rows(l, band, rng, nullptr,
                      "wide-pad k" + std::to_string(l.kernel) + " row " +
                          std::to_string(oy));
    }
  }
  // The same zero-tap columns, tiled: wider inputs with input channels drawn
  // by fanout_in_c, so an 8-row band beside each all-padding edge row fans
  // out across the pool. 8 rows feed fewer than 4 tiles per thread, so the
  // plan adds oc-block tiles too.
  ThreadPool pool(3);
  for (const auto& probe :
       {LayerConfig::conv(64, 12, 1, 24, /*kernel=*/2, 1, /*padding=*/2),
        LayerConfig::conv(63, 17, 1, 20, /*kernel=*/3, 2, /*padding=*/3)}) {
    const int out_h = probe.out_h();
    for (const RowInterval band :
         {RowInterval{1, 9}, RowInterval{out_h - 9, out_h - 1}}) {
      const auto l = LayerConfig::conv(
          probe.in_w, probe.in_h, fanout_in_c(probe, band.size()),
          probe.out_c, probe.kernel, probe.stride, probe.padding);
      const std::string what = "wide-pad k" + std::to_string(l.kernel) +
                               " rows [" + std::to_string(band.begin) + "," +
                               std::to_string(band.end) + ")";
      const int threads = work_threads(l.ops_for_rows(band.size()), pool);
      for (const KernelIsa isa : supported_kernel_isas()) {
        const int lanes = detail::kernel_isa_lanes(isa);
        const int blocks = (l.out_c + lanes - 1) / lanes;
        EXPECT_GT(detail::plan_conv_tiles(band, blocks, threads).oc_tiles, 1)
            << what << " [" << to_string(isa) << "]";
      }
      check_conv_rows(l, band, rng, &pool, what);
    }
  }
}

TEST(ExecEngine, PackedWeightsServeEveryCallAndCopiesRepack) {
  // The weights pack on their first fast call and every later call reuses
  // that pack, whatever its row interval. A copy starts unpacked: changing
  // the copy's weights must change its results, and leave the original's.
  Rng rng(12);
  const auto l = LayerConfig::conv(17, 17, 5, 11, 3, 1, 1);
  const auto in = random_tensor(17, 17, 5, rng);
  const auto w = ConvWeights::random(l, rng);
  const ExecContext ctx = ExecContext::fast();
  for (const RowInterval rows :
       {RowInterval{0, l.out_h()}, RowInterval{0, 1}, RowInterval{5, 9},
        RowInterval{l.out_h() - 1, l.out_h()}}) {
    const auto ref = conv_forward_rows(l, in, 0, rows, w);
    expect_bitexact(conv_forward_rows(l, in, 0, rows, w, ctx), ref,
                    "packed rows [" + std::to_string(rows.begin) + "," +
                        std::to_string(rows.end) + ")");
  }
  ConvWeights changed = w;
  for (auto& v : changed.weights) v = -v;
  const RowInterval all{0, l.out_h()};
  expect_bitexact(conv_forward_rows(l, in, 0, all, changed, ctx),
                  conv_forward_rows(l, in, 0, all, changed), "changed copy");
  expect_bitexact(conv_forward_rows(l, in, 0, all, w, ctx),
                  conv_forward_rows(l, in, 0, all, w), "original after copy");
}

// Every adjacent conv→pool pair in the zoo fuses (the models interleave
// conv blocks with 2x2 pools); each pair must produce bit-identical pool
// rows through the fused epilogue on first / mid / last bands.
TEST(ExecEngineFused, EveryZooConvPoolPairBitExact) {
  ThreadPool pool(3);
  Rng rng(31337);
  std::map<std::string, std::pair<LayerConfig, LayerConfig>> pairs;
  for (const auto& name : zoo_names()) {
    const auto m = model_by_name(name);
    const auto& layers = m.layers();
    for (std::size_t i = 0; i + 1 < layers.size(); ++i) {
      if (can_fuse_conv_pool(layers[i], layers[i + 1])) {
        pairs.emplace(device::layer_signature(layers[i]) + "+" +
                          device::layer_signature(layers[i + 1]),
                      std::make_pair(layers[i], layers[i + 1]));
      }
    }
  }
  ASSERT_GT(pairs.size(), 5u);  // fusion opportunities genuinely exist
  std::size_t tiled = 0;
  for (const auto& [sig, pair] : pairs) {
    const LayerConfig& conv = pair.first;
    const LayerConfig& pl = pair.second;
    const int out_h = pl.out_h();
    check_conv_pool_rows(conv, pl, RowInterval{0, 1}, rng, nullptr,
                         sig + " first-row");
    // As in EveryConvConfigBitExact: at least 2 rows, grown until the band
    // fans out as far as the pair can.
    const auto mid_band = [&](int rows) {
      const int mid = std::min(out_h / 2, out_h - rows);
      return RowInterval{mid, mid + rows};
    };
    const RowInterval band = mid_band(fanout_rows(
        out_h, 2, pool,
        [&](int rows) { return fused_ops(conv, pl, mid_band(rows)); }));
    const bool fans_out = work_threads(fused_ops(conv, pl, band), pool) > 1;
    tiled += fans_out ? 1 : 0;
    check_conv_pool_rows(conv, pl, band, rng, fans_out ? &pool : nullptr,
                         sig + " mid-band");
    check_conv_pool_rows(conv, pl, RowInterval{out_h - 1, out_h}, rng,
                         nullptr, sig + " last-row");
  }
  EXPECT_GT(tiled * 10, pairs.size() * 9);  // nearly every pair tiles fused
}

// Randomized fused geometries the zoo never hits: pool kernels 2 and 3,
// strides 2 and 3 including the overlapping k=3/s=2 window, odd conv output
// extents (bottom/right pool windows clamp), relu on and off, channel
// counts off the lane width. As in RandomizedConfigsBitExact, the conv's
// input channels are drawn last, sized so the random band fans out.
TEST(ExecEngineFused, RandomizedConvPoolBitExact) {
  ThreadPool pool(3);
  Rng rng(0xBEEF);
  int ran = 0;
  int tiled = 0;
  for (int iter = 0; iter < 40; ++iter) {
    const int kernel = rng.uniform_int(1, 4);
    const int padding = rng.uniform_int(0, kernel - 1);
    const int out_c = rng.uniform_int(1, 40);
    const int in_h = rng.uniform_int(kernel + 4, 32);
    const int in_w = rng.uniform_int(kernel + 4, 48);
    const int pk = rng.uniform_int(2, 3);
    const int ps = rng.uniform_int(2, 3);
    const bool relu = iter % 2 == 0;
    LayerConfig conv, pl;
    try {
      conv = LayerConfig::conv(in_w, in_h, 1, out_c, kernel, /*stride=*/1,
                               padding, relu);
      conv.validate();
      pl = LayerConfig::maxpool(conv.out_w(), conv.out_h(), conv.out_c, pk, ps);
      pl.validate();
    } catch (const Error&) {
      continue;
    }
    if (!can_fuse_conv_pool(conv, pl)) continue;
    ++ran;
    const int out_h = pl.out_h();
    const int a = rng.uniform_int(0, out_h - 1);
    const int b = rng.uniform_int(a + 1, out_h);
    const RowInterval band{a, b};
    conv = LayerConfig::conv(
        in_w, in_h, fanout_in_c(conv, input_rows_for(pl, band).size()), out_c,
        kernel, /*stride=*/1, padding, relu);
    const std::string what = "iter " + std::to_string(iter) + " pk" +
                             std::to_string(pk) + " ps" + std::to_string(ps) +
                             " in_c" + std::to_string(conv.in_c);
    const bool fans_out = work_threads(fused_ops(conv, pl, band), pool) > 1;
    tiled += fans_out ? 1 : 0;
    check_conv_pool_rows(conv, pl, band, rng, fans_out ? &pool : nullptr,
                         what + " rand-band");
    check_conv_pool_rows(conv, pl, RowInterval{out_h - 1, out_h}, rng, nullptr,
                         what + " last-row");
  }
  ASSERT_GT(ran, 15);  // the sweep exercised real geometries
  // and fanned most of them out (1x1 convs with few output channels and
  // columns cannot reach the work of two threads within 256 channels).
  EXPECT_GE(tiled, ran * 2 / 3);
}

// Overlapping pool windows (k=3, s=2): adjacent fused bands recompute the
// shared conv rows independently; a band partition of the _into destination
// must still be byte-identical to one whole call. Sized so the whole call
// and every band of the 2- and 3-band partitions fan out across the pool;
// the 1-row bands run inline.
TEST(ExecEngineFused, BandedIntoMatchesWholeCall) {
  ThreadPool pool(3);
  Rng rng(55);
  const auto conv = LayerConfig::conv(49, 49, 8, 24, 3, 1, 1);
  const auto pl =
      LayerConfig::maxpool(conv.out_w(), conv.out_h(), conv.out_c, 3, 2);
  ASSERT_TRUE(can_fuse_conv_pool(conv, pl));
  const auto crop = random_tensor(conv.in_h, conv.in_w, conv.in_c, rng);
  const auto w = ConvWeights::random(conv, rng);
  const int out_h = pl.out_h();
  const RowInterval part{0, out_h};

  for (const KernelIsa isa : supported_kernel_isas()) {
    ExecContext ctx = ExecContext::fast(&pool);
    ctx.isa = isa;
    const auto whole =
        conv_pool_forward_rows(conv, pl, crop, 0, part, w, ctx);
    for (int n_bands : {2, 3, out_h}) {
      Tensor dst(out_h, pl.out_w(), pl.out_c);
      for (int b = 0; b < n_bands; ++b) {
        const RowInterval band{out_h * b / n_bands,
                               out_h * (b + 1) / n_bands};
        if (band.empty()) continue;
        if (n_bands <= 3) {
          ASSERT_GT(work_threads(fused_ops(conv, pl, band), pool), 1)
              << "bands=" << n_bands << " band " << b;
        }
        conv_pool_forward_rows_into(conv, pl, crop, 0, band, w, ctx, dst, 0);
      }
      expect_bitexact(dst, whole,
                      std::string("fused bands=") + std::to_string(n_bands) +
                          " [" + to_string(isa) + "]");
    }
  }
}

// The 2-D tile plan must partition rows × blocks exactly: every (row, block)
// cell covered once, no overlaps, no gaps — for awkward row/block/thread
// combinations.
TEST(ExecEngineTiles, PlanPartitionsExactly) {
  for (const int rows : {1, 2, 3, 7, 16, 61}) {
    for (const int blocks : {1, 2, 5, 13}) {
      for (const int threads : {1, 2, 3, 4, 8, 40}) {
        const RowInterval out_rows{3, 3 + rows};
        const auto plan = detail::plan_conv_tiles(out_rows, blocks, threads);
        std::vector<int> hits(static_cast<std::size_t>(rows) * blocks, 0);
        for (int i = 0; i < plan.count(); ++i) {
          const auto t = plan.tile(i);
          ASSERT_LE(out_rows.begin, t.rows.begin);
          ASSERT_LE(t.rows.end, out_rows.end);
          ASSERT_LE(0, t.blk_lo);
          ASSERT_LE(t.blk_hi, blocks);
          for (int r = t.rows.begin; r < t.rows.end; ++r) {
            for (int b = t.blk_lo; b < t.blk_hi; ++b) {
              ++hits[static_cast<std::size_t>(r - out_rows.begin) * blocks + b];
            }
          }
        }
        for (std::size_t i = 0; i < hits.size(); ++i) {
          ASSERT_EQ(hits[i], 1)
              << "rows=" << rows << " blocks=" << blocks
              << " threads=" << threads << " cell " << i;
        }
      }
    }
  }
}

// The fan-out rule: one thread below two threads' worth of work, never more
// than the pool, never fewer as work grows — and large calls keep exactly
// the plan they had before the rule existed: every resnet50 conv layer split
// in half by rows (conv_heavy's 2 providers) still plans the full-pool
// decomposition of pool_size * 4 or more tiles.
TEST(ExecEngineTiles, ThreadsForWorkIsSizedToTheCall) {
  using detail::kMinOpsPerThread;
  using detail::threads_for_work;
  for (const int pool_size : {0, 1, 2, 3, 4, 8, 64}) {
    const int cap = std::max(pool_size, 1);
    EXPECT_EQ(threads_for_work(0, pool_size), 1);
    EXPECT_EQ(threads_for_work(kMinOpsPerThread, pool_size), 1);
    EXPECT_EQ(threads_for_work(2 * kMinOpsPerThread - 1, pool_size), 1);
    EXPECT_EQ(threads_for_work(2 * kMinOpsPerThread, pool_size),
              std::min(2, cap));
    EXPECT_EQ(threads_for_work(std::numeric_limits<Ops>::max(), pool_size),
              cap);
    int prev = 1;
    for (Ops ops = 0; ops <= 80 * kMinOpsPerThread;
         ops += kMinOpsPerThread / 7) {
      const int t = threads_for_work(ops, pool_size);
      ASSERT_GE(t, prev) << "ops " << ops << " pool " << pool_size;
      ASSERT_LE(t, cap) << "ops " << ops << " pool " << pool_size;
      prev = t;
    }
  }

  const auto resnet = model_by_name("resnet50");
  const int lanes = detail::kernel_isa_lanes(default_kernel_isa());
  int convs = 0;
  int halves = 0;
  for (const auto& l : resnet.layers()) {
    if (l.kind != LayerKind::kConv) continue;
    ++convs;
    const int h = l.out_h();
    const int blocks = (l.out_c + lanes - 1) / lanes;
    for (const RowInterval half : {RowInterval{0, h / 2}, RowInterval{h / 2, h}}) {
      if (half.empty()) continue;
      ++halves;
      for (const int pool_size : {2, 3, 4, 8}) {
        const int t = threads_for_work(l.ops_for_rows(half.size()), pool_size);
        ASSERT_EQ(t, pool_size) << device::layer_signature(l);
        const auto plan = detail::plan_conv_tiles(half, blocks, t);
        const auto full = detail::plan_conv_tiles(half, blocks, pool_size);
        EXPECT_EQ(plan.n_bands, full.n_bands);
        EXPECT_EQ(plan.oc_tiles, full.oc_tiles);
        EXPECT_GE(plan.count(), pool_size * 4) << device::layer_signature(l);
      }
    }
  }
  EXPECT_EQ(halves, 2 * convs);  // every layer has at least 2 rows
}

// The engine runs the rule. A fresh pool's workers have never executed a
// tile, so the first tile one of them runs grows its thread-local scratch.
// Calls below two threads' worth of work must leave every worker cold —
// they ran inline on the (warm) calling thread — while a large call must
// warm at least one worker.
TEST(ExecEngineTiles, SmallCallsRunInlineLargeCallsFanOut) {
  Rng rng(7);
  const auto small = LayerConfig::conv(24, 24, 3, 12, 3, 1, 1);
  const auto small_pl =
      LayerConfig::maxpool(small.out_w(), small.out_h(), small.out_c, 2, 2);
  const auto large = LayerConfig::conv(48, 48, 8, 24, 3, 1, 1);
  const RowInterval small_rows{0, small.out_h()};
  const RowInterval pooled_rows{0, small_pl.out_h()};
  ASSERT_EQ(detail::threads_for_work(small.ops(), 3), 1);
  ASSERT_EQ(detail::threads_for_work(fused_ops(small, small_pl, pooled_rows), 3),
            1);
  ASSERT_EQ(detail::threads_for_work(large.ops(), 3), 3);
  const auto in_small = random_tensor(small.in_h, small.in_w, small.in_c, rng);
  const auto in_large = random_tensor(large.in_h, large.in_w, large.in_c, rng);
  const auto w_small = ConvWeights::random(small, rng);
  const auto w_large = ConvWeights::random(large, rng);
  const auto run_small = [&](ThreadPool* pool) {
    const ExecContext ctx = ExecContext::fast(pool);
    (void)conv_forward_rows(small, in_small, 0, small_rows, w_small, ctx);
    (void)conv_pool_forward_rows(small, small_pl, in_small, 0, pooled_rows,
                                 w_small, ctx);
  };
  const auto run_large = [&](ThreadPool* pool) {
    (void)conv_forward_rows(large, in_large, 0, RowInterval{0, large.out_h()},
                            w_large, ExecContext::fast(pool));
  };
  run_small(nullptr);  // warm this thread for both geometries
  run_large(nullptr);

  ThreadPool pool(3);
  const std::uint64_t before = exec_scratch_allocs();
  for (int rep = 0; rep < 5; ++rep) run_small(&pool);
  EXPECT_EQ(exec_scratch_allocs(), before) << "a small call left the caller";
  // The caller claims tiles too, so one call could in principle finish
  // before any worker wakes; a few tries make that vanishingly unlikely.
  bool fanned_out = false;
  for (int rep = 0; rep < 50 && !fanned_out; ++rep) {
    run_large(&pool);
    fanned_out = exec_scratch_allocs() != before;
  }
  EXPECT_TRUE(fanned_out) << "a large call never reached a pool worker";
}

// Standalone pool calls follow the same rule, on comparisons: edgenet's
// first pool (80x80x48 k2 s2, 307K comparisons whole) runs inline, while a
// 224x224x64 k2 s2 pool (3.2M) fans out into its row-band plan. Observed
// through the flight recorder: parallel_for records one kPoolTask span per
// claimed tile, and an inline call records none.
TEST(ExecEngineTiles, PoolCallsFollowTheRule) {
  ThreadPool pool(3);
  Rng rng(8);
  const auto pool_tasks = [&](const LayerConfig& l) {
    const auto in = random_tensor(l.in_h, l.in_w, l.in_c, rng);
    auto& recorder = obs::TraceRecorder::instance();
    recorder.enable();
    (void)maxpool_forward_rows(l, in, 0, RowInterval{0, l.out_h()},
                               ExecContext::fast(&pool));
    const auto dump = recorder.snapshot();
    recorder.disable();
    int tasks = 0;
    for (const auto& thread : dump.threads) {
      for (const auto& ev : thread.events) {
        tasks += ev.cat == static_cast<std::uint16_t>(obs::Cat::kPoolTask);
      }
    }
    return tasks;
  };
  const auto small = LayerConfig::maxpool(80, 80, 48, 2, 2);
  const auto large = LayerConfig::maxpool(224, 224, 64, 2, 2);
  ASSERT_EQ(work_threads(small.ops(), pool), 1);
  ASSERT_EQ(work_threads(large.ops(), pool), 3);
  EXPECT_EQ(pool_tasks(small), 0) << "a small pool call left the caller";
  EXPECT_EQ(pool_tasks(large),
            detail::plan_conv_tiles(RowInterval{0, large.out_h()}, 1, 3)
                .count());
}

// Steady-state flatness: once every participating thread has executed a
// geometry, repeated banded and fused calls must never touch the allocator
// for scratch (the engine-side analogue of the data plane's frame_allocs
// assertion). Warm-up is made deterministic by running the warm call once
// on each pool worker directly (submit + latch) and once on this thread —
// dynamic tile claiming could otherwise leave a worker cold.
TEST(ExecEngineScratch, SteadyStateAllocFlat) {
  ThreadPool pool(3);
  Rng rng(123);
  const auto conv = LayerConfig::conv(48, 48, 8, 24, 3, 1, 1);
  const auto pl =
      LayerConfig::maxpool(conv.out_w(), conv.out_h(), conv.out_c, 2, 2);
  // Big enough that both calls below tile across every pool thread.
  ASSERT_EQ(work_threads(conv.ops(), pool), 3);
  ASSERT_EQ(work_threads(fused_ops(conv, pl, RowInterval{0, pl.out_h()}), pool), 3);
  const auto crop = random_tensor(conv.in_h, conv.in_w, conv.in_c, rng);
  const auto w = ConvWeights::random(conv, rng);
  const ExecContext ctx = ExecContext::fast(&pool);

  // A conv → pool → conv volume walked band by band into one part tensor,
  // fused (conv+pool into one activation buffer, then conv into the part)
  // and unfused (each layer in turn, through both buffers): each band on
  // its own, and as one part walk of three bands in boundary-first order,
  // whose seam store is not empty. The walk's intermediate layers and its
  // seam store live in the thread's scratch too.
  const auto head = LayerConfig::conv(pl.out_w(), pl.out_h(), pl.out_c, 16, 3,
                                      1, 1);
  const LayerConfig volume[] = {conv, pl, head};
  const ConvWeights volume_w[] = {w, ConvWeights{},
                                  ConvWeights::random(head, rng)};
  const int part_h = head.out_h();
  Tensor part(part_h, head.out_w(), head.out_c);
  const RowInterval bands[] = {RowInterval{2 * part_h / 3, part_h},
                               RowInterval{0, part_h / 3},
                               RowInterval{part_h / 3, 2 * part_h / 3}};
  PartWalk walks[2];
  for (const bool fuse : {true, false}) {
    ExecContext walk_ctx = ctx;
    walk_ctx.fuse_conv_pool = fuse;
    plan_part_walk(volume, bands, walk_ctx, walks[fuse]);
    ASSERT_GT(walks[fuse].seam_floats, 0u) << "fuse " << fuse;
  }
  const auto walk = [&](const ExecContext& base) {
    for (const bool fuse : {true, false}) {
      ExecContext walk_ctx = base;
      walk_ctx.fuse_conv_pool = fuse;
      for (const RowInterval band : {RowInterval{0, part_h / 3},
                                     RowInterval{part_h / 3, part_h}}) {
        volume_forward_rows_into(volume, crop, 0, band, volume_w, walk_ctx,
                                 part, 0);
      }
      for (int b = 0; b < walks[fuse].n_bands(); ++b) {
        part_walk_band_into(walks[fuse], b, volume, crop, 0, volume_w,
                            walk_ctx, part, 0);
      }
    }
  };

  const auto warm_one = [&] {
    ExecContext serial = ctx;
    serial.pool = nullptr;  // inline: warms exactly the calling thread
    (void)conv_forward_rows(conv, crop, 0, RowInterval{0, conv.out_h()}, w,
                            serial);
    (void)conv_pool_forward_rows(conv, pl, crop, 0, RowInterval{0, pl.out_h()},
                                 w, serial);
    walk(serial);
  };
  std::latch ready(static_cast<std::ptrdiff_t>(pool.size()));
  std::latch go(1);
  for (std::size_t t = 0; t < pool.size(); ++t) {
    // Hold every worker until all have a warm task, so one worker cannot
    // drain them all and leave siblings cold.
    (void)pool.submit([&] {
      warm_one();
      ready.count_down();
      go.wait();
    });
  }
  ready.wait();
  go.count_down();
  warm_one();  // parallel_for's caller thread claims tiles too

  const std::uint64_t before = exec_scratch_allocs();
  for (int rep = 0; rep < 5; ++rep) {
    (void)conv_forward_rows(conv, crop, 0, RowInterval{0, conv.out_h()}, w,
                            ctx);
    (void)conv_pool_forward_rows(conv, pl, crop, 0, RowInterval{0, pl.out_h()},
                                 w, ctx);
    walk(ctx);
  }
  EXPECT_EQ(exec_scratch_allocs(), before)
      << "steady-state fast-path calls grew scratch buffers";
}

// One weights object serving two packed lane widths (e.g. AVX2's 8 and
// AVX-512's 16) keeps one slot per width — results stay bit-exact for both.
TEST(ExecEngine, PackKeepsOneSlotPerLaneWidth) {
  const auto isas = supported_kernel_isas();
  Rng rng(64);
  const auto l = LayerConfig::conv(15, 15, 4, 17, 3, 1, 1);
  const auto in = random_tensor(15, 15, 4, rng);
  const auto w = ConvWeights::random(l, rng);
  const auto ref = conv_forward_rows(l, in, 0, RowInterval{0, l.out_h()}, w);
  for (int rep = 0; rep < 2; ++rep) {  // second pass reuses every slot
    for (const KernelIsa isa : isas) {
      ExecContext ctx = ExecContext::fast();
      ctx.isa = isa;
      expect_bitexact(conv_forward_rows(l, in, 0, RowInterval{0, l.out_h()},
                                        w, ctx),
                      ref,
                      std::string("pack rep ") + std::to_string(rep) + " [" +
                          to_string(isa) + "]");
    }
  }
}

TEST(ExecEngine, UnsupportedForcedIsaIsALoudError) {
  // Forcing a target the host/build cannot run must throw, never silently
  // fall back (a conformance run forced to one ISA must not measure another).
  Rng rng(5);
  const auto l = LayerConfig::conv(8, 8, 2, 3, 3, 1, 1);
  const auto in = random_tensor(8, 8, 2, rng);
  const auto w = ConvWeights::random(l, rng);
  for (const KernelIsa isa :
       {KernelIsa::kSse2, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (kernel_isa_supported(isa)) continue;
    ExecContext ctx = ExecContext::fast();
    ctx.isa = isa;
    EXPECT_THROW(
        conv_forward_rows(l, in, 0, RowInterval{0, l.out_h()}, w, ctx), Error);
  }
  // And the supported list always has the generic target, first.
  const auto isas = supported_kernel_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), KernelIsa::kGeneric);
}

TEST(ExecEngine, ReferenceContextIsTheReferencePath) {
  Rng rng(4);
  const auto l = LayerConfig::conv(9, 9, 2, 3, 3, 1, 1);
  const auto in = random_tensor(9, 9, 2, rng);
  const auto w = ConvWeights::random(l, rng);
  expect_bitexact(conv_forward_rows(l, in, 0, RowInterval{0, l.out_h()}, w,
                                    ExecContext::reference()),
                  conv_forward(l, in, w), "reference dispatch");
}

TEST(ExecEngine, NamesRoundTrip) {
  EXPECT_STREQ(to_string(ExecEngine::kReference), "reference");
  EXPECT_STREQ(to_string(ExecEngine::kFast), "fast");
  EXPECT_EQ(exec_engine_from_string("reference"), ExecEngine::kReference);
  EXPECT_EQ(exec_engine_from_string("fast"), ExecEngine::kFast);
  EXPECT_THROW(exec_engine_from_string("warp"), Error);
}

TEST(ExecEngine, FastPathValidatesLikeReference) {
  Rng rng(3);
  const auto l = LayerConfig::conv(8, 8, 2, 2, 3, 1, 1);
  const auto w = ConvWeights::random(l, rng);
  Tensor crop(2, 8, 2);  // needs 4 rows for out rows {2,5}
  EXPECT_THROW(
      conv_forward_rows(l, crop, 1, RowInterval{2, 5}, w, ExecContext::fast()),
      Error);
  EXPECT_THROW(conv_forward_rows(l, crop, 1, RowInterval{2, 2}, w,
                                 ExecContext::fast()),
               Error);
}

}  // namespace
}  // namespace de::cnn
