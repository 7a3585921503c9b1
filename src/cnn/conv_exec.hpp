// Reference float execution of conv / maxpool layers, including row-sliced
// execution of split-parts.
//
// This is the numerical ground truth behind the Vertical-Splitting Law: a
// volume executed as stitched split-parts (each given only its required
// input rows) must produce bit-identical output to the unsplit volume. The
// threaded runtime and the property tests both use it.
#pragma once

#include <atomic>
#include <span>
#include <vector>

#include "cnn/layer.hpp"
#include "cnn/vsl.hpp"
#include "common/rng.hpp"

namespace de::cnn {

namespace detail {

/// The fast engine's packed forms of one ConvWeights, one slot per kernel
/// lane width. exec_engine.cpp builds a slot on its first use under that
/// slot's once-guard; it is read-only after, so every thread, provider and
/// fleet of the process shares one copy while the weights live. A copy, a
/// move or an assignment starts unpacked.
class PackedWeights {
 public:
  struct Slots;  ///< defined in exec_kernel.hpp

  PackedWeights() noexcept = default;
  PackedWeights(const PackedWeights&) noexcept {}
  PackedWeights& operator=(const PackedWeights&) noexcept {
    reset();
    return *this;
  }
  ~PackedWeights() { reset(); }

  /// The slots, created on first use (concurrent first uses agree).
  Slots& slots() const;

 private:
  void reset() noexcept;

  mutable std::atomic<Slots*> slots_{nullptr};
};

}  // namespace detail

/// Dense HWC tensor (row-major: index = (y * w + x) * c + ch).
struct Tensor {
  int h = 0;
  int w = 0;
  int c = 0;
  std::vector<float> data;

  Tensor() = default;
  Tensor(int h_, int w_, int c_);

  float& at(int y, int x, int ch);
  float at(int y, int x, int ch) const;
  std::size_t size() const { return data.size(); }
};

/// Conv parameters: weights layout [out_c][ky][kx][in_c], bias [out_c].
/// The fast engine packs them on first use, so they must not change after.
struct ConvWeights {
  std::vector<float> weights;
  std::vector<float> bias;
  detail::PackedWeights packed;

  static ConvWeights random(const LayerConfig& layer, Rng& rng);
};

/// Full-layer forward. `in` must match the layer's input extents.
Tensor conv_forward(const LayerConfig& layer, const Tensor& in, const ConvWeights& w);
Tensor maxpool_forward(const LayerConfig& layer, const Tensor& in);

/// Row-sliced forward: produce output rows `out_rows` of `layer` given a
/// cropped input that starts at absolute input row `in_row_offset`. The
/// crop must cover input_rows_for(layer, out_rows); padding rows outside the
/// real input are zeros (conv) / ignored (pool).
Tensor conv_forward_rows(const LayerConfig& layer, const Tensor& in_crop,
                         int in_row_offset, RowInterval out_rows,
                         const ConvWeights& w);
Tensor maxpool_forward_rows(const LayerConfig& layer, const Tensor& in_crop,
                            int in_row_offset, RowInterval out_rows);

/// Executes a whole volume (sequence of layers) on a full input tensor.
/// `weights[i]` must be present for conv layers (ignored for pools).
Tensor volume_forward(std::span<const LayerConfig> volume, const Tensor& in,
                      std::span<const ConvWeights> weights);

/// Executes the split-part of `volume` producing `last_out`, given the
/// cropped volume input (starting at absolute row `in_row_offset`, which
/// must equal required_input_rows(volume, last_out).begin).
Tensor volume_forward_rows(std::span<const LayerConfig> volume, const Tensor& in_crop,
                           int in_row_offset, RowInterval last_out,
                           std::span<const ConvWeights> weights);

}  // namespace de::cnn
