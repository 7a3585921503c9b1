// Vertical-Splitting Law (paper §III-B, Eq. 1-2) plus the exact
// interval/halo form used by the simulator and cost model.
//
// A split-part of a layer-volume is identified by the interval of *output
// rows of the volume's last layer* it produces. Input requirements propagate
// backwards one layer at a time:
//
//   out rows [a, b)  of a layer  need  input rows [a*S - P, (b-1)*S + F - P)
//
// clipped to the layer's real input extent [0, in_h) (padding supplies the
// missing border rows). The paper's Eq. 1-2 is the unclipped height-only
// special case; both are provided and tested against each other.
#pragma once

#include <span>
#include <vector>

#include "cnn/layer.hpp"

namespace de::cnn {

/// Half-open row interval [begin, end). Empty iff begin >= end.
struct RowInterval {
  int begin = 0;
  int end = 0;

  int size() const { return end > begin ? end - begin : 0; }
  bool empty() const { return size() == 0; }

  bool operator==(const RowInterval&) const = default;

  /// Overlap of two intervals (possibly empty).
  RowInterval intersect(const RowInterval& other) const;
  /// True if `other` is fully contained in *this.
  bool contains(const RowInterval& other) const;
};

/// Input rows of `layer` needed to produce output rows `out` (clipped).
RowInterval input_rows_for(const LayerConfig& layer, RowInterval out);

/// Paper Eq. 1-2: unclipped input height of a volume's first layer given the
/// output height of its last sub-layer. `volume` is front-to-back order.
int vsl_input_height(std::span<const LayerConfig> volume, int out_h_last);

/// Per-layer *output* row intervals of a split-part producing `last_out` on
/// the volume's final layer. result[i] is the output interval of volume[i];
/// result.back() == last_out (clipped to the layer extents).
std::vector<RowInterval> per_layer_output_rows(std::span<const LayerConfig> volume,
                                               RowInterval last_out);

/// Input rows of the volume's *first* layer needed for `last_out`.
RowInterval required_input_rows(std::span<const LayerConfig> volume,
                                RowInterval last_out);

/// Total FLOPs of the split-part (includes halo recompute duplication).
Ops split_part_ops(std::span<const LayerConfig> volume, RowInterval last_out);

/// Per-layer FLOPs of the split-part, same indexing as the volume.
std::vector<Ops> split_part_ops_per_layer(std::span<const LayerConfig> volume,
                                          RowInterval last_out);

}  // namespace de::cnn
