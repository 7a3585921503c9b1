#include "cnn/vsl.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace de::cnn {

RowInterval RowInterval::intersect(const RowInterval& other) const {
  RowInterval r{std::max(begin, other.begin), std::min(end, other.end)};
  if (r.begin >= r.end) return RowInterval{0, 0};
  return r;
}

bool RowInterval::contains(const RowInterval& other) const {
  if (other.empty()) return true;
  return begin <= other.begin && other.end <= end;
}

RowInterval input_rows_for(const LayerConfig& layer, RowInterval out) {
  if (out.empty()) return RowInterval{0, 0};
  DE_REQUIRE(out.begin >= 0 && out.end <= layer.out_h(),
             "output interval exceeds layer extent");
  int lo = out.begin * layer.stride - layer.padding;
  int hi = (out.end - 1) * layer.stride + layer.kernel - layer.padding;
  lo = std::max(lo, 0);
  hi = std::min(hi, layer.in_h);
  DE_ASSERT(lo < hi, "clipped input interval became empty");
  return RowInterval{lo, hi};
}

int vsl_input_height(std::span<const LayerConfig> volume, int out_h_last) {
  DE_REQUIRE(!volume.empty(), "empty volume");
  DE_REQUIRE(out_h_last >= 1, "vsl needs at least one output row");
  // Eq. 1 applied back-to-front, then Eq. 2 for the first layer; both share
  // the same recurrence h_in = (h_out - 1) * S + F.
  int h = out_h_last;
  for (std::size_t i = volume.size(); i-- > 0;) {
    const auto& l = volume[i];
    h = (h - 1) * l.stride + l.kernel;
  }
  return h;
}

std::vector<RowInterval> per_layer_output_rows(std::span<const LayerConfig> volume,
                                               RowInterval last_out) {
  DE_REQUIRE(!volume.empty(), "empty volume");
  std::vector<RowInterval> out(volume.size());
  RowInterval cur = last_out;
  for (std::size_t i = volume.size(); i-- > 0;) {
    out[i] = cur;
    if (i > 0) {
      // Output rows of layer i-1 are the input rows layer i needs.
      cur = cur.empty() ? RowInterval{0, 0} : input_rows_for(volume[i], cur);
      DE_ASSERT(cur.end <= volume[i - 1].out_h(),
                "propagated interval exceeds producer extent");
    }
  }
  return out;
}

RowInterval required_input_rows(std::span<const LayerConfig> volume,
                                RowInterval last_out) {
  auto per_layer = per_layer_output_rows(volume, last_out);
  if (per_layer.front().empty()) return RowInterval{0, 0};
  return input_rows_for(volume.front(), per_layer.front());
}

std::vector<Ops> split_part_ops_per_layer(std::span<const LayerConfig> volume,
                                          RowInterval last_out) {
  auto per_layer = per_layer_output_rows(volume, last_out);
  std::vector<Ops> ops(volume.size());
  for (std::size_t i = 0; i < volume.size(); ++i) {
    ops[i] = volume[i].ops_for_rows(per_layer[i].size());
  }
  return ops;
}

Ops split_part_ops(std::span<const LayerConfig> volume, RowInterval last_out) {
  Ops total = 0;
  for (Ops o : split_part_ops_per_layer(volume, last_out)) total += o;
  return total;
}

}  // namespace de::cnn
