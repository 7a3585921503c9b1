// Per-image critical-path attribution (DESIGN.md §observability, "Ops
// plane"): walks a merged trace's (image, volume, epoch) span chain and
// decomposes each delivered image's end-to-end latency into
// scatter / compute / halo_wait / gather_wait, plus a per-device straggler
// score — the fraction of images whose critical path was closed by that
// device's band.
//
// Model: for one image, the requester's kScatter span opens the window and
// its kGather span closes it. Among the provider devices that touched the
// image, the *critical device* is the one whose work chain (kAssemble
// input wait+blit, kCompute / kComputeBand) ends last — every other
// device's result was already waiting, so the gather could not close
// before its rows arrived; the straggler score counts how often each
// device closed a critical path. The window [scatter begin, gather end]
// is partitioned by priority on wall-clock time: scatter first, then time
// at least one provider was computing this image (per-node compute spans
// unioned — providers run in parallel, so this decomposes the latency
// window, not total device-time), then assemble (halo/input wait) time
// not hidden by compute, then the tail from the last provider event to
// gather end as gather_wait. What no span covers is reported as
// `unattributed_us`, never silently folded into a component — at
// in-flight window 1 the residue is small (the acceptance test bounds it
// at 5% of e2e; a provider's wait for an image's dispatch is recorded as
// assemble time); with deep pipelining queuing gaps legitimately dominate
// and the residue says so.
//
// Works on a MergedTrace so cross-node timestamps are already on one
// clock (trace_export.hpp's ClockSyncBook rebase).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/trace_export.hpp"

namespace de::obs {

struct ImageBreakdown {
  int stream = -1;  ///< owning client stream (-1 single-stream runs)
  int seq = -1;     ///< image sequence id
  int critical_node = -1;  ///< device whose chain closed the critical path
  std::int64_t e2e_us = 0;          ///< scatter begin -> gather end
  std::int64_t scatter_us = 0;      ///< requester encode+post
  std::int64_t compute_us = 0;      ///< >=1 provider computing (union)
  std::int64_t halo_wait_us = 0;    ///< input waits not hidden by compute
  std::int64_t gather_wait_us = 0;  ///< last provider event -> gather end
  std::int64_t unattributed_us = 0; ///< e2e minus the four components
};

struct DeviceStraggler {
  int node = -1;
  std::int64_t images_critical = 0;  ///< images whose path this node closed
  double score = 0;  ///< images_critical / images attributed
};

struct AttributionReport {
  std::vector<ImageBreakdown> images;     ///< ordered by (stream, seq)
  std::vector<DeviceStraggler> devices;   ///< ordered by node id
  std::int64_t images_attributed = 0;

  /// The straggler entry for `node`, or nullptr.
  const DeviceStraggler* device(int node) const;
};

/// Attributes every image in `merged` that has both a requester scatter
/// and gather span. Images still in flight (no gather) are skipped.
AttributionReport attribute_critical_paths(const MergedTrace& merged);

}  // namespace de::obs
