// Strategy epochs of the live-reconfigurable data plane (DESIGN.md
// §control-plane): an epoch is a (strategy, transfer plan) pair that serves
// every image with seq >= from_seq until a later epoch takes over. The
// requester appends an epoch with a kReconfigure frame *before* scattering
// the first image of the new regime; providers append on receipt. All chunk
// traffic is tagged with its image's epoch, so a node that has not yet seen
// the reconfigure can recognise new-regime chunks, park them, and wait for
// the plan instead of misreading them against the old one — the invariant
// that makes the cutover drain-free and bit-exact.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "rpc/wire.hpp"
#include "runtime/transfer_plan.hpp"

namespace de::runtime {

/// One serving regime: every image with `from_seq <= seq < next.from_seq`
/// executes `strategy` under `plan`.
struct EpochPlan {
  int epoch = 0;     ///< monotonic id (>= 1 once announced on the wire)
  int from_seq = 0;  ///< first image this epoch serves
  sim::RawStrategy strategy;
  TransferPlan plan;
};

/// Epoch history of one node, kept sorted by epoch id (announcements may
/// arrive out of order under faults — a dropped kReconfigure can be
/// retransmitted after its successor already landed). from_seq is
/// non-decreasing in id order; lookups are by image seq (which epoch
/// serves it) or by id (validating a chunk's tag). Entries are heap-owned,
/// so references returned by at() stay valid across add() — the worker
/// loops hold them across receives that may register new epochs. retire()
/// prunes fully superseded history so unbounded streams do not accrete
/// plans (references to retired entries die with them; callers prune only
/// at image boundaries where none are held).
class EpochTable {
 public:
  /// Starts with `initial` as the oldest known epoch. A lane opened
  /// mid-stream starts at the global fleet seq its first epoch covers —
  /// at() on anything older throws (no epoch ever served those images
  /// here).
  explicit EpochTable(EpochPlan initial);

  /// The epoch serving image `seq` under the epochs known so far. A later
  /// reconfigure may still re-map a seq nobody dispatched yet; the provider
  /// loop rejects one that re-maps the image it is processing.
  const EpochPlan& at(int seq) const;

  /// Latest registered epoch id.
  int latest() const { return epochs_.back()->epoch; }
  /// Oldest retained epoch id.
  int oldest() const { return epochs_.front()->epoch; }
  /// Retirement horizon: ids below it can serve no image at or above the
  /// highest watermark retire() was given. Until retire() passes the
  /// oldest epoch's from_seq this stays below oldest(), so a table opened
  /// by a later epoch (its first announcement lost, the next one delivered
  /// first) still accepts the earlier one.
  int horizon() const { return horizon_; }

  bool knows(int epoch) const;

  /// Registers an announced epoch at its id-ordered position. Idempotent
  /// for an already-known id and a no-op for ids below horizon() (both are
  /// retransmissions); throws if the announcement conflicts with known
  /// history (same id, different cutover; or a from_seq that breaks
  /// monotonicity).
  void add(EpochPlan next);

  /// Drops epochs that can no longer serve any image >= `watermark` (the
  /// caller's lowest still-relevant seq) and raises horizon() to match. The
  /// epoch serving `watermark` and everything after it are always retained.
  void retire(int watermark);

  int size() const { return static_cast<int>(epochs_.size()); }

 private:
  std::deque<std::unique_ptr<EpochPlan>> epochs_;
  int horizon_ = 0;
};

/// One live reconfiguration of a stream's lane: an epoch pushed after the
/// lane's first (scripted, explicit, controller or membership swaps).
struct ReconfigEvent {
  int epoch = 0;
  int from_image = 0;   ///< global fleet seq the new epoch serves from
  Seconds at_s = 0;     ///< stream time the announcement went out
  Ms predicted_serving_ms = 0;  ///< controller swaps: old strategy, new view
  Ms predicted_next_ms = 0;     ///< controller swaps: new strategy, new view
  int deaths = 0;       ///< devices this swap removed (lease lapsed)
  int joins = 0;        ///< devices this swap adopted (revival/joiner)
  int cancelled = 0;    ///< the stream's in-flight images voided and re-queued
};

/// Lowers a wire reconfigure into the epoch it announces (plan built against
/// `model`; throws de::Error if the strategy does not fit the model — a
/// mismatched or hostile controller, handled like bad chunk geometry).
EpochPlan epoch_from_reconfigure(const rpc::ReconfigureMsg& msg,
                                 const cnn::CnnModel& model);

/// Encodes `next` as a reconfigure frame (reliability handles zeroed; the
/// sender stamps them when tracking).
rpc::ReconfigureMsg reconfigure_from_epoch(const EpochPlan& next);

}  // namespace de::runtime
