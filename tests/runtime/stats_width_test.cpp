// Counter-width regression (the PR-8 satellite fix): long-lived serving
// racks up more than 2^31 data-plane events, so every exchange/retransmit/
// timeout counter must be 64-bit end to end — the hot-path atomics, the
// fold into the metrics registry, and the public result structs.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "obs/metrics.hpp"
#include "runtime/cluster.hpp"
#include "runtime/runtime_metrics.hpp"
#include "runtime/serve.hpp"
#include "runtime/worker.hpp"

namespace de::runtime {
namespace {

// The public result structs expose 64-bit counters.
static_assert(std::is_same_v<decltype(ServeResult::messages_exchanged),
                             std::int64_t>);
static_assert(std::is_same_v<decltype(ServeResult::retransmits), std::int64_t>);
static_assert(std::is_same_v<decltype(ServeResult::duplicates_dropped),
                             std::int64_t>);
static_assert(std::is_same_v<decltype(ServeResult::recv_timeouts),
                             std::int64_t>);
static_assert(std::is_same_v<decltype(ServeResult::nacks), std::int64_t>);
static_assert(std::is_same_v<decltype(ServeResult::chunks_abandoned),
                             std::int64_t>);
static_assert(std::is_same_v<decltype(ClusterResult::messages_exchanged),
                             std::int64_t>);
static_assert(std::is_same_v<decltype(ClusterResult::retransmits),
                             std::int64_t>);
static_assert(std::is_same_v<decltype(ClusterResult::duplicates_dropped),
                             std::int64_t>);
static_assert(std::is_same_v<decltype(ClusterResult::recv_timeouts),
                             std::int64_t>);

// And so do the hot-path atomics they are folded from.
static_assert(std::is_same_v<decltype(DataPlaneStats::messages),
                             std::atomic<std::int64_t>>);
static_assert(std::is_same_v<decltype(DataPlaneStats::retransmits),
                             std::atomic<std::int64_t>>);
static_assert(std::is_same_v<decltype(DataPlaneStats::nacks),
                             std::atomic<std::int64_t>>);
static_assert(std::is_same_v<decltype(DataPlaneStats::recv_timeouts),
                             std::atomic<std::int64_t>>);
static_assert(std::is_same_v<decltype(DataPlaneStats::duplicates_dropped),
                             std::atomic<std::int64_t>>);
static_assert(std::is_same_v<decltype(DataPlaneStats::chunks_abandoned),
                             std::atomic<std::int64_t>>);

TEST(StatsWidth, CountersSurviveBeyondInt32) {
  // 3 billion messages — the value an `int` counter would have wrapped at.
  constexpr std::int64_t kBig = 3'000'000'000LL;
  DataPlaneStats stats;
  stats.messages.store(kBig);
  stats.retransmits.store(kBig + 1);
  stats.recv_timeouts.store(kBig + 2);
  stats.nacks.store(kBig + 3);
  stats.duplicates_dropped.store(kBig + 4);

  obs::MetricsRegistry registry;
  fold_data_plane_metrics(stats, registry);
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter(kMetricMessages), kBig);
  EXPECT_EQ(snapshot.counter(kMetricRetransmits), kBig + 1);
  EXPECT_EQ(snapshot.counter(kMetricRecvTimeouts), kBig + 2);
  EXPECT_EQ(snapshot.counter(kMetricNacks), kBig + 3);
  EXPECT_EQ(snapshot.counter(kMetricDupsDropped), kBig + 4);
}

}  // namespace
}  // namespace de::runtime
