// Membership-layer unit tests: lease-expiry edge cases on the telemetry
// book (a heartbeat landing exactly at expiry still saves the lease, sender
// clock skew is irrelevant, stale replays never renew, a revived device
// surfaces as a join), survivor-strategy masking, and the controller's
// pending-decision merge — a device flapping die/revive inside one
// unapplied window cancels out instead of causing two concurrent adoptions.
#include "ctrl/membership.hpp"

#include <gtest/gtest.h>

#include "common/require.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/planner.hpp"
#include "ctrl/telemetry.hpp"
#include "device/device.hpp"

namespace de::ctrl {
namespace {

constexpr std::int64_t kLeaseUs = 50'000;  // 50 ms, entirely synthetic clock

cnn::CnnModel mini() {
  return cnn::ModelBuilder("mini", 20, 20, 3)
      .conv_same(6, 3)
      .conv_same(6, 3)
      .maxpool(2, 2)
      .conv_same(8, 3)
      .build();
}

sim::ClusterLatency nano_cluster(int n) {
  sim::ClusterLatency latency;
  for (int i = 0; i < n; ++i) {
    latency.push_back(device::make_latency_model(device::DeviceType::kNano));
  }
  return latency;
}

int rows_of(const sim::RawStrategy& strategy, int device) {
  int rows = 0;
  for (const auto& cuts : strategy.cuts) {
    rows += cuts[static_cast<std::size_t>(device) + 1] -
            cuts[static_cast<std::size_t>(device)];
  }
  return rows;
}

std::vector<MembershipEvent> deaths_only(
    const std::vector<MembershipEvent>& events) {
  std::vector<MembershipEvent> out;
  for (const auto& ev : events) {
    if (ev.kind == MembershipEvent::kDied) out.push_back(ev);
  }
  return out;
}

TEST(Lease, HeartbeatExactlyAtExpiryStillSaves) {
  TelemetryBook book(2);
  EXPECT_TRUE(book.ingest_heartbeat(0, 1, 0, /*received_us=*/1000));
  EXPECT_TRUE(book.ingest_heartbeat(1, 1, 0, 1000));

  // now - renewal == lease exactly: "STRICTLY older" means still alive.
  auto events = book.poll_membership(1000 + kLeaseUs, kLeaseUs);
  EXPECT_TRUE(deaths_only(events).empty());
  EXPECT_TRUE(book.alive(0));

  // One microsecond later the lease is lapsed.
  events = book.poll_membership(1000 + kLeaseUs + 1, kLeaseUs);
  const auto died = deaths_only(events);
  ASSERT_EQ(died.size(), 2u);
  EXPECT_FALSE(book.alive(0));
  EXPECT_FALSE(book.alive(1));
}

TEST(Lease, NeverHeardDevicesGetAGracePeriodFromFirstPoll) {
  TelemetryBook book(2);
  // Nobody ever heartbeat. The first poll starts the leases instead of
  // declaring the whole (still-starting) fleet dead...
  EXPECT_TRUE(book.poll_membership(500, kLeaseUs).empty());
  // ...and the clock runs from that first poll.
  EXPECT_TRUE(book.poll_membership(500 + kLeaseUs, kLeaseUs).empty());
  const auto events = book.poll_membership(500 + kLeaseUs + 1, kLeaseUs);
  EXPECT_EQ(deaths_only(events).size(), 2u);
}

TEST(Lease, SenderClockSkewCannotKillADevice) {
  TelemetryBook book(1);
  // The embedded sender timestamps are nonsense (hours ahead, then
  // negative). Renewal is judged on receiver arrival time alone.
  EXPECT_TRUE(book.ingest_heartbeat(0, 1, /*sender=*/9'000'000'000, 1000));
  EXPECT_TRUE(book.ingest_heartbeat(0, 2, /*sender=*/-5'000'000, 2000));
  EXPECT_TRUE(
      deaths_only(book.poll_membership(2000 + kLeaseUs, kLeaseUs)).empty());
  EXPECT_TRUE(book.alive(0));
}

TEST(Lease, StaleSeqReplayNeverRenews) {
  TelemetryBook book(1);
  EXPECT_TRUE(book.ingest_heartbeat(0, 5, 0, 1000));
  // A delayed/reordered heartbeat (older seq) arrives much later: it must
  // not renew a lease the sender has since let lapse.
  EXPECT_FALSE(book.ingest_heartbeat(0, 4, 0, 40'000));
  EXPECT_FALSE(book.ingest_heartbeat(0, 5, 0, 45'000));  // dup, same life
  const auto events = book.poll_membership(1000 + kLeaseUs + 1, kLeaseUs);
  ASSERT_EQ(deaths_only(events).size(), 1u);
  EXPECT_FALSE(book.alive(0));
}

TEST(Lease, RevivedDeviceSurfacesAsJoin) {
  TelemetryBook book(1);
  EXPECT_TRUE(book.ingest_heartbeat(0, 7, 0, 1000));
  ASSERT_EQ(book.poll_membership(1000 + kLeaseUs + 1, kLeaseUs).size(), 1u);

  // Death reset the sequence floor: a restarted node's fresh counter (1)
  // is accepted, not mistaken for a replay of the previous life.
  EXPECT_TRUE(book.ingest_heartbeat(0, 1, 0, 200'000));
  const auto events = book.poll_membership(200'001, kLeaseUs);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MembershipEvent::kJoined);
  EXPECT_EQ(events[0].node, 0);
  EXPECT_TRUE(book.alive(0));
}

TEST(Lease, UnknownNodesAreIgnoredNotFatal) {
  TelemetryBook book(2);
  EXPECT_FALSE(book.ingest_heartbeat(99, 1, 0, 1000));
  EXPECT_TRUE(book.alive(0));  // unknown is not dead
}

TEST(MaskStrategy, DeadDeviceEmptiedRowsRedistributedExactly) {
  sim::RawStrategy strategy;
  strategy.volumes = {};  // volumes unused by the cut arithmetic
  strategy.cuts = {{0, 4, 8, 12}, {0, 2, 6, 10}};
  std::vector<bool> dead = {false, true, false};
  const auto masked = mask_strategy(strategy, dead);
  for (const auto& cuts : masked.cuts) {
    EXPECT_EQ(cuts[1], cuts[2]) << "dead device must hold an empty part";
    EXPECT_EQ(cuts.front(), 0);
  }
  EXPECT_EQ(masked.cuts[0].back(), 12);  // total height preserved
  EXPECT_EQ(masked.cuts[1].back(), 10);
  std::vector<bool> all_dead = {true, true, true};
  EXPECT_THROW(mask_strategy(strategy, all_dead), Error);
}

/// A hand-fed controller with a synthetic heartbeat clock: the caller
/// owns `received_us` entirely, so lease timing is deterministic.
struct ExternalController {
  cnn::CnnModel model = mini();
  BandwidthProportionalPlanner planner;
  sim::RawStrategy serving;
  std::unique_ptr<Controller> controller;

  explicit ExternalController(int n, bool profile_on_join = false) {
    ControllerConfig config;
    config.planner = &planner;
    config.model = &model;
    config.latency = nano_cluster(n);
    config.network = net::Network(n, 100.0);
    config.lease_ms = 50;
    config.profile_on_join = profile_on_join;
    config.join_profile.granularity = 16;
    config.join_profile.repeats = 1;
    controller = std::make_unique<Controller>(std::move(config));

    core::PlanContext ctx;
    ctx.model = &model;
    ctx.latency = nano_cluster(n);
    net::Network network(n, 100.0);
    ctx.network = &network;
    serving = planner.plan(ctx).to_raw(model);
    controller->start(serving);
  }

  void beat(rpc::NodeId node, std::uint32_t seq, std::int64_t at_us) {
    rpc::HeartbeatMsg msg;
    msg.from_node = node;
    msg.hb_seq = seq;
    msg.steady_now_us = at_us;
    controller->ingest_heartbeat(msg, at_us);
  }
};

TEST(ControllerMembership, DeathPublishesMaskedSurvivorStrategy) {
  ExternalController ext(3);
  // Everybody alive at t=0; node 0 then goes silent while 1 and 2 renew.
  for (rpc::NodeId n = 0; n < 3; ++n) ext.beat(n, 1, 0);
  ext.beat(1, 2, 40'000);
  ext.beat(2, 2, 40'000);
  EXPECT_FALSE(ext.controller->membership_pending());
  ext.beat(1, 3, 60'000);  // sweep at 60 ms: node 0's lease (50 ms) lapsed

  ASSERT_TRUE(ext.controller->membership_pending());
  EXPECT_TRUE(ext.controller->death_pending());
  auto decision = ext.controller->take_swap();
  ASSERT_TRUE(decision.has_value());
  ASSERT_EQ(decision->died.size(), 1u);
  EXPECT_EQ(decision->died[0], 0);
  EXPECT_TRUE(decision->joined.empty());
  EXPECT_EQ(rows_of(decision->strategy, 0), 0)
      << "dead device still owns rows";
  EXPECT_GT(rows_of(decision->strategy, 1), 0);
  EXPECT_FALSE(ext.controller->membership_pending());  // taken = gone
  EXPECT_EQ(ext.controller->stats().deaths, 1);
}

TEST(ControllerMembership, EveryLeaseLapsingAtOnceIsNotAFleetDeath) {
  // The collector's thread stalls past the lease, so at its next sweep every
  // lease has lapsed. There is no survivor to plan for: nothing is published
  // and nothing throws, and the leases restart. Node 0 really died during
  // the stall: it lapses again on its own a lease later, and only then is
  // it declared dead.
  ExternalController ext(3);
  for (rpc::NodeId n = 0; n < 3; ++n) ext.beat(n, 1, 0);
  EXPECT_NO_THROW(ext.beat(0, 1, 200'000));  // a replay: renews nothing
  EXPECT_FALSE(ext.controller->membership_pending());
  ext.beat(1, 2, 230'000);
  ext.beat(2, 2, 230'000);
  EXPECT_FALSE(ext.controller->membership_pending());
  ext.beat(1, 3, 260'000);  // node 0's restarted lease (50 ms) lapsed
  auto decision = ext.controller->take_swap();
  ASSERT_TRUE(decision.has_value());
  ASSERT_EQ(decision->died.size(), 1u);
  EXPECT_EQ(decision->died[0], 0);
  EXPECT_TRUE(decision->joined.empty());
  EXPECT_EQ(ext.controller->stats().deaths, 1);
  EXPECT_EQ(ext.controller->stats().joins, 0);
}

TEST(ControllerMembership, RejoinAdoptsWithProfileOnJoinCalibration) {
  ExternalController ext(2, /*profile_on_join=*/true);
  for (rpc::NodeId n = 0; n < 2; ++n) ext.beat(n, 1, 0);
  ext.beat(1, 2, 60'000);  // node 0 dies
  ASSERT_TRUE(ext.controller->death_pending());
  auto death = ext.controller->take_swap();
  ASSERT_TRUE(death.has_value());
  ASSERT_EQ(death->died.size(), 1u);

  // Node 0 restarts: fresh heartbeat life, adopted at the next sweep. The
  // join decision replans over the full fleet again (profile-on-join ran
  // on the tiny model) and gives the joiner rows back. Node 1 keeps
  // renewing, or its own lease would lapse while node 0 is away.
  ext.beat(1, 3, 110'000);
  ext.beat(0, 1, 120'000);
  ASSERT_TRUE(ext.controller->membership_pending());
  EXPECT_FALSE(ext.controller->death_pending());  // joins never interrupt
  auto join = ext.controller->take_swap();
  ASSERT_TRUE(join.has_value());
  ASSERT_EQ(join->joined.size(), 1u);
  EXPECT_EQ(join->joined[0], 0);
  EXPECT_TRUE(join->died.empty());
  EXPECT_GT(rows_of(join->strategy, 0), 0) << "joiner adopted without work";
  const auto stats = ext.controller->stats();
  EXPECT_EQ(stats.deaths, 1);
  EXPECT_EQ(stats.joins, 1);
  EXPECT_GT(stats.heartbeats, 0);
}

TEST(ControllerMembership, FlapInsideOnePendingWindowCancelsOut) {
  ExternalController ext(3);
  for (rpc::NodeId n = 0; n < 3; ++n) ext.beat(n, 1, 0);
  ext.beat(2, 2, 40'000);
  ext.beat(1, 2, 60'000);  // node 0 declared dead; decision left pending
  ASSERT_TRUE(ext.controller->membership_pending());

  // Node 0 revives before the serving loop ever applied the death. From
  // the fleet's point of view nothing happened: surfacing the join would
  // jump chunk ids on a node that never restarted. The merged pending
  // decision must list node 0 on NEITHER side — and there must never be
  // two concurrent adoptions in flight.
  ext.beat(0, 2, 70'000);
  EXPECT_FALSE(ext.controller->membership_pending());
  auto decision = ext.controller->take_swap();
  if (decision.has_value()) {
    EXPECT_TRUE(decision->died.empty());
    EXPECT_TRUE(decision->joined.empty());
  }
  EXPECT_FALSE(ext.controller->take_swap().has_value())
      << "a second concurrent decision escaped the merge";
  const auto stats = ext.controller->stats();
  EXPECT_EQ(stats.deaths, 1);
  EXPECT_EQ(stats.joins, 1);
}

}  // namespace
}  // namespace de::ctrl
