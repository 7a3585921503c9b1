// Supervisor unit tests: restart-or-escalate semantics for runtime
// threads — a throwing body is restarted while budget remains, escalation
// fires exactly once when it runs out, the default budget (0) keeps the
// classic first-failure-escalates barrier, and a surviving thread earns its
// budget back after the window.
#include "runtime/supervisor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

namespace de::runtime {
namespace {

TEST(Supervisor, RestartsThrowingBodyThenRunsToCompletion) {
  Supervisor::Options options;
  options.max_restarts = 3;
  std::atomic<int> escalations{0};
  options.escalate = [&] { ++escalations; };
  Supervisor supervisor(options);

  std::atomic<int> runs{0};
  supervisor.spawn("worker", 0, [&] {
    if (++runs < 3) throw std::runtime_error("transient");
  });
  supervisor.join_all();

  EXPECT_EQ(runs.load(), 3);
  EXPECT_EQ(escalations.load(), 0);
  const auto stats = supervisor.stats();
  EXPECT_EQ(stats.failures, 2);
  EXPECT_EQ(stats.restarts, 2);
  EXPECT_EQ(stats.escalations, 0);
}

TEST(Supervisor, EscalatesOnceWhenBudgetExhausted) {
  Supervisor::Options options;
  options.max_restarts = 1;
  std::atomic<int> escalations{0};
  options.escalate = [&] { ++escalations; };
  Supervisor supervisor(options);

  std::atomic<int> runs{0};
  supervisor.spawn("crashloop", 1, [&] {
    ++runs;
    throw std::runtime_error("persistent");
  });
  supervisor.join_all();

  EXPECT_EQ(runs.load(), 2);  // original + one granted restart
  EXPECT_EQ(escalations.load(), 1);
  const auto stats = supervisor.stats();
  EXPECT_EQ(stats.failures, 2);
  EXPECT_EQ(stats.restarts, 1);
  EXPECT_EQ(stats.escalations, 1);
}

TEST(Supervisor, DefaultBudgetIsTheClassicBarrier) {
  std::atomic<int> escalations{0};
  Supervisor::Options options;
  options.escalate = [&] { ++escalations; };
  Supervisor supervisor(options);  // max_restarts = 0

  supervisor.spawn("fragile", 0, [] { throw std::runtime_error("boom"); });
  supervisor.join_all();
  EXPECT_EQ(escalations.load(), 1);
  EXPECT_EQ(supervisor.stats().restarts, 0);
}

TEST(Supervisor, SurvivingPastTheWindowEarnsBudgetBack) {
  Supervisor::Options options;
  options.max_restarts = 1;
  options.restart_window_s = 0.0;  // every failure starts a fresh window
  std::atomic<int> escalations{0};
  options.escalate = [&] { ++escalations; };
  Supervisor supervisor(options);

  std::atomic<int> runs{0};
  supervisor.spawn("slow-flake", 0, [&] {
    // Three failures, each in its own (zero-length) window: the budget
    // resets every time, so no escalation ever fires.
    if (++runs < 4) throw std::runtime_error("spaced-out flake");
  });
  supervisor.join_all();
  EXPECT_EQ(runs.load(), 4);
  EXPECT_EQ(escalations.load(), 0);
  EXPECT_EQ(supervisor.stats().restarts, 3);
}

TEST(Supervisor, MoveTransfersOwnershipOfThreads) {
  Supervisor a{Supervisor::Options{}};
  std::atomic<bool> ran{false};
  a.spawn("mover", 0, [&] { ran = true; });
  Supervisor b = std::move(a);
  b.join_all();  // join_all on the moved-from `a` must be a harmless no-op
  a.join_all();
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(b.stats().failures, 0);
}

TEST(Supervisor, ManyThreadsIndependentBudgets) {
  Supervisor::Options options;
  options.max_restarts = 1;
  std::atomic<int> escalations{0};
  options.escalate = [&] { ++escalations; };
  Supervisor supervisor(options);

  std::atomic<int> ok_runs{0};
  supervisor.spawn("healthy-1", 0, [&] { ++ok_runs; });
  supervisor.spawn("crash", 1, [] { throw std::runtime_error("down"); });
  supervisor.spawn("healthy-2", 2, [&] { ++ok_runs; });
  supervisor.join_all();

  EXPECT_EQ(ok_runs.load(), 2);
  EXPECT_EQ(escalations.load(), 1);  // only the crashing thread escalated
  const auto stats = supervisor.stats();
  EXPECT_EQ(stats.failures, 2);
  EXPECT_EQ(stats.restarts, 1);
  EXPECT_EQ(stats.escalations, 1);
}

TEST(Supervisor, KeepsTheFirstEscalationReason) {
  // The owner learns why the fleet went down: the first escalating
  // failure's message, tagged with its thread, survives in the stats.
  // Restarted failures do not count, and a later escalation does not
  // overwrite the first.
  Supervisor::Options options;
  options.max_restarts = 1;
  std::atomic<int> escalations{0};
  options.escalate = [&] { ++escalations; };
  Supervisor supervisor(options);
  EXPECT_TRUE(supervisor.stats().first_escalation.empty());

  std::atomic<int> runs{0};
  supervisor.spawn("provider-1", 1, [&] {
    if (++runs == 1) throw std::runtime_error("transient");
    throw std::runtime_error("chunk geometry disagrees");
  });
  supervisor.join_all();
  supervisor.spawn("provider-2", 2, [] { throw 42; });
  supervisor.join_all();

  EXPECT_EQ(escalations.load(), 2);
  EXPECT_EQ(supervisor.stats().first_escalation,
            "provider-1: chunk geometry disagrees");
}

}  // namespace
}  // namespace de::runtime
