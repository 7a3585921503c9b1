// Supervisor: restart-or-escalate monitoring for runtime threads
// (DESIGN.md §membership). A provider loop dying locally must be observed,
// not hung on — the old pattern (a bare catch that shuts the fabric down)
// is this supervisor with max_restarts = 0, which stays the default so
// ordinary runs keep their loud-failure semantics. Chaos/membership runs
// raise the budget: a provider that throws (fail_starved after its links
// were severed, say) is restarted with a fresh loop, and only a thread that
// exhausts its restart budget inside the window escalates (by default:
// tear the whole fabric down so blocked counterparties fail in an orderly
// way rather than deadlock a join).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace de::runtime {

class Supervisor {
 public:
  struct Options {
    /// Restarts granted per supervised thread within `restart_window_s`.
    /// 0 = escalate on the first failure (the classic barrier behaviour).
    int max_restarts = 0;
    /// Budget window: a thread that stays alive longer than this between
    /// failures earns its budget back (a crash loop never does).
    double restart_window_s = 5.0;
    /// Invoked (once per escalating thread) when the budget is exhausted.
    std::function<void()> escalate;
  };

  struct Stats {
    std::int64_t failures = 0;     ///< bodies that exited by exception
    std::int64_t restarts = 0;     ///< failures answered with a re-run
    std::int64_t escalations = 0;  ///< failures that exhausted the budget
    /// "<thread name>: <what()>" of the first failure that escalated (empty
    /// while none has), so an owner whose run the escalation tore down can
    /// report why instead of just that the transport went away.
    std::string first_escalation;
  };

  Supervisor() : Supervisor(Options()) {}
  explicit Supervisor(Options options);
  Supervisor(Supervisor&&) noexcept = default;
  Supervisor& operator=(Supervisor&&) noexcept = default;
  ~Supervisor();

  /// Starts a supervised thread: binds it to (name, node) for traces, runs
  /// `body`, and on exception restarts or escalates per the options. A body
  /// that returns normally ends the thread for good.
  void spawn(std::string name, int node, std::function<void()> body);

  /// Joins every supervised thread. Idempotent; also run by the destructor.
  void join_all();

  Stats stats() const;

 private:
  struct State {
    Options options;
    mutable std::mutex mu;
    Stats stats;
    std::vector<std::thread> threads;
  };
  std::unique_ptr<State> state_;
};

}  // namespace de::runtime
