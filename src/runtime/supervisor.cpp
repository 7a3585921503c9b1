#include "runtime/supervisor.hpp"

#include <exception>
#include <utility>

#include "obs/trace.hpp"

namespace de::runtime {

namespace {

/// The what() of the exception in flight, or a placeholder for a throw
/// that is not a std::exception.
std::string describe_current_exception() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "non-standard exception";
  }
}

}  // namespace

Supervisor::Supervisor(Options options)
    : state_(std::make_unique<State>()) {
  state_->options = std::move(options);
}

Supervisor::~Supervisor() { join_all(); }

void Supervisor::spawn(std::string name, int node,
                       std::function<void()> body) {
  State* state = state_.get();
  std::lock_guard lk(state->mu);
  state->threads.emplace_back([state, name = std::move(name), node,
                               body = std::move(body)] {
    obs::bind_thread(name, node);
    int used = 0;
    auto window_start = std::chrono::steady_clock::now();
    for (;;) {
      try {
        body();
        return;
      } catch (...) {
        const auto now = std::chrono::steady_clock::now();
        const double since_s =
            std::chrono::duration<double>(now - window_start).count();
        {
          std::lock_guard slk(state->mu);
          ++state->stats.failures;
        }
        // A thread that survived past the window earns its budget back; a
        // tight crash loop keeps burning the same one.
        if (since_s > state->options.restart_window_s) {
          used = 0;
          window_start = now;
        }
        if (used < state->options.max_restarts) {
          ++used;
          std::lock_guard slk(state->mu);
          ++state->stats.restarts;
          continue;
        }
        {
          std::lock_guard slk(state->mu);
          ++state->stats.escalations;
          if (state->stats.first_escalation.empty()) {
            state->stats.first_escalation =
                name + ": " + describe_current_exception();
          }
        }
        if (state->options.escalate) state->options.escalate();
        return;
      }
    }
  });
}

void Supervisor::join_all() {
  if (state_ == nullptr) return;  // moved-from
  std::vector<std::thread> threads;
  {
    std::lock_guard lk(state_->mu);
    threads.swap(state_->threads);
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
}

Supervisor::Stats Supervisor::stats() const {
  std::lock_guard lk(state_->mu);
  return state_->stats;
}

}  // namespace de::runtime
