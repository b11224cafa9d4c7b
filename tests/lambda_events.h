// Test-side lambda events. The engine's queue schedules plain records;
// LambdaEvents is a queue that also registers itself as a handler, keeps
// each scheduled function by index and runs it when the record carrying
// that index fires, so a test can script events as lambdas.

#ifndef DBSCALE_TESTS_LAMBDA_EVENTS_H_
#define DBSCALE_TESTS_LAMBDA_EVENTS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "src/engine/event_queue.h"

namespace dbscale::engine {

class LambdaEvents : public EventHandler, public EventQueue {
 public:
  LambdaEvents() : target_(AddHandler(this)) {}

  /// Schedules `fn` at absolute time `when` (not in the past).
  void ScheduleAt(SimTime when, std::function<void()> fn) {
    fns_.push_back(std::move(fn));
    Schedule(when, target_, /*kind=*/0, static_cast<uint32_t>(fns_.size() - 1));
  }

  /// Schedules `fn` after `delay` from Now().
  void ScheduleAfter(Duration delay, std::function<void()> fn) {
    ScheduleAt(Now() + delay, std::move(fn));
  }

 private:
  // A deque keeps the running function in place while it schedules more.
  void OnEvent(const Event& event) override { fns_[event.slot](); }

  uint16_t target_;
  std::deque<std::function<void()>> fns_;
};

}  // namespace dbscale::engine

#endif  // DBSCALE_TESTS_LAMBDA_EVENTS_H_
