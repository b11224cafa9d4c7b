// Discrete-event simulation core.
//
// A single-threaded scheduler over plain event records. An Event names the
// registered handler that receives it (`target`) plus three words the
// handler interprets itself (`kind`, `slot`, `arg`); the engine's
// components keep per-request and per-job state in slabs indexed by slot,
// so scheduling an event allocates nothing. Records sit in a flat 4-ary
// min-heap ordered by (`when`, `seq`), where `seq` increases with every
// schedule call: the order is strict and total, so equal timestamps fire in
// scheduling order, whichever handler they address, and every run is
// deterministic.

#ifndef DBSCALE_ENGINE_EVENT_QUEUE_H_
#define DBSCALE_ENGINE_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "src/common/sim_time.h"

namespace dbscale::engine {

/// One scheduled event: a 32-byte record.
struct Event {
  SimTime when;
  uint64_t seq = 0;
  uint16_t target = 0;  // handler id from EventQueue::AddHandler
  uint16_t kind = 0;    // the handler's own event kind
  uint32_t slot = 0;    // request, job or row index
  uint64_t arg = 0;     // one more word (e.g. a lock ticket)
};

/// \brief Receives the record events addressed to it.
class EventHandler {
 public:
  virtual void OnEvent(const Event& event) = 0;

 protected:
  ~EventHandler() = default;
};

/// \brief Deterministic discrete-event scheduler.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current simulated time (the timestamp of the event being processed, or
  /// the last processed).
  SimTime Now() const { return now_; }

  /// Registers `handler` (which must outlive its pending events) and
  /// returns the id its events carry as `target`. Setup-time only.
  uint16_t AddHandler(EventHandler* handler);

  /// Schedules a record event for handler `target` at absolute time `when`
  /// (not in the past).
  void Schedule(SimTime when, uint16_t target, uint16_t kind,
                uint32_t slot = 0, uint64_t arg = 0);

  /// Runs events until the queue is empty or the next event is after
  /// `until`; leaves Now() == until. Events scheduled exactly at `until`
  /// are executed.
  void RunUntil(SimTime until);

  /// Runs all remaining events.
  void RunAll();

  bool empty() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }
  uint64_t events_processed() const { return events_processed_; }

 private:
  void Push(const Event& event);
  void FireTop();

  SimTime now_ = SimTime::Zero();
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  std::vector<Event> heap_;
  std::vector<EventHandler*> handlers_;
};

}  // namespace dbscale::engine

#endif  // DBSCALE_ENGINE_EVENT_QUEUE_H_
