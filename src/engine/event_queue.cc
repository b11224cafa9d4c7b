#include "src/engine/event_queue.h"

#include <algorithm>

#include "src/common/check.h"

namespace dbscale::engine {

namespace {

constexpr size_t kArity = 4;

/// The heap order: earlier `when` first, then scheduling order.
bool Before(const Event& a, const Event& b) {
  return a.when < b.when || (a.when == b.when && a.seq < b.seq);
}

}  // namespace

uint16_t EventQueue::AddHandler(EventHandler* handler) {
  DBSCALE_CHECK(handler != nullptr);
  DBSCALE_CHECK(handlers_.size() <= UINT16_MAX);
  handlers_.push_back(handler);
  return static_cast<uint16_t>(handlers_.size() - 1);
}

void EventQueue::Schedule(SimTime when, uint16_t target, uint16_t kind,
                          uint32_t slot, uint64_t arg) {
  DBSCALE_DCHECK(when >= now_);
  DBSCALE_DCHECK(target < handlers_.size());
  Push(Event{when, next_seq_++, target, kind, slot, arg});
}

// dbscale-hot
void EventQueue::Push(const Event& event) {
  size_t i = heap_.size();
  heap_.push_back(event);
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!Before(event, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = event;
}

// Pops the earliest event and dispatches it to its handler.
// dbscale-hot
void EventQueue::FireTop() {
  const Event event = heap_.front();
  const Event last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n > 0) {
    size_t i = 0;
    for (size_t child = 1; child < n; child = i * kArity + 1) {
      const size_t end = std::min(child + kArity, n);
      for (size_t c = child + 1; c < end; ++c) {
        if (Before(heap_[c], heap_[child])) child = c;
      }
      if (!Before(heap_[child], last)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = last;
  }
  now_ = event.when;
  ++events_processed_;
  handlers_[event.target]->OnEvent(event);
}

// dbscale-hot
void EventQueue::RunUntil(SimTime until) {
  DBSCALE_DCHECK(until >= now_);
  while (!heap_.empty() && heap_.front().when <= until) FireTop();
  now_ = until;
}

void EventQueue::RunAll() {
  while (!heap_.empty()) FireTop();
}

}  // namespace dbscale::engine
