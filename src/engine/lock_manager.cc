#include "src/engine/lock_manager.h"

#include "src/common/check.h"

namespace dbscale::engine {

LockManager::LockManager(EventQueue* events, int num_rows,
                         Duration wait_timeout, Client* client)
    : events_(events),
      client_(client),
      wait_timeout_(wait_timeout),
      rows_(num_rows) {
  DBSCALE_CHECK(events != nullptr);
  DBSCALE_CHECK(client != nullptr);
  DBSCALE_CHECK(num_rows > 0);
  DBSCALE_CHECK(wait_timeout > Duration::Zero());
  handler_id_ = events->AddHandler(this);
}

// dbscale-hot
void LockManager::Acquire(int row, uint32_t slot) {
  DBSCALE_CHECK(row >= 0 && row < num_rows());
  Row& r = rows_[static_cast<size_t>(row)];
  if (!r.held && r.waiters.empty()) {
    r.held = true;
    ++grants_;
    metrics_.Add(grants_metric_, 1.0);
    metrics_.Observe(wait_metric_, 0.0);
    client_->OnLockResolved(slot, true, Duration::Zero());
    return;
  }
  const uint64_t ticket = next_ticket_++;
  r.waiters.push_back(Waiter{ticket, events_->Now(), slot});
  // Arm the timeout. The waiter might have been granted (and removed) by
  // then; the ticket identifies it.
  events_->Schedule(events_->Now() + wait_timeout_, handler_id_, 0,
                    static_cast<uint32_t>(row), ticket);
}

// dbscale-hot
void LockManager::OnEvent(const Event& event) {
  Ring<Waiter>& waiters = rows_[event.slot].waiters;
  for (size_t i = 0; i < waiters.size(); ++i) {
    if (waiters[i].ticket != event.arg) continue;
    const Waiter waiter = waiters[i];
    const Duration waited = events_->Now() - waiter.enqueued;
    waiters.erase(i);
    ++timeouts_;
    metrics_.Add(timeouts_metric_, 1.0);
    metrics_.Observe(wait_metric_, waited.ToMillis());
    client_->OnLockResolved(waiter.slot, false, waited);
    return;
  }
  // Already granted; nothing to do.
}

// dbscale-hot
void LockManager::Release(int row) {
  DBSCALE_CHECK(row >= 0 && row < num_rows());
  Row& r = rows_[static_cast<size_t>(row)];
  DBSCALE_CHECK(r.held);
  r.held = false;
  GrantNext(row);
}

// dbscale-hot
void LockManager::GrantNext(int row) {
  Row& r = rows_[static_cast<size_t>(row)];
  if (r.held || r.waiters.empty()) return;
  const Waiter waiter = r.waiters[0];
  r.waiters.pop_front();
  r.held = true;
  ++grants_;
  const Duration waited = events_->Now() - waiter.enqueued;
  metrics_.Add(grants_metric_, 1.0);
  metrics_.Observe(wait_metric_, waited.ToMillis());
  client_->OnLockResolved(waiter.slot, true, waited);
}

bool LockManager::IsHeld(int row) const {
  DBSCALE_CHECK(row >= 0 && row < num_rows());
  return rows_[static_cast<size_t>(row)].held;
}

size_t LockManager::QueueLength(int row) const {
  DBSCALE_CHECK(row >= 0 && row < num_rows());
  return rows_[static_cast<size_t>(row)].waiters.size();
}

}  // namespace dbscale::engine
