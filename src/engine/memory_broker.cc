#include "src/engine/memory_broker.h"

#include <algorithm>

#include "src/common/check.h"

namespace dbscale::engine {

MemoryBroker::MemoryBroker(EventQueue* events, double workspace_mb,
                           Client* client)
    : events_(events), client_(client), workspace_mb_(workspace_mb) {
  DBSCALE_CHECK(events != nullptr);
  DBSCALE_CHECK(client != nullptr);
  DBSCALE_CHECK(workspace_mb >= 0.0);
}

// dbscale-hot
void MemoryBroker::Acquire(double mb, uint32_t slot) {
  DBSCALE_DCHECK(mb > 0.0);
  mb = std::min(mb, workspace_mb_);
  if (waiters_.empty() && in_use_mb_ + mb <= workspace_mb_) {
    in_use_mb_ += mb;
    metrics_.Add(grants_metric_, 1.0);
    metrics_.Observe(wait_metric_, 0.0);
    client_->OnMemoryGranted(slot, Duration::Zero(), mb);
    return;
  }
  waiters_.push_back(Waiter{mb, events_->Now(), slot});
}

// dbscale-hot
void MemoryBroker::Release(double mb) {
  DBSCALE_DCHECK(mb >= 0.0);
  in_use_mb_ = std::max(0.0, in_use_mb_ - mb);
  TryGrant();
}

void MemoryBroker::SetWorkspace(double workspace_mb) {
  DBSCALE_CHECK(workspace_mb >= 0.0);
  workspace_mb_ = workspace_mb;
  TryGrant();
}

// dbscale-hot
void MemoryBroker::TryGrant() {
  while (!waiters_.empty()) {
    // Clamp against the current workspace so a shrink cannot wedge the
    // queue behind an unsatisfiable request.
    double mb = std::min(waiters_[0].mb, workspace_mb_);
    if (in_use_mb_ + mb > workspace_mb_) break;
    const Waiter waiter = waiters_[0];
    waiters_.pop_front();
    in_use_mb_ += mb;
    const Duration waited = events_->Now() - waiter.enqueued;
    metrics_.Add(grants_metric_, 1.0);
    metrics_.Observe(wait_metric_, waited.ToMillis());
    client_->OnMemoryGranted(waiter.slot, waited, mb);
  }
}

}  // namespace dbscale::engine
