#include "src/engine/server_queue.h"

#include <utility>

#include "src/common/check.h"

namespace dbscale::engine {

ServerQueue::ServerQueue(EventQueue* events, std::string name,
                         int num_servers, double speed, Client* client)
    : events_(events),
      client_(client),
      name_(std::move(name)),
      num_servers_(num_servers),
      speed_(speed),
      capacity_accrued_until_(events->Now()) {
  DBSCALE_CHECK(events != nullptr);
  DBSCALE_CHECK(client != nullptr);
  DBSCALE_CHECK(num_servers >= 1);
  DBSCALE_CHECK(speed > 0.0);
  handler_id_ = events->AddHandler(this);
}

// dbscale-hot
void ServerQueue::Submit(double work, uint32_t slot) {
  DBSCALE_DCHECK(work > 0.0);
  queue_.push_back(Job{work, events_->Now(), slot});
  TryDispatch();
}

void ServerQueue::SetCapacity(int num_servers, double speed) {
  DBSCALE_CHECK(num_servers >= 1);
  DBSCALE_CHECK(speed > 0.0);
  AccrueCapacity();
  num_servers_ = num_servers;
  speed_ = speed;
  // More servers may now be free; dispatch queued work. (A shrink leaves
  // busy_ > num_servers_ temporarily; dispatch stalls until drain.)
  TryDispatch();
}

// dbscale-hot
void ServerQueue::TryDispatch() {
  while (busy_ < num_servers_ && !queue_.empty()) {
    const Job job = queue_[0];
    queue_.pop_front();
    ++busy_;
    const SimTime start = events_->Now();
    const Duration service = Duration::Seconds(job.work / speed_);
    const uint32_t id = running_.Acquire();
    running_[id] = Running{job.work, start - job.submitted, service, job.slot};
    events_->Schedule(start + service, handler_id_, 0, id);
  }
}

// dbscale-hot
void ServerQueue::OnEvent(const Event& event) {
  const Running job = running_[event.slot];
  running_.Release(event.slot);
  --busy_;
  work_done_accum_ += job.work;
  ++jobs_completed_;
  metrics_.Add(jobs_metric_, 1.0);
  metrics_.Observe(wait_metric_, job.queue_wait.ToMillis());
  // Dispatch the next job before reporting the completion so that the
  // resource never idles while work is queued, whatever the client does.
  TryDispatch();
  client_->OnServed(*this, job.slot, job.queue_wait, job.service);
}

void ServerQueue::AccrueCapacity() {
  const SimTime now = events_->Now();
  const double elapsed = (now - capacity_accrued_until_).ToSeconds();
  if (elapsed > 0.0) {
    capacity_accum_ += elapsed * total_rate();
    capacity_accrued_until_ = now;
  }
}

ServerQueue::UsageDelta ServerQueue::ConsumeUsage() {
  AccrueCapacity();
  UsageDelta delta{work_done_accum_, capacity_accum_};
  work_done_accum_ = 0.0;
  capacity_accum_ = 0.0;
  return delta;
}

}  // namespace dbscale::engine
