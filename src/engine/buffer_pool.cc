#include "src/engine/buffer_pool.h"

#include <algorithm>

#include "src/common/check.h"

namespace dbscale::engine {

BufferPool::BufferPool(int64_t capacity_pages, int64_t working_set_pages,
                       int64_t database_pages, Rng* rng)
    : capacity_pages_(capacity_pages),
      working_set_pages_(working_set_pages),
      database_pages_(database_pages),
      rng_(rng) {
  DBSCALE_CHECK(capacity_pages >= 0);
  DBSCALE_CHECK(working_set_pages > 0);
  DBSCALE_CHECK(database_pages >= working_set_pages);
  DBSCALE_CHECK(rng != nullptr);
}


void BufferPool::PrewarmHotSet() {
  hot_cached_ = std::min(capacity_pages_, working_set_pages_);
  EvictTo(capacity_pages_);
}

void BufferPool::SetCapacity(int64_t capacity_pages) {
  DBSCALE_CHECK(capacity_pages >= 0);
  capacity_pages_ = capacity_pages;
  EvictTo(capacity_pages_);
}

void BufferPool::SetWorkingSet(int64_t working_set_pages) {
  DBSCALE_CHECK(working_set_pages > 0);
  DBSCALE_CHECK(working_set_pages <= database_pages_);
  working_set_pages_ = working_set_pages;
  hot_cached_ = std::min(hot_cached_, working_set_pages_);
}

void BufferPool::EvictTo(int64_t target_pages) {
  // Cold pages first.
  int64_t excess = cached_pages() - target_pages;
  if (excess <= 0) return;
  int64_t cold_evicted = std::min(excess, cold_cached_);
  cold_cached_ -= cold_evicted;
  excess -= cold_evicted;
  if (excess > 0) {
    hot_cached_ -= excess;
    DBSCALE_CHECK(hot_cached_ >= 0);
  }
}

}  // namespace dbscale::engine
