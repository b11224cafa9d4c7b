// Statistical buffer pool model.
//
// Tracking millions of individual pages is unnecessary for scaling
// experiments; what matters is the *aggregate* behaviour the paper's signals
// react to:
//   * hit rate as a function of pool size vs. working-set size,
//   * slow warm-up (the pool refills one page per miss, so re-caching a
//     3 GB working set takes hundreds of thousands of I/Os — Figure 14's
//     "takes a long time for the working set to be entirely cached"),
//   * an I/O cliff the moment the pool shrinks below the working set
//     (ballooning's abort trigger),
//   * memory that is "rarely LOW": caches do not voluntarily release pages.
//
// Model: accesses target the hot set (working set, `working_set_pages`)
// with the workload's hotspot probability, otherwise a cold region of
// `database_pages`. The pool tracks how many hot/cold pages are currently
// cached; hot pages are only evicted when the pool cannot hold the full hot
// set, cold pages churn in the remainder.

#ifndef DBSCALE_ENGINE_BUFFER_POOL_H_
#define DBSCALE_ENGINE_BUFFER_POOL_H_

#include <algorithm>
#include <cstdint>

#include "src/common/rng.h"
#include "src/obs/metrics.h"

namespace dbscale::engine {

/// 8 KB pages, matching SQL Server.
inline constexpr double kPageSizeMb = 8.0 / 1024.0;

inline int64_t MbToPages(double mb) {
  return static_cast<int64_t>(mb / kPageSizeMb);
}
inline double PagesToMb(int64_t pages) {
  return static_cast<double>(pages) * kPageSizeMb;
}

/// \brief Aggregate hot/cold page-cache model.
class BufferPool {
 public:
  /// \param capacity_pages pool size in pages.
  /// \param working_set_pages size of the workload's hot set.
  /// \param database_pages total data size (cold region =
  ///        database_pages - working_set_pages).
  BufferPool(int64_t capacity_pages, int64_t working_set_pages,
             int64_t database_pages, Rng* rng);

  /// Records one page access. \param hot whether the access targets the
  /// working set. Returns true on a cache hit; a miss implies one physical
  /// read (the caller issues it to the disk device) after which the page is
  /// cached.
  bool Access(bool hot);

  /// Online resize (container change or balloon step). Shrinking evicts
  /// cold pages first, then hot pages.
  void SetCapacity(int64_t capacity_pages);

  /// Marks the working set as fully cached (up to capacity): a steady-state
  /// start that skips the coupon-collector warm-up.
  void PrewarmHotSet();

  /// Changes the workload's working-set size (e.g. between experiments).
  void SetWorkingSet(int64_t working_set_pages);

  int64_t capacity_pages() const { return capacity_pages_; }
  int64_t working_set_pages() const { return working_set_pages_; }
  int64_t hot_cached() const { return hot_cached_; }
  int64_t cold_cached() const { return cold_cached_; }
  int64_t cached_pages() const { return hot_cached_ + cold_cached_; }
  double used_mb() const { return PagesToMb(cached_pages()); }

  /// True when the pool can no longer hold the entire working set — misses
  /// are then due to *memory pressure*, not warm-up.
  bool UnderMemoryPressure() const {
    return capacity_pages_ < working_set_pages_;
  }

  /// Fraction of hot accesses expected to hit right now.
  double HotHitProbability() const;

  /// Enables metrics: every Access bumps the hit or miss counter.
  /// Setup-time wiring; no-ops on a null sink.
  void SetMetrics(obs::MetricSink sink, obs::MetricId hits_total,
                  obs::MetricId misses_total) {
    metrics_ = sink;
    hits_metric_ = hits_total;
    misses_metric_ = misses_total;
  }

 private:
  bool AccessImpl(bool hot);
  void EvictTo(int64_t target_pages);

  int64_t capacity_pages_;
  int64_t working_set_pages_;
  int64_t database_pages_;
  int64_t hot_cached_ = 0;
  int64_t cold_cached_ = 0;
  Rng* rng_;

  obs::MetricSink metrics_;
  obs::MetricId hits_metric_ = 0;
  obs::MetricId misses_metric_ = 0;
};

// The access path is inline: the engine calls it once per simulated page.
inline double BufferPool::HotHitProbability() const {
  if (working_set_pages_ == 0) return 1.0;
  return std::min(1.0, static_cast<double>(hot_cached_) /
                           static_cast<double>(working_set_pages_));
}

inline bool BufferPool::Access(bool hot) {
  const bool hit = AccessImpl(hot);
  metrics_.Add(hit ? hits_metric_ : misses_metric_, 1.0);
  return hit;
}

inline bool BufferPool::AccessImpl(bool hot) {
  if (hot) {
    // A uniformly random working-set page; cached with probability
    // hot_cached / working_set.
    if (rng_->Bernoulli(HotHitProbability())) return true;
    // Miss: cache the page after the read. Prefer evicting cold pages;
    // if the pool is smaller than the working set, hot pages replace each
    // other and hot_cached saturates at capacity.
    if (cached_pages() >= capacity_pages_) {
      if (cold_cached_ > 0) {
        --cold_cached_;
      } else {
        // Pool full of hot pages: replacement does not change hot_cached_.
        return false;
      }
    }
    if (hot_cached_ < std::min(capacity_pages_, working_set_pages_)) {
      ++hot_cached_;
    }
    return false;
  }

  // Cold access over the non-working-set region.
  const int64_t cold_region =
      std::max<int64_t>(1, database_pages_ - working_set_pages_);
  const double hit_prob =
      std::min(1.0, static_cast<double>(cold_cached_) /
                        static_cast<double>(cold_region));
  if (rng_->Bernoulli(hit_prob)) return true;
  // Miss: admit the cold page only into space not needed by the hot set —
  // an LRU under a hot/cold mix keeps the frequently-touched hot pages.
  const int64_t cold_budget =
      std::max<int64_t>(0, capacity_pages_ - hot_cached_);
  if (cold_cached_ < cold_budget) {
    ++cold_cached_;
  }
  // else: replaces another cold page; cold_cached_ unchanged.
  return false;
}

}  // namespace dbscale::engine

#endif  // DBSCALE_ENGINE_BUFFER_POOL_H_
