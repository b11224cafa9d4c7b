// Allocation-free storage for the engine's per-request and per-job state.
//
// Slab<T> hands out indices ("slots") into a growable vector and recycles
// released ones; Ring<T> is a growable circular FIFO. Both allocate only
// when a run reaches a new high-water mark, so a warm engine schedules,
// queues and completes work without touching the heap. Growth invalidates
// references, so code that may re-enter the engine re-reads by slot.

#ifndef DBSCALE_ENGINE_SLAB_H_
#define DBSCALE_ENGINE_SLAB_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dbscale::engine {

template <typename T>
class Slab {
 public:
  /// Returns a free slot; its value is whatever its last user left.
  uint32_t Acquire() {
    if (free_.empty()) {
      items_.emplace_back();
      return static_cast<uint32_t>(items_.size() - 1);
    }
    const uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  void Release(uint32_t slot) { free_.push_back(slot); }
  T& operator[](uint32_t slot) { return items_[slot]; }

 private:
  std::vector<T> items_;
  std::vector<uint32_t> free_;
};

template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  /// The i-th element from the front.
  T& operator[](size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }
  void push_back(const T& value) {
    if (size_ == buf_.size()) Grow();
    ++size_;
    (*this)[size_ - 1] = value;
  }
  void pop_front() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }
  /// Removes the i-th element; the rest keep their order.
  void erase(size_t i) {
    for (; i + 1 < size_; ++i) (*this)[i] = (*this)[i + 1];
    --size_;
  }

 private:
  void Grow() {
    std::vector<T> bigger(buf_.empty() ? 8 : 2 * buf_.size());
    for (size_t i = 0; i < size_; ++i) bigger[i] = (*this)[i];
    buf_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;  // power-of-two capacity
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace dbscale::engine

#endif  // DBSCALE_ENGINE_SLAB_H_
