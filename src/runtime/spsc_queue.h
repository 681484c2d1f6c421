// Bounded single-producer single-consumer ring queue.
//
// The shard engine's inbound path: the UDP transport's event loop (the
// single producer) routes each decoded datagram to its owning shard and
// pushes it here; the shard's worker thread (the single consumer) drains it
// and runs the handler to completion. One atomic load plus one store per side, no
// locks, no CAS -- the queue is the reason the sharded hot path scales
// linearly instead of serializing on a mutex.
//
// Capacity is rounded up to a power of two. A full queue rejects the push:
// UDP is fire-and-forget, so the caller drops the datagram and counts it
// (the protocol's timeout machinery handles the loss like any other).
#ifndef SRC_RUNTIME_SPSC_QUEUE_H_
#define SRC_RUNTIME_SPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace leases {

template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity) {
      cap <<= 1;
    }
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  // Producer side. Returns false when the ring is full (item untouched).
  bool TryPush(T&& item) {
    size_t head = head_.load(std::memory_order_relaxed);
    size_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail > mask_) {
      return false;
    }
    slots_[head & mask_] = std::move(item);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Consumer side. Returns false when the ring is empty.
  bool TryPop(T* out) {
    size_t tail = tail_.load(std::memory_order_relaxed);
    size_t head = head_.load(std::memory_order_acquire);
    if (tail == head) {
      return false;
    }
    *out = std::move(slots_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Approximate (either side may race it); exact from the owning side.
  bool Empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  size_t capacity() const { return mask_ + 1; }

 private:
  std::vector<T> slots_;
  size_t mask_ = 0;
  // Producer and consumer cursors on separate cache lines so the two sides
  // do not false-share.
  alignas(64) std::atomic<size_t> head_{0};
  alignas(64) std::atomic<size_t> tail_{0};
};

}  // namespace leases

#endif  // SRC_RUNTIME_SPSC_QUEUE_H_
