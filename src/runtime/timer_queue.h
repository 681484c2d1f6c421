// TimerQueue: the pending timers of one runtime loop (EventLoop, ShardLoop).
//
// The same layout the simulator's scheduler uses: each pending timer owns a
// generation-tagged slot in a slot table that holds its closure, and a
// 4-ary min-heap orders 24-byte POD entries (deadline, seq, handle) over
// those slots. A TimerId packs (slot index << 32 | generation), so
//
//  * Add is a slot pop plus a heap sift, with no allocation once the slot
//    table and the heap have grown to the loop's working set;
//  * Cancel is one array probe: it frees the slot and leaves the heap entry
//    behind, stale. Stale entries are skipped when they surface and swept
//    out whenever they outnumber the live ones, so the heap stays within
//    twice the pending timers;
//  * a handle whose timer fired or was cancelled names a slot whose
//    generation has moved on, even once the slot holds another timer, so
//    cancelling it again returns false.
//
// Timers with equal deadlines run in the order they were added. The queue
// never runs a closure itself: Cancel and PopDue hand it to the caller, who
// runs or destroys it outside the queue (and outside any lock guarding it),
// so a closure may freely add or cancel timers, even from its destructor.
//
// Not thread-safe; the owning loop guards it.
#ifndef SRC_RUNTIME_TIMER_QUEUE_H_
#define SRC_RUNTIME_TIMER_QUEUE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/ids.h"

namespace leases {

class TimerQueue {
 public:
  using Point = std::chrono::steady_clock::time_point;

  TimerId Add(Point deadline, std::function<void()> fn) {
    uint32_t index;
    if (free_head_ != kNoSlot) {
      index = free_head_;
      free_head_ = slots_[index].next_free;
    } else {
      index = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& slot = slots_[index];
    slot.fn = std::move(fn);
    uint64_t handle = (static_cast<uint64_t>(index) << 32) | slot.gen;
    Push(Entry{deadline, next_seq_++, handle});
    ++pending_;
    return TimerId(handle);
  }

  // Cancels a pending timer, moving its closure to `*fn`. False when `id`
  // is not pending: fired, cancelled or never issued.
  bool Cancel(TimerId id, std::function<void()>* fn) {
    Slot* slot = Pending(id.value());
    if (slot == nullptr) {
      return false;
    }
    *fn = Release(*slot, static_cast<uint32_t>(id.value() >> 32));
    if (++stale_ > heap_.size() / 2) {
      Sweep();
    }
    return true;
  }

  // Removes the earliest timer due at or before `now`, moving its closure
  // to `*fn`. False when none is due.
  bool PopDue(Point now, std::function<void()>* fn) {
    if (!SettleTop() || heap_[0].deadline > now) {
      return false;
    }
    uint64_t handle = heap_[0].handle;
    PopTop();
    *fn = Release(slots_[handle >> 32], static_cast<uint32_t>(handle >> 32));
    return true;
  }

  // The earliest pending deadline; Point::max() when none is pending.
  Point NextDeadline() {
    return SettleTop() ? heap_[0].deadline : Point::max();
  }

  size_t size() const { return pending_; }
  bool empty() const { return pending_ == 0; }

 private:
  struct Entry {
    Point deadline;
    uint64_t seq;     // tie-break: FIFO among equal deadlines
    uint64_t handle;  // packed (slot index << 32 | generation)

    bool EarlierThan(const Entry& o) const {
      return deadline != o.deadline ? deadline < o.deadline : seq < o.seq;
    }
  };

  // A slot's generation moves on whenever its timer fires or is cancelled,
  // so only the handle of its current timer matches it.
  struct Slot {
    uint32_t gen = 1;  // never 0, so no handle is 0 (an invalid TimerId)
    uint32_t next_free = kNoSlot;
    std::function<void()> fn;
  };

  static constexpr uint32_t kNoSlot = 0xffffffffu;

  // The slot `handle` names, if its timer is still pending.
  Slot* Pending(uint64_t handle) {
    uint64_t index = handle >> 32;
    if (index >= slots_.size()) {
      return nullptr;
    }
    Slot& slot = slots_[index];
    return slot.gen == static_cast<uint32_t>(handle) ? &slot : nullptr;
  }

  // Frees the slot (its handle goes stale) and returns its closure.
  std::function<void()> Release(Slot& slot, uint32_t index) {
    std::function<void()> fn = std::move(slot.fn);
    slot.fn = nullptr;
    if (++slot.gen == 0) {
      slot.gen = 1;  // a wrapped generation never makes a handle 0
    }
    slot.next_free = free_head_;
    free_head_ = index;
    --pending_;
    return fn;
  }

  // Pops stale entries off the top; returns whether a live one is there.
  bool SettleTop() {
    while (!heap_.empty() && Pending(heap_[0].handle) == nullptr) {
      PopTop();
      --stale_;
    }
    return !heap_.empty();
  }

  // Drops every stale entry and rebuilds the heap: O(n) once the stale
  // entries reach half the heap, so O(1) per cancel amortized.
  void Sweep() {
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [this](const Entry& e) {
                                 return Pending(e.handle) == nullptr;
                               }),
                heap_.end());
    stale_ = 0;
    for (size_t i = heap_.size(); i-- > 0;) {
      SiftDown(i);
    }
  }

  void Push(Entry e) {
    heap_.push_back(e);
    size_t i = heap_.size() - 1;
    while (i > 0) {
      size_t parent = (i - 1) / 4;
      if (!heap_[i].EarlierThan(heap_[parent])) {
        break;
      }
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void PopTop() {
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      SiftDown(0);
    }
  }

  void SiftDown(size_t i) {
    const size_t n = heap_.size();
    Entry moving = heap_[i];
    for (;;) {
      size_t first = 4 * i + 1;
      if (first >= n) {
        break;
      }
      size_t best = first;
      for (size_t c = first + 1; c < std::min(first + 4, n); ++c) {
        if (heap_[c].EarlierThan(heap_[best])) {
          best = c;
        }
      }
      if (!heap_[best].EarlierThan(moving)) {
        break;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = moving;
  }

  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;
  std::vector<Entry> heap_;  // 4-ary min-heap; may hold stale entries
  size_t stale_ = 0;         // entries in heap_ whose slot has moved on
  size_t pending_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace leases

#endif  // SRC_RUNTIME_TIMER_QUEUE_H_
