// SharedBytes: a refcounted, immutable byte buffer.
//
// The one representation of file data from the store to the caller. A
// datum's bytes are written once -- copied from a span or a vector a caller
// hands in, or by a decode reading them off the wire -- and every layer
// after that (the store record, a reply in flight, the client's cache entry,
// the ReadResult a caller holds) shares the same buffer. Copying a
// SharedBytes bumps a count; it never copies bytes or allocates.
//
// A buffer is one allocation: a header (holder count, size, capacity) with
// the bytes inline after it, so a reader that holds the handle touches one
// block, not a count block and then a separate byte array.
//
// Ownership rules:
//   * the bytes are immutable while shared: Edit() changes them in place
//     only when this handle is the buffer's sole holder, and otherwise gives
//     the handle a private copy first (copy-on-write), so no other holder
//     ever sees an edit;
//   * the count is atomic, so a buffer may be shared across threads (a
//     ReadResult outlives the loop work that produced it). Only the holder
//     count is shared state; a handle itself is not thread-safe.
#ifndef SRC_COMMON_SHARED_BYTES_H_
#define SRC_COMMON_SHARED_BYTES_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <span>
#include <utility>
#include <vector>

namespace leases {

class SharedBytes {
 public:
  using value_type = uint8_t;
  using const_iterator = const uint8_t*;
  using iterator = const_iterator;

  SharedBytes() noexcept = default;
  // Copies `bytes`; an empty view allocates nothing.
  explicit SharedBytes(std::span<const uint8_t> bytes)
      : rep_(bytes.empty() ? nullptr : Rep::Make(bytes.size())) {
    if (rep_ != nullptr) {
      std::memcpy(rep_->bytes(), bytes.data(), bytes.size());
      rep_->size = bytes.size();
    }
  }
  // Copies `bytes` once (implicit, so a vector can be handed wherever file
  // data is expected).
  SharedBytes(std::vector<uint8_t>&& bytes)  // NOLINT(runtime/explicit)
      : SharedBytes(std::span<const uint8_t>(bytes)) {}
  SharedBytes(std::initializer_list<uint8_t> bytes)
      : SharedBytes(std::span<const uint8_t>(bytes.begin(), bytes.size())) {}

  SharedBytes(const SharedBytes& other) noexcept : rep_(other.rep_) {
    if (rep_ != nullptr) {
      rep_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  SharedBytes(SharedBytes&& other) noexcept
      : rep_(std::exchange(other.rep_, nullptr)) {}
  SharedBytes& operator=(const SharedBytes& other) noexcept {
    SharedBytes(other).swap(*this);
    return *this;
  }
  SharedBytes& operator=(SharedBytes&& other) noexcept {
    SharedBytes(std::move(other)).swap(*this);
    return *this;
  }
  ~SharedBytes() { Release(); }

  void swap(SharedBytes& other) noexcept { std::swap(rep_, other.rep_); }

  const uint8_t* data() const noexcept {
    return rep_ != nullptr ? rep_->bytes() : nullptr;
  }
  size_t size() const noexcept { return rep_ != nullptr ? rep_->size : 0; }
  bool empty() const noexcept { return size() == 0; }
  const_iterator begin() const noexcept { return data(); }
  const_iterator end() const noexcept { return data() + size(); }

  operator std::span<const uint8_t>() const noexcept {  // NOLINT
    return {data(), size()};
  }

  // Handles holding this buffer, this one included; 0 when empty.
  long use_count() const noexcept {
    return rep_ != nullptr ? rep_->refs.load(std::memory_order_acquire) : 0;
  }

  // Edits the bytes in place: cuts them to their first `size`, then
  // replaces the `erase` bytes at `at` with `insert` bytes of room, which
  // the caller fills through the returned pointer (to the whole buffer,
  // valid until the next edit). When another handle shares the buffer this
  // handle first takes a private copy; when none does, the edit reuses the
  // buffer, and a buffer that must grow at least doubles, so appends cost
  // O(log n) reallocations. Requires at + erase <= size <= this->size().
  uint8_t* Edit(size_t size, size_t at = 0, size_t erase = 0,
                size_t insert = 0) {
    const size_t tail = size - at - erase;
    const size_t grown = size - erase + insert;
    if (rep_ == nullptr || use_count() != 1 || rep_->capacity < grown) {
      const size_t old = this->size();
      Rep* copy = Rep::Make(grown > old ? std::max(grown, 2 * old) : grown);
      if (rep_ != nullptr) {
        std::memcpy(copy->bytes(), rep_->bytes(), at);
        std::memcpy(copy->bytes() + at + insert, rep_->bytes() + at + erase,
                    tail);
      }
      Release();
      rep_ = copy;
    } else {
      std::memmove(rep_->bytes() + at + insert, rep_->bytes() + at + erase,
                   tail);
    }
    rep_->size = grown;
    return rep_->bytes();
  }

  // Byte-wise equality, against anything that views as bytes (another
  // SharedBytes, a vector, a span).
  friend bool operator==(const SharedBytes& a, std::span<const uint8_t> b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  // The header of one allocation whose `capacity` bytes follow it.
  struct Rep {
    static Rep* Make(size_t capacity) {
      Rep* rep = new (::operator new(sizeof(Rep) + capacity)) Rep;
      rep->capacity = capacity;
      return rep;
    }
    uint8_t* bytes() noexcept { return reinterpret_cast<uint8_t*>(this + 1); }

    std::atomic<long> refs{1};
    size_t size = 0;
    size_t capacity = 0;
  };

  void Release() noexcept {
    if (rep_ != nullptr &&
        rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      rep_->~Rep();
      ::operator delete(rep_);
    }
    rep_ = nullptr;
  }

  Rep* rep_ = nullptr;
};

}  // namespace leases

#endif  // SRC_COMMON_SHARED_BYTES_H_
