// SharedBytes: a refcounted, immutable byte buffer.
//
// The one representation of file data from the store to the caller. A
// datum's bytes are written once -- into a vector a caller hands in (the
// buffer takes it over), or by a decode reading them off the wire -- and
// every layer after that (the store record, a reply in flight, the
// client's cache entry, the ReadResult a caller holds) shares the same
// buffer. Copying a SharedBytes bumps a count; it never copies bytes or
// allocates.
//
// Ownership rules:
//   * the bytes are immutable while shared: Mutable() edits in place only
//     when this handle is the buffer's sole holder, and otherwise gives the
//     handle a private copy first (copy-on-write), so no other holder ever
//     sees an edit;
//   * the count is atomic, so a buffer may be shared across threads (a
//     ReadResult outlives the loop work that produced it). Only the holder
//     count is shared state; a handle itself is not thread-safe.
#ifndef SRC_COMMON_SHARED_BYTES_H_
#define SRC_COMMON_SHARED_BYTES_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
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
  // Takes over `bytes` without copying them (implicit, so a vector can be
  // handed wherever file data is expected).
  SharedBytes(std::vector<uint8_t>&& bytes)  // NOLINT(runtime/explicit)
      : rep_(new Rep(std::move(bytes))) {}
  // Copies `bytes`; an empty view allocates nothing.
  explicit SharedBytes(std::span<const uint8_t> bytes)
      : rep_(bytes.empty() ? nullptr
                           : new Rep(std::vector<uint8_t>(bytes.begin(),
                                                          bytes.end()))) {}
  // Copies literal bytes.
  SharedBytes(std::initializer_list<uint8_t> bytes)
      : SharedBytes(std::vector<uint8_t>(bytes)) {}

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
    return rep_ != nullptr ? rep_->bytes.data() : nullptr;
  }
  size_t size() const noexcept {
    return rep_ != nullptr ? rep_->bytes.size() : 0;
  }
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

  // The bytes, for editing in place. When another handle shares the buffer
  // this handle first takes a private copy, which the edit then changes;
  // when none does, edits (appends included) reuse the buffer's capacity.
  // Finish the edit before this handle is copied or assigned: a copy taken
  // mid-edit would share the buffer the rest of the edit changes.
  std::vector<uint8_t>& Mutable() {
    if (rep_ == nullptr) {
      rep_ = new Rep({});
    } else if (use_count() != 1) {
      Rep* copy = new Rep(std::vector<uint8_t>(rep_->bytes));
      Release();
      rep_ = copy;
    }
    return rep_->bytes;
  }

  // Byte-wise equality, against anything that views as bytes (another
  // SharedBytes, a vector, a span).
  friend bool operator==(const SharedBytes& a, std::span<const uint8_t> b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  struct Rep {
    explicit Rep(std::vector<uint8_t>&& b) : bytes(std::move(b)) {}
    std::atomic<long> refs{1};
    std::vector<uint8_t> bytes;
  };

  void Release() noexcept {
    if (rep_ != nullptr &&
        rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete rep_;
    }
    rep_ = nullptr;
  }

  Rep* rep_ = nullptr;
};

}  // namespace leases

#endif  // SRC_COMMON_SHARED_BYTES_H_
