// Counts heap allocations by replacing the global operator new and delete.
// Include it in exactly one source file of a test binary: the replacements
// are definitions, and a program holds only one of each.
#ifndef TESTS_ALLOC_COUNTER_H_
#define TESTS_ALLOC_COUNTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> g_allocs{0};
// Allocations of at least kPayloadBytes: a copy of a datum that size.
constexpr std::size_t kPayloadBytes = 4096;
std::atomic<uint64_t> g_payload_allocs{0};

}  // namespace

// The replacements stay out of line, so the compiler does not pair an
// inlined malloc() or free() with a new or delete expression and warn of a
// mismatch.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n >= kPayloadBytes) {
    g_payload_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

#endif  // TESTS_ALLOC_COUNTER_H_
