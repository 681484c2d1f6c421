#include "probe.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace loopbench {
namespace {

// Integer work the optimizer cannot drop: the result feeds an asm barrier.
void Spin(uint64_t iterations) {
  uint64_t x = 88172645463325252ULL;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  asm volatile("" : : "r"(x));
}

double SecondsFor(unsigned threads, uint64_t iterations) {
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([iterations]() { Spin(iterations); });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

ParallelismProbe ProbeParallelism() {
  ParallelismProbe probe;
  probe.hardware_threads = std::max(1u, std::thread::hardware_concurrency());
  // Calibrate so one thread spins for about 20 ms.
  uint64_t iterations = 1 << 20;
  while (SecondsFor(1, iterations) < 0.005) {
    iterations *= 2;
  }
  iterations = static_cast<uint64_t>(
      static_cast<double>(iterations) * 0.02 / SecondsFor(1, iterations));
  // Best of three single-thread timings, to shed a descheduled outlier.
  double one = SecondsFor(1, iterations);
  one = std::min(one, SecondsFor(1, iterations));
  one = std::min(one, SecondsFor(1, iterations));
  probe.effective = 1.0;
  for (unsigned k = 2; k <= probe.hardware_threads; ++k) {
    probe.effective =
        std::max(probe.effective, k * one / SecondsFor(k, iterations));
  }
  return probe;
}

}  // namespace loopbench
