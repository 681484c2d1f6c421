// Output check for the loopback benchmark.
//
// Every block the benchmark writes names its writer and a per-writer
// sequence number, followed by a fill pattern derived from both, so a read's
// bytes identify exactly which write produced them. The checker records the
// version each write was acknowledged at and flags a read as stale when it
//   * returns a version older than the newest write acknowledged before the
//     read was issued, or
//   * returns bytes whose pattern is damaged, or that are not the bytes of
//     the write acknowledged at the returned version.
// A read of a version whose write was never acknowledged (its ack is still
// in flight when the run ends) is counted as unverified, not as stale.
#ifndef LOOPBENCH_CHECKER_H_
#define LOOPBENCH_CHECKER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace loopbench {

// Writer ids occupy the top 24 bits of a stamp, sequence numbers the rest.
inline uint64_t MakeStamp(uint32_t writer, uint64_t seq) {
  return (static_cast<uint64_t>(writer) << 40) | (seq & ((1ULL << 40) - 1));
}

// A `size`-byte block (size >= 16) carrying `stamp`.
std::vector<uint8_t> MakeBlock(size_t size, uint64_t stamp);
// The stamp a block carries; false when its pattern does not verify.
bool ParseBlock(std::span<const uint8_t> block, uint64_t* stamp);

class Checker {
 public:
  explicit Checker(size_t files);

  // The contents a file was created with (version 1).
  void Seed(size_t file, uint64_t stamp) { Acked(file, 1, stamp); }
  // Newest version acknowledged so far; read it when issuing a read.
  uint64_t Floor(size_t file) const {
    return files_[file].newest.load(std::memory_order_acquire);
  }
  void Acked(size_t file, uint64_t version, uint64_t stamp);
  void CheckRead(size_t file, uint64_t floor, uint64_t version,
                 std::span<const uint8_t> data);
  // Resolves reads whose version was acknowledged after they returned.
  void Finish();

  uint64_t checked() const { return checked_.load(); }
  uint64_t stale() const { return stale_.load(); }
  uint64_t unverified() const { return unverified_; }

 private:
  struct FileLog {
    std::mutex mu;
    std::vector<uint64_t> stamp_at;  // indexed by version; 0 = unknown
    std::atomic<uint64_t> newest{0};
  };
  struct Deferred {
    size_t file;
    uint64_t version;
    uint64_t stamp;
  };

  std::unique_ptr<FileLog[]> files_;
  std::mutex deferred_mu_;
  std::vector<Deferred> deferred_;
  std::atomic<uint64_t> checked_{0};
  std::atomic<uint64_t> stale_{0};
  uint64_t unverified_ = 0;
};

}  // namespace loopbench

#endif  // LOOPBENCH_CHECKER_H_
