#include "checker.h"

#include <cstring>

namespace loopbench {
namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr size_t kHeader = 16;  // [u64 stamp][u64 Mix(stamp)]

uint8_t FillByte(uint64_t h, size_t i) {
  return static_cast<uint8_t>((h >> ((i & 7) * 8)) ^ i);
}

}  // namespace

std::vector<uint8_t> MakeBlock(size_t size, uint64_t stamp) {
  std::vector<uint8_t> block(size < kHeader ? kHeader : size);
  uint64_t h = Mix(stamp);
  std::memcpy(block.data(), &stamp, 8);
  std::memcpy(block.data() + 8, &h, 8);
  for (size_t i = kHeader; i < block.size(); ++i) {
    block[i] = FillByte(h, i);
  }
  return block;
}

bool ParseBlock(std::span<const uint8_t> block, uint64_t* stamp) {
  if (block.size() < kHeader) {
    return false;
  }
  uint64_t h = 0;
  std::memcpy(stamp, block.data(), 8);
  std::memcpy(&h, block.data() + 8, 8);
  if (h != Mix(*stamp)) {
    return false;
  }
  for (size_t i = kHeader; i < block.size(); ++i) {
    if (block[i] != FillByte(h, i)) {
      return false;
    }
  }
  return true;
}

Checker::Checker(size_t files)
    : files_(std::make_unique<FileLog[]>(files)) {}

void Checker::Acked(size_t file, uint64_t version, uint64_t stamp) {
  FileLog& log = files_[file];
  std::lock_guard<std::mutex> lock(log.mu);
  if (log.stamp_at.size() <= version) {
    log.stamp_at.resize(version + 1 + version / 2, 0);
  }
  if (log.stamp_at[version] != 0 && log.stamp_at[version] != stamp) {
    stale_.fetch_add(1);  // two writes acknowledged at one version
  }
  log.stamp_at[version] = stamp;
  if (version > log.newest.load(std::memory_order_relaxed)) {
    log.newest.store(version, std::memory_order_release);
  }
}

void Checker::CheckRead(size_t file, uint64_t floor, uint64_t version,
                        std::span<const uint8_t> data) {
  checked_.fetch_add(1, std::memory_order_relaxed);
  uint64_t stamp = 0;
  if (version < floor || !ParseBlock(data, &stamp)) {
    stale_.fetch_add(1);
    return;
  }
  FileLog& log = files_[file];
  {
    std::lock_guard<std::mutex> lock(log.mu);
    if (version < log.stamp_at.size() && log.stamp_at[version] != 0) {
      if (log.stamp_at[version] != stamp) {
        stale_.fetch_add(1);
      }
      return;
    }
  }
  std::lock_guard<std::mutex> lock(deferred_mu_);
  deferred_.push_back({file, version, stamp});
}

void Checker::Finish() {
  std::lock_guard<std::mutex> lock(deferred_mu_);
  for (const Deferred& d : deferred_) {
    FileLog& log = files_[d.file];
    std::lock_guard<std::mutex> file_lock(log.mu);
    if (d.version >= log.stamp_at.size() || log.stamp_at[d.version] == 0) {
      ++unverified_;
    } else if (log.stamp_at[d.version] != d.stamp) {
      stale_.fetch_add(1);
    }
  }
  deferred_.clear();
}

}  // namespace loopbench
