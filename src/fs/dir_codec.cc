#include "src/fs/dir_codec.h"

#include <cstring>

#include "src/common/codec.h"

namespace leases {
namespace {

// The mode and class end an entry.
constexpr size_t kModeFromEnd = sizeof(uint32_t) + 1;

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void StoreU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

}  // namespace

std::vector<uint8_t> EncodeDirectory(const std::vector<DirEntry>& entries) {
  std::vector<uint8_t> datum(kDirCountBytes, 0);
  for (const DirEntry& e : entries) {
    AppendDirEntry(datum, e.name, e.file, e.mode, e.file_class);
  }
  return datum;
}

std::optional<std::vector<DirEntry>> DecodeDirectory(
    std::span<const uint8_t> bytes) {
  Reader r(bytes);
  uint32_t n = r.ReadU32();
  if (!r.ok() || n > r.Remaining()) {
    return std::nullopt;
  }
  std::vector<DirEntry> entries;
  entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    DirEntry e;
    e.name = r.ReadString();
    e.file = r.ReadId<FileId>();
    e.mode = r.ReadU32();
    e.file_class = static_cast<FileClass>(r.ReadU8());
    if (!r.ok()) {
      return std::nullopt;
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

const DirEntry* FindEntry(const std::vector<DirEntry>& entries,
                          const std::string& name) {
  for (const DirEntry& e : entries) {
    if (e.name == name) {
      return &e;
    }
  }
  return nullptr;
}

DirWalker::DirWalker(std::span<const uint8_t> bytes) : bytes_(bytes) {
  if (bytes_.size() < kDirCountBytes) {
    ok_ = false;
    return;
  }
  // A count larger than the entries that follow fails at the first missing
  // entry, so it needs no check of its own.
  count_ = LoadU32(bytes_.data());
  pos_ = kDirCountBytes;
}

bool DirWalker::Finish() {
  while (Next()) {
  }
  return ok_;
}

std::optional<DirEntryView> DirWalker::Find(std::string_view name) {
  std::optional<DirEntryView> match;
  while (Next()) {
    if (!match.has_value() && entry_.name == name) {
      match = entry_;
    }
  }
  return match;
}

void AppendDirEntry(std::vector<uint8_t>& datum, std::string_view name,
                    FileId file, uint32_t mode, FileClass file_class) {
  Writer w(&datum);
  w.WriteString(name);
  w.WriteId(file);
  w.WriteU32(mode);
  w.WriteU8(static_cast<uint8_t>(file_class));
  StoreU32(datum.data(), LoadU32(datum.data()) + 1);
}

void EraseDirEntry(std::vector<uint8_t>& datum, const DirEntryView& entry) {
  datum.erase(datum.begin() + static_cast<ptrdiff_t>(entry.begin),
              datum.begin() + static_cast<ptrdiff_t>(entry.end));
  StoreU32(datum.data(), LoadU32(datum.data()) - 1);
}

void RenameDirEntry(std::vector<uint8_t>& datum, const DirEntryView& entry,
                    std::string_view name) {
  auto first = datum.begin() +
               static_cast<ptrdiff_t>(entry.begin + kDirNameLengthBytes);
  first = datum.erase(first, first + static_cast<ptrdiff_t>(entry.name.size()));
  datum.insert(first, name.begin(), name.end());
  StoreU32(datum.data() + entry.begin, static_cast<uint32_t>(name.size()));
}

void SetDirEntryMode(std::vector<uint8_t>& datum, const DirEntryView& entry,
                     uint32_t mode) {
  StoreU32(datum.data() + entry.end - kModeFromEnd, mode);
}

}  // namespace leases
