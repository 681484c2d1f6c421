// Directory contents codec.
//
// A directory is itself a datum: its contents are the serialized
// name-to-file binding table, including per-entry permission bits and file
// class. Caching a directory datum under a lease is what lets a client
// perform a repeated open() without contacting the server (Section 2: "the
// cache must also hold the name-to-file binding and permission information,
// and it needs a lease over this information"). Renaming or creating a file
// is a *write* to the directory datum and goes through the normal lease
// write-approval path.
//
// Layout: a u32 entry count, then per entry a u32 name length, the name
// bytes, a u64 file id, a u32 mode and a u8 file class (little-endian,
// src/common/codec.h). Bytes after the last entry are ignored.
//
// The encoded datum is the only representation the store keeps. Namespace
// operations read it with DirWalker and patch it with the in-place edits
// below, so no operation decodes a whole directory into heap strings.
#ifndef SRC_FS_DIR_CODEC_H_
#define SRC_FS_DIR_CODEC_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/ids.h"
#include "src/proto/messages.h"

namespace leases {

// Unix-style permission bits, applied to "everyone"; the owner always has
// full rights.
inline constexpr uint32_t kModeRead = 0x4;
inline constexpr uint32_t kModeWrite = 0x2;

struct DirEntry {
  std::string name;
  FileId file;
  uint32_t mode = kModeRead | kModeWrite;
  FileClass file_class = FileClass::kNormal;

  bool operator==(const DirEntry&) const = default;
};

std::vector<uint8_t> EncodeDirectory(const std::vector<DirEntry>& entries);
std::optional<std::vector<DirEntry>> DecodeDirectory(
    std::span<const uint8_t> bytes);

// Convenience lookup inside decoded contents.
const DirEntry* FindEntry(const std::vector<DirEntry>& entries,
                          const std::string& name);

// Encoded sizes of the fixed fields: the count, an entry's name length, and
// the file id, mode and class that follow its name.
inline constexpr size_t kDirCountBytes = sizeof(uint32_t);
inline constexpr size_t kDirNameLengthBytes = sizeof(uint32_t);
inline constexpr size_t kDirEntryTailBytes =
    sizeof(uint64_t) + sizeof(uint32_t) + 1;

// One entry of an encoded datum, read in place. `name` views the datum's
// bytes, so it is valid only while the datum is unchanged. The entry
// occupies bytes [begin, end): its name length starts at `begin`.
struct DirEntryView {
  std::string_view name;
  FileId file;
  uint32_t mode = 0;
  FileClass file_class = FileClass::kNormal;
  size_t begin = 0;
  size_t end = 0;
};

// Walks an encoded datum entry by entry without allocating. It accepts
// exactly the byte strings DecodeDirectory accepts and yields the same
// entries in the same order:
//
//   DirWalker walk(bytes);
//   while (walk.Next()) { ... walk.entry() ... }
//   if (!walk.ok()) { /* malformed: DecodeDirectory would fail */ }
//
// A caller that needs to know whether the datum is well formed walks it to
// the end even after the entry it wants, since a bad byte may come later.
class DirWalker {
 public:
  explicit DirWalker(std::span<const uint8_t> bytes);

  // Steps to the next entry. False once every entry has been read, or at
  // the first malformed byte, after which ok() is false. Inline: a lookup
  // runs it once per entry of the directory.
  bool Next() {
    if (!ok_ || read_ == count_) {
      return false;
    }
    size_t left = bytes_.size() - pos_;
    if (left < kDirNameLengthBytes) {
      ok_ = false;
      return false;
    }
    const uint8_t* p = bytes_.data() + pos_;
    uint32_t length;
    std::memcpy(&length, p, sizeof(length));
    left -= kDirNameLengthBytes;
    if (length > left || left - length < kDirEntryTailBytes) {
      ok_ = false;
      return false;
    }
    p += kDirNameLengthBytes;
    entry_.begin = pos_;
    entry_.name = std::string_view(reinterpret_cast<const char*>(p), length);
    p += length;
    uint64_t id;
    std::memcpy(&id, p, sizeof(id));
    entry_.file = FileId(id);
    std::memcpy(&entry_.mode, p + sizeof(id), sizeof(entry_.mode));
    entry_.file_class =
        static_cast<FileClass>(p[sizeof(id) + sizeof(entry_.mode)]);
    pos_ += kDirNameLengthBytes + length + kDirEntryTailBytes;
    entry_.end = pos_;
    ++read_;
    return true;
  }
  // Walks the remaining entries; true when the datum is well formed.
  bool Finish();
  // Walks the remaining entries and returns the first one named `name`.
  // Check ok() as well: the datum may be malformed after the match.
  std::optional<DirEntryView> Find(std::string_view name);

  const DirEntryView& entry() const { return entry_; }
  bool ok() const { return ok_; }
  // The datum's entry count; meaningful only while ok().
  uint32_t count() const { return count_; }
  // Offset one past the last entry read; once Finish() returns true, the
  // length of the datum without its ignored trailing bytes.
  size_t offset() const { return pos_; }

 private:
  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
  uint32_t count_ = 0;
  uint32_t read_ = 0;
  bool ok_ = true;
  DirEntryView entry_;
};

// In-place edits of a well-formed datum. Each expects the datum to end at
// its last entry (cut it to DirWalker::offset() first: EncodeDirectory
// never writes trailing bytes) and leaves it byte-identical to
// EncodeDirectory of the edited entry list. `entry` comes from a walk of
// the datum as it is now.
void AppendDirEntry(std::vector<uint8_t>& datum, std::string_view name,
                    FileId file, uint32_t mode, FileClass file_class);
void EraseDirEntry(std::vector<uint8_t>& datum, const DirEntryView& entry);
void RenameDirEntry(std::vector<uint8_t>& datum, const DirEntryView& entry,
                    std::string_view name);
void SetDirEntryMode(std::vector<uint8_t>& datum, const DirEntryView& entry,
                     uint32_t mode);

}  // namespace leases

#endif  // SRC_FS_DIR_CODEC_H_
