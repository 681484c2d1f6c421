// Server-side file store.
//
// The primary storage site of every datum. The store is *durable*: because
// the caches are write-through, a write that has returned from Apply() is
// committed and survives a server crash (Section 2: "no write that has been
// made visible to any client can be lost"; Section 5 assumes "writes are
// persistent at the server across a crash"). Volatile lease state lives in
// LeaseServer, not here.
//
// Files carry a version number that increments on every committed write;
// caches compare versions to decide whether an extension needs a data
// refresh. Directories are ordinary data whose bytes are the encoded binding
// table (see dir_codec.h), so naming and permission information is cached
// and leased exactly like file contents.
//
// Cover keys: each datum is covered by a LeaseKey. By default the key is
// private to the file (1:1). The installed-file optimization of Section 4
// assigns one key per directory of installed files ("a smaller number of
// leases to cover these files, such as one per major directory"), which is
// what lets the server extend them all with a single periodic multicast.
#ifndef SRC_FS_FILE_STORE_H_
#define SRC_FS_FILE_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/ids.h"
#include "src/common/result.h"
#include "src/common/shared_bytes.h"
#include "src/fs/dir_codec.h"
#include "src/fs/storage.h"
#include "src/proto/messages.h"

namespace leases {

struct FileRecord {
  FileId id;
  FileClass file_class = FileClass::kNormal;
  uint64_t version = 1;
  // Shared with every reply, cache entry and partition that holds this
  // version; namespace edits go through SharedBytes::Mutable, so a holder
  // never sees a later edit.
  SharedBytes data;
  uint32_t mode = kModeRead | kModeWrite;
  NodeId owner;
  FileId parent;    // containing directory; invalid for the root
  LeaseKey cover;   // lease cover key
  std::string name;  // name within parent (diagnostics and rename support)
};

class FileStore {
 public:
  FileStore();
  FileStore(const FileStore&) = delete;
  FileStore& operator=(const FileStore&) = delete;

  FileId root() const { return root_; }

  // --- Namespace operations (each is a write to the directory datum) ---

  Result<FileId> Create(FileId dir, const std::string& name, FileClass cls,
                        std::vector<uint8_t> data, uint32_t mode, NodeId who);
  // Creates every missing intermediate directory. Path is '/'-separated and
  // absolute ("/bin/latex").
  Result<FileId> CreatePath(const std::string& path, FileClass cls,
                            std::vector<uint8_t> data,
                            uint32_t mode = kModeRead | kModeWrite,
                            NodeId who = NodeId());
  Result<FileId> Mkdir(FileId dir, const std::string& name, NodeId who);
  Status Rename(FileId dir, const std::string& from, const std::string& to,
                NodeId who);
  Status Remove(FileId dir, const std::string& name, NodeId who);

  Result<FileId> Lookup(FileId dir, const std::string& name) const;
  Result<FileId> Resolve(const std::string& path) const;

  // --- Data operations ---

  // Null for an id the store does not hold. Records keep their addresses
  // until removed, so a pointer stays valid across further store calls.
  const FileRecord* Find(FileId file) const {
    return file.value() < records_.size() ? records_[file.value()].get()
                                          : nullptr;
  }
  // Whether `who` may read `rec`; the owner always may.
  static bool CanRead(const FileRecord& rec, NodeId who) {
    return !who.valid() || who == rec.owner || (rec.mode & kModeRead) != 0;
  }
  // Early validation of a write before the approval protocol runs (the
  // commit itself re-checks).
  Status CheckWrite(FileId file, NodeId who) const;
  // Commits new contents; returns the new version. This is the single commit
  // point of the system: LeaseServer calls it only after the write-approval
  // protocol has run.
  Result<uint64_t> Apply(FileId file, SharedBytes data, NodeId who);
  Status Chmod(FileId file, uint32_t mode, NodeId who);

  // --- Cover keys ---

  LeaseKey CoverOf(FileId file) const;
  // Re-covers every current *installed* file directly inside `dir` (and the
  // directory datum itself) with the directory's key.
  Status CoverDirectory(FileId dir);
  // Every file covered by `key`, in id order. A scan of every record: only
  // tests ask.
  std::vector<FileId> FilesCovered(LeaseKey key) const;

  size_t file_count() const { return file_count_; }
  // Deterministic iteration order (by id) for tests and snapshots.
  std::vector<FileId> AllFiles() const;

  // --- Shard partitioning (sharded grant plane) ---
  //
  // A sharded server keeps one FileStore per shard, holding exactly the
  // records whose FileId hashes to it. Namespace mutations still run against
  // a single namespace store (the id allocator and directory data live
  // there); the mirror hook replicates each touched record into the owning
  // shard's partition via Adopt/Drop. Protocol data writes then commit in
  // the shard partitions only.

  // Invoked after every namespace/data mutation with the touched FileId;
  // `rec` is null when the file was removed. Replaces any previous hook.
  using MirrorHook = std::function<void(FileId, const FileRecord* rec)>;
  void SetMirror(MirrorHook hook) { mirror_ = std::move(hook); }

  // Upserts a record copied from the namespace store, sharing its data
  // buffer; ids_ never runs on partition stores, so records keep the
  // globally-unique ids the namespace store assigned.
  void Adopt(const FileRecord& rec);
  // Removes a record with no directory bookkeeping (for a mirrored record,
  // the namespace store already did it).
  void Drop(FileId file);

  // Total bytes a full snapshot of committed state would occupy; used by the
  // storage-overhead accounting tests.
  size_t ApproxBytes() const;

 private:
  FileRecord* MutableRecord(FileId file) {
    return file.value() < records_.size() ? records_[file.value()].get()
                                          : nullptr;
  }
  // Inserts `rec` under its id, growing the table to reach it.
  void Insert(FileRecord rec);
  // Finds the directory record `dir`, or null if it is not one.
  FileRecord* MutableDirectory(FileId dir);
  // The first entry named `name` in a directory datum, if any, and the
  // offset where its entries end. Walks the whole datum, checking that it
  // is well formed.
  struct DirMatch {
    std::optional<DirEntryView> entry;
    size_t end = 0;
  };
  static DirMatch FindName(const FileRecord& dir, std::string_view name);
  bool CanWrite(const FileRecord& rec, NodeId who) const;
  void Mirror(FileId file) const;
  static LeaseKey PrivateKey(FileId file) { return LeaseKey(file.value()); }

  IdGenerator<FileId> ids_;
  // Records by id value; null where the store holds no record. Ids are
  // dense (ids_ on the namespace store, whose ids the shard partitions
  // adopt), so the table is as long as the largest id held and a lookup is
  // one index step.
  std::vector<std::unique_ptr<FileRecord>> records_;
  size_t file_count_ = 0;
  FileId root_;
  MirrorHook mirror_;
};

// Durable key-value record: the server's persistent storage for
// lease-recovery metadata. Section 2: the server "remembers the maximum term
// for which it had granted a lease" so that after a crash it can delay
// writes for that period. Keeping only this one number (instead of the whole
// lease table) is the paper's recommended trade-off; the detailed
// persistent-lease-record option stores one entry per outstanding lease.
//
// Default-constructed, the cache IS the store (the original in-memory
// model). Constructed over a StorageBackend (storage.h), every mutation is
// appended to the backend before the cache changes -- durability precedes
// visibility -- and Reopen() rebuilds the cache by replaying whatever
// survived a crash.
class DurableMeta {
 public:
  DurableMeta() = default;
  explicit DurableMeta(StorageBackend* backend) : backend_(backend) {}

  // Recovery: rebuilds the cache from the backend (no-op without one).
  // Replay order equals original append order, so the rebuilt map is
  // exactly the pre-crash map minus any un-acknowledged tail.
  Status Reopen() {
    if (backend_ == nullptr) return Status::Ok();
    kv_.clear();
    return backend_->Replay([this](const MetaRecord& record) {
      if (record.erase) {
        kv_.erase(record.key);
      } else {
        kv_[record.key] = record.value;
      }
    });
  }

  // Folds the journal into one snapshot (atomic on the disk backend).
  Status Compact() {
    if (backend_ == nullptr) return Status::Ok();
    return backend_->Compact(
        std::vector<std::pair<std::string, int64_t>>(kv_.begin(), kv_.end()));
  }

  // Mutations return the backend append's Status: not durable => not
  // visible, the cache does not advance on failure. Callers must not
  // acknowledge state that depends on a failed mutation (e.g. hand out a
  // lease whose recovery record never reached the disk).
  Status Save(const std::string& key, int64_t value) {
    if (backend_ != nullptr) {
      Status appended = backend_->Append({key, value, false});
      if (!appended.ok()) return appended;
    }
    kv_[key] = value;
    return Status::Ok();
  }
  std::optional<int64_t> Load(const std::string& key) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) {
      return std::nullopt;
    }
    return it->second;
  }
  Status Erase(const std::string& key) {
    auto it = kv_.find(key);
    if (it == kv_.end()) return Status::Ok();
    if (backend_ != nullptr) {
      Status appended = backend_->Append({key, 0, true});
      if (!appended.ok()) return appended;
    }
    kv_.erase(it);
    return Status::Ok();
  }
  // Enumerates entries whose key starts with `prefix`, in key order (the
  // detailed persistent-lease-record option reloads its records on restart;
  // sorted output keeps recovery order canonical).
  std::vector<std::pair<std::string, int64_t>> LoadPrefix(
      const std::string& prefix) const {
    std::vector<std::pair<std::string, int64_t>> out;
    for (auto it = kv_.lower_bound(prefix);
         it != kv_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
      out.emplace_back(it->first, it->second);
    }
    return out;
  }
  Status ErasePrefix(const std::string& prefix) {
    auto it = kv_.lower_bound(prefix);
    while (it != kv_.end() &&
           it->first.compare(0, prefix.size(), prefix) == 0) {
      if (backend_ != nullptr) {
        Status appended = backend_->Append({it->first, 0, true});
        if (!appended.ok()) return appended;
      }
      it = kv_.erase(it);
    }
    return Status::Ok();
  }
  // Models the extra I/O a detailed persistent lease record would take; the
  // tests use the write counter to show why the paper rejects that option.
  uint64_t write_count() const { return writes_; }
  void CountWrite() { ++writes_; }

  // Durability counters, null without a backend.
  const StorageStats* storage_stats() const {
    return backend_ != nullptr ? &backend_->stats() : nullptr;
  }
  bool durable() const { return backend_ != nullptr; }

 private:
  StorageBackend* backend_ = nullptr;  // not owned
  std::map<std::string, int64_t> kv_;
  uint64_t writes_ = 0;
};

}  // namespace leases

#endif  // SRC_FS_FILE_STORE_H_
