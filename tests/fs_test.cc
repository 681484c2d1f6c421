// Unit tests for the file-store substrate: namespace operations,
// versioning, permissions, directory data, cover keys and durable metadata.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>

#include "src/fs/file_store.h"

namespace leases {
namespace {

std::vector<uint8_t> B(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(FileStoreTest, RootExistsAndIsEmptyDirectory) {
  FileStore store;
  const FileRecord* root = store.Find(store.root());
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->file_class, FileClass::kDirectory);
  auto entries = DecodeDirectory(root->data);
  ASSERT_TRUE(entries.has_value());
  EXPECT_TRUE(entries->empty());
}

TEST(FileStoreTest, CreateAndLookup) {
  FileStore store;
  Result<FileId> file = store.Create(store.root(), "hello",
                                     FileClass::kNormal, B("hi"),
                                     kModeRead | kModeWrite, NodeId());
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(*store.Lookup(store.root(), "hello"), *file);
  EXPECT_EQ(store.Find(*file)->version, 1u);
  EXPECT_EQ(store.Find(*file)->name, "hello");
  // Duplicate names are rejected.
  EXPECT_EQ(store.Create(store.root(), "hello", FileClass::kNormal, {},
                         kModeRead, NodeId())
                .code(),
            ErrorCode::kConflict);
}

TEST(FileStoreTest, CreateBumpsDirectoryVersion) {
  FileStore store;
  uint64_t v0 = store.Find(store.root())->version;
  ASSERT_TRUE(store.Create(store.root(), "a", FileClass::kNormal, {},
                           kModeRead, NodeId())
                  .ok());
  EXPECT_EQ(store.Find(store.root())->version, v0 + 1);
}

TEST(FileStoreTest, CreatePathMakesIntermediateDirectories) {
  FileStore store;
  Result<FileId> file = store.CreatePath("/a/b/c/file", FileClass::kNormal,
                                         B("x"));
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(*store.Resolve("/a/b/c/file"), *file);
  EXPECT_EQ(store.Find(*store.Resolve("/a/b"))->file_class,
            FileClass::kDirectory);
  EXPECT_FALSE(store.Resolve("/a/b/missing").ok());
  EXPECT_FALSE(store.CreatePath("bad", FileClass::kNormal, {}).ok());
}

TEST(FileStoreTest, ApplyIncrementsVersionAndReplacesData) {
  FileStore store;
  FileId file = *store.CreatePath("/f", FileClass::kNormal, B("v1"));
  Result<uint64_t> v2 = store.Apply(file, B("v2"), NodeId());
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2u);
  EXPECT_EQ(store.Find(file)->data, B("v2"));
  EXPECT_FALSE(store.Apply(FileId(999), B("x"), NodeId()).ok());
}

TEST(FileStoreTest, PermissionsEnforcedWithOwnerOverride) {
  FileStore store;
  NodeId owner(7);
  NodeId other(8);
  FileId file = *store.CreatePath("/private", FileClass::kNormal, B("x"),
                                  /*mode=*/0, owner);
  EXPECT_FALSE(FileStore::CanRead(*store.Find(file), other));
  EXPECT_TRUE(FileStore::CanRead(*store.Find(file), owner));
  EXPECT_EQ(store.Apply(file, B("y"), other).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_TRUE(store.Apply(file, B("y"), owner).ok());
  EXPECT_EQ(store.CheckWrite(file, other).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_TRUE(store.CheckWrite(file, owner).ok());
}

TEST(FileStoreTest, ChmodUpdatesFileAndParentBinding) {
  FileStore store;
  NodeId owner(7);
  FileId file = *store.CreatePath("/doc", FileClass::kNormal, B("x"),
                                  kModeRead | kModeWrite, owner);
  EXPECT_EQ(store.Chmod(file, kModeRead, NodeId(9)).code(),
            ErrorCode::kPermissionDenied);
  ASSERT_TRUE(store.Chmod(file, kModeRead, owner).ok());
  EXPECT_EQ(store.Find(file)->mode, kModeRead);
  // The permission record in the directory datum changed too (it is cached
  // by clients under a lease).
  auto entries = DecodeDirectory(store.Find(store.root())->data);
  ASSERT_TRUE(entries.has_value());
  EXPECT_EQ(FindEntry(*entries, "doc")->mode, kModeRead);
  // Writes now rejected for non-owners.
  EXPECT_EQ(store.Apply(file, B("y"), NodeId(9)).code(),
            ErrorCode::kPermissionDenied);
}

TEST(FileStoreTest, RenameKeepsIdAndBumpsDirVersion) {
  FileStore store;
  FileId file = *store.CreatePath("/old", FileClass::kNormal, B("x"));
  uint64_t dir_version = store.Find(store.root())->version;
  ASSERT_TRUE(store.Rename(store.root(), "old", "new", NodeId()).ok());
  EXPECT_EQ(*store.Resolve("/new"), file);
  EXPECT_FALSE(store.Resolve("/old").ok());
  EXPECT_EQ(store.Find(store.root())->version, dir_version + 1);
  EXPECT_EQ(store.Find(file)->name, "new");
  // Rename onto an existing name fails.
  ASSERT_TRUE(store.CreatePath("/other", FileClass::kNormal, B("y")).ok());
  EXPECT_EQ(store.Rename(store.root(), "new", "other", NodeId()).code(),
            ErrorCode::kConflict);
}

TEST(FileStoreTest, RemoveSemantics) {
  FileStore store;
  ASSERT_TRUE(store.CreatePath("/dir/inner", FileClass::kNormal, B("x")).ok());
  FileId dir = *store.Resolve("/dir");
  // Non-empty directories cannot be removed.
  EXPECT_EQ(store.Remove(store.root(), "dir", NodeId()).code(),
            ErrorCode::kConflict);
  ASSERT_TRUE(store.Remove(dir, "inner", NodeId()).ok());
  ASSERT_TRUE(store.Remove(store.root(), "dir", NodeId()).ok());
  EXPECT_FALSE(store.Resolve("/dir").ok());
  EXPECT_EQ(store.Remove(store.root(), "dir", NodeId()).code(),
            ErrorCode::kNotFound);
}

TEST(FileStoreTest, DirectoryDatumWritesAreValidated) {
  FileStore store;
  FileId dir = *store.Mkdir(store.root(), "d", NodeId());
  // Garbage bytes must not be committable as a directory datum.
  EXPECT_EQ(store.Apply(dir, B("not a directory"), NodeId()).code(),
            ErrorCode::kInvalidArgument);
  // A well-formed table is accepted.
  std::vector<DirEntry> entries = {{"x", FileId(42), kModeRead,
                                    FileClass::kNormal}};
  EXPECT_TRUE(store.Apply(dir, EncodeDirectory(entries), NodeId()).ok());
}

TEST(FileStoreTest, CoverKeysDefaultPrivateThenDirectoryGrouped) {
  FileStore store;
  FileId a = *store.CreatePath("/bin/a", FileClass::kInstalled, B("a"));
  FileId b = *store.CreatePath("/bin/b", FileClass::kInstalled, B("b"));
  FileId c = *store.CreatePath("/bin/c", FileClass::kNormal, B("c"));
  EXPECT_NE(store.CoverOf(a), store.CoverOf(b));

  FileId bin = *store.Resolve("/bin");
  ASSERT_TRUE(store.CoverDirectory(bin).ok());
  // Installed files share the directory's key; the normal file keeps its
  // own.
  EXPECT_EQ(store.CoverOf(a), store.CoverOf(bin));
  EXPECT_EQ(store.CoverOf(b), store.CoverOf(bin));
  EXPECT_NE(store.CoverOf(c), store.CoverOf(bin));
  std::vector<FileId> covered = store.FilesCovered(store.CoverOf(bin));
  EXPECT_EQ(covered.size(), 3u);  // dir datum + 2 installed files
  // Idempotent.
  ASSERT_TRUE(store.CoverDirectory(bin).ok());
  EXPECT_EQ(store.FilesCovered(store.CoverOf(bin)).size(), 3u);
}

TEST(FileStoreTest, DirCodecRoundTripAndMalformed) {
  std::vector<DirEntry> entries = {
      {"alpha", FileId(1), kModeRead | kModeWrite, FileClass::kNormal},
      {"beta", FileId(2), kModeRead, FileClass::kInstalled},
      {"gamma", FileId(3), 0, FileClass::kDirectory},
  };
  std::vector<uint8_t> bytes = EncodeDirectory(entries);
  auto decoded = DecodeDirectory(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, entries);
  EXPECT_EQ(FindEntry(*decoded, "beta")->file, FileId(2));
  EXPECT_EQ(FindEntry(*decoded, "missing"), nullptr);

  bytes.resize(bytes.size() - 3);
  EXPECT_FALSE(DecodeDirectory(bytes).has_value());
}

TEST(FileStoreTest, AllFilesAndApproxBytes) {
  FileStore store;
  ASSERT_TRUE(store.CreatePath("/a", FileClass::kNormal,
                               std::vector<uint8_t>(1000, 1))
                  .ok());
  EXPECT_EQ(store.file_count(), 2u);  // root + /a
  EXPECT_EQ(store.AllFiles().size(), 2u);
  EXPECT_GT(store.ApproxBytes(), 1000u);
}

// Writes a directory datum that also names `ghost`, an id the store does
// not hold. Apply accepts it (a partition store holds only its own
// records, so it cannot check the ids a directory names).
void AddDanglingEntry(FileStore& store, FileId dir, FileId ghost) {
  std::vector<DirEntry> entries = *DecodeDirectory(store.Find(dir)->data);
  entries.push_back({"ghost", ghost, kModeRead, FileClass::kInstalled});
  ASSERT_TRUE(store.Apply(dir, EncodeDirectory(entries), NodeId()).ok());
}

TEST(FileStoreTest, RemoveOfADanglingEntryFails) {
  FileStore store;
  FileId dir = *store.Mkdir(store.root(), "d", NodeId());
  AddDanglingEntry(store, dir, FileId(999));
  uint64_t version = store.Find(dir)->version;
  EXPECT_EQ(store.Remove(dir, "ghost", NodeId()).code(), ErrorCode::kNotFound);
  EXPECT_EQ(store.Find(dir)->version, version);
}

TEST(FileStoreTest, RenameOfADanglingEntryFails) {
  FileStore store;
  FileId dir = *store.Mkdir(store.root(), "d", NodeId());
  AddDanglingEntry(store, dir, FileId(999));
  uint64_t version = store.Find(dir)->version;
  EXPECT_EQ(store.Rename(dir, "ghost", "spirit", NodeId()).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(store.Find(dir)->version, version);
  EXPECT_EQ(*store.Lookup(dir, "ghost"), FileId(999));
}

TEST(FileStoreTest, CoverDirectoryWithADanglingEntryFailsAndChangesNothing) {
  FileStore store;
  FileId inst = *store.CreatePath("/bin/tool", FileClass::kInstalled, B("t"));
  FileId bin = *store.Resolve("/bin");
  AddDanglingEntry(store, bin, FileId(999));
  LeaseKey before = store.CoverOf(inst);
  EXPECT_EQ(store.CoverDirectory(bin).code(), ErrorCode::kNotFound);
  EXPECT_EQ(store.CoverOf(inst), before);
  EXPECT_EQ(store.FilesCovered(store.CoverOf(bin)).size(), 1u);  // bin only
}

TEST(FileStoreTest, FindOfAnIdNotHeldIsNull) {
  FileStore store;
  FileId gone = *store.CreatePath("/gone", FileClass::kNormal, B("g"));
  ASSERT_TRUE(store.Remove(store.root(), "gone", NodeId()).ok());
  size_t bytes = store.ApproxBytes();
  EXPECT_EQ(store.Find(gone), nullptr);
  EXPECT_EQ(store.Find(FileId()), nullptr);
  EXPECT_EQ(store.Find(FileId(gone.value() + 1)), nullptr);  // unseen
  EXPECT_EQ(store.Find(FileId(uint64_t{1} << 40)), nullptr);
  EXPECT_EQ(store.Find(FileId(~uint64_t{0})), nullptr);
  EXPECT_EQ(store.file_count(), 1u);
  EXPECT_EQ(store.ApproxBytes(), bytes);
  EXPECT_EQ(store.CheckWrite(gone, NodeId()).code(), ErrorCode::kNotFound);
  EXPECT_EQ(store.Apply(FileId(uint64_t{1} << 40), B("x"), NodeId()).code(),
            ErrorCode::kNotFound);
}

TEST(FileStoreTest, PartitionAdoptsAndDropsSparseIds) {
  // A shard partition holds every other record of the namespace store,
  // under the namespace store's ids.
  FileStore ns;
  std::vector<FileId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(*ns.CreatePath("/f" + std::to_string(i), FileClass::kNormal,
                                 B(std::to_string(i))));
  }
  FileStore part;
  for (size_t i = 1; i < ids.size(); i += 2) {
    part.Adopt(*ns.Find(ids[i]));
  }
  EXPECT_EQ(part.file_count(), 1u + 4u);  // its own root + 4 adopted
  for (size_t i = 0; i < ids.size(); ++i) {
    const FileRecord* rec = part.Find(ids[i]);
    if (i % 2 == 0) {
      EXPECT_EQ(rec, nullptr) << i;
      continue;
    }
    ASSERT_NE(rec, nullptr) << i;
    EXPECT_EQ(rec->id, ids[i]);
    EXPECT_EQ(rec->data, B(std::to_string(i)));
    EXPECT_EQ(part.CoverOf(ids[i]), ns.CoverOf(ids[i]));
  }
  // A re-adopted record updates in place, keeping its address.
  const FileRecord* held = part.Find(ids[3]);
  ASSERT_TRUE(ns.Apply(ids[3], B("new"), NodeId()).ok());
  part.Adopt(*ns.Find(ids[3]));
  EXPECT_EQ(part.Find(ids[3]), held);
  EXPECT_EQ(held->data, B("new"));

  part.Drop(ids[3]);
  part.Drop(ids[3]);  // dropping twice is harmless
  part.Drop(ids[2]);  // never held
  EXPECT_EQ(part.Find(ids[3]), nullptr);
  EXPECT_TRUE(part.FilesCovered(ns.CoverOf(ids[3])).empty());
  EXPECT_EQ(part.file_count(), 4u);
  // Adopting a dropped id again brings it back.
  part.Adopt(*ns.Find(ids[3]));
  EXPECT_EQ(part.FilesCovered(ns.CoverOf(ids[3])),
            std::vector<FileId>{ids[3]});
}

TEST(FileStoreTest, PartitionSharesTheNamespaceBuffer) {
  // Adopt shares the record's bytes: a partition holds no second copy.
  FileStore ns;
  FileId file = *ns.CreatePath("/f", FileClass::kNormal, B("shared"));
  FileStore part;
  part.Adopt(*ns.Find(file));
  EXPECT_EQ(part.Find(file)->data.data(), ns.Find(file)->data.data());
  EXPECT_EQ(ns.Find(file)->data.use_count(), 2);
}

TEST(FileStoreTest, EditsCopyADirectoryDatumAReplyStillHolds) {
  // A reply in flight shares the directory's buffer. Each namespace edit
  // must change a private copy (copy-on-write), leaving the reply's bytes
  // -- the version it names -- as they were.
  FileStore store;
  FileId dir = *store.Mkdir(store.root(), "d", NodeId());
  FileId a = *store.Create(dir, "a", FileClass::kNormal, B("1"), kModeRead,
                           NodeId());
  auto edit_under_a_held_reply = [&](const std::function<bool()>& edit) {
    ReadReply reply;
    reply.version = store.Find(dir)->version;
    reply.data = store.Find(dir)->data;
    const std::vector<uint8_t> sent(reply.data.begin(), reply.data.end());
    ASSERT_TRUE(edit());
    EXPECT_EQ(reply.data, sent);
    EXPECT_EQ(reply.data.use_count(), 1);  // the store moved to a copy
    EXPECT_EQ(store.Find(dir)->version, reply.version + 1);
    EXPECT_FALSE(store.Find(dir)->data == sent);
  };
  FileId b;
  edit_under_a_held_reply([&] {
    Result<FileId> made = store.Create(dir, "b", FileClass::kNormal, B("2"),
                                       kModeRead, NodeId());
    b = made.ok() ? *made : FileId();
    return made.ok();
  });
  edit_under_a_held_reply(
      [&] { return store.Rename(dir, "a", "c", NodeId()).ok(); });
  edit_under_a_held_reply(
      [&] { return store.Chmod(b, kModeRead | kModeWrite, NodeId()).ok(); });
  edit_under_a_held_reply([&] { return store.Remove(dir, "c", NodeId()).ok(); });
  EXPECT_EQ(store.Find(a), nullptr);
  EXPECT_EQ(store.Find(dir)->data,
            EncodeDirectory({{"b", b, kModeRead | kModeWrite,
                              FileClass::kNormal}}));
}

TEST(FileStoreTest, AllFilesComesBackInIdOrder) {
  FileStore ns;
  std::vector<FileId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(*ns.CreatePath("/d" + std::to_string(i % 2) + "/f" +
                                     std::to_string(i),
                                 FileClass::kNormal, B("x")));
  }
  ASSERT_TRUE(ns.Remove(*ns.Resolve("/d0"), "f2", NodeId()).ok());
  std::vector<FileId> all = ns.AllFiles();
  EXPECT_EQ(all.size(), ns.file_count());
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  EXPECT_EQ(std::count(all.begin(), all.end(), ids[2]), 0);

  // Adopted out of order, a partition still lists its records by id.
  FileStore part;
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    if (const FileRecord* rec = ns.Find(*it)) {
      part.Adopt(*rec);
    }
  }
  std::vector<FileId> adopted = part.AllFiles();
  EXPECT_TRUE(std::is_sorted(adopted.begin(), adopted.end()));
  EXPECT_EQ(adopted.size(), 1u + 5u);
}

// Names no path can reach: empty, or holding a '/'.
const char* const kUnreachableNames[] = {"", "x/y", "/", "z/"};

TEST(FileStoreTest, CreateRejectsUnreachableNames) {
  FileStore store;
  SharedBytes datum = store.Find(store.root())->data;
  uint64_t version = store.Find(store.root())->version;
  for (const char* name : kUnreachableNames) {
    EXPECT_EQ(store.Create(store.root(), name, FileClass::kNormal, B("x"),
                           kModeRead, NodeId())
                  .code(),
              ErrorCode::kInvalidArgument)
        << name;
  }
  EXPECT_EQ(store.Find(store.root())->data, datum);
  EXPECT_EQ(store.Find(store.root())->version, version);
  EXPECT_EQ(store.file_count(), 1u);
}

TEST(FileStoreTest, MkdirRejectsUnreachableNames) {
  FileStore store;
  FileId dir = *store.Mkdir(store.root(), "d", NodeId());
  SharedBytes datum = store.Find(dir)->data;
  for (const char* name : kUnreachableNames) {
    EXPECT_EQ(store.Mkdir(dir, name, NodeId()).code(),
              ErrorCode::kInvalidArgument)
        << name;
  }
  EXPECT_EQ(store.Find(dir)->data, datum);
  EXPECT_EQ(store.file_count(), 2u);
}

TEST(FileStoreTest, CreatePathRejectsUnreachableNames) {
  FileStore store;
  for (const char* path : {"/", "//x", "/a//b", "a/b", ""}) {
    EXPECT_EQ(store.CreatePath(path, FileClass::kNormal, B("x")).code(),
              ErrorCode::kInvalidArgument)
        << path;
  }
  EXPECT_EQ(store.file_count(), 1u);  // no intermediate directory either
  EXPECT_EQ(store.Find(store.root())->data, EncodeDirectory({}));
}

TEST(FileStoreTest, RenameRejectsUnreachableNames) {
  FileStore store;
  FileId d = *store.CreatePath("/d", FileClass::kNormal, B("x"));
  SharedBytes datum = store.Find(store.root())->data;
  uint64_t version = store.Find(store.root())->version;
  for (const char* name : kUnreachableNames) {
    EXPECT_EQ(store.Rename(store.root(), "d", name, NodeId()).code(),
              ErrorCode::kInvalidArgument)
        << name;
  }
  EXPECT_EQ(store.Find(store.root())->data, datum);
  EXPECT_EQ(store.Find(store.root())->version, version);
  EXPECT_EQ(*store.Resolve("/d"), d);
  EXPECT_EQ(store.Find(d)->name, "d");
}

TEST(FileStoreTest, LookupFindsTheFirstOfDuplicateNames) {
  FileStore store;
  FileId dir = *store.Mkdir(store.root(), "d", NodeId());
  std::vector<DirEntry> entries = {
      {"twin", FileId(40), kModeRead, FileClass::kNormal},
      {"twin", FileId(41), kModeRead, FileClass::kNormal}};
  ASSERT_TRUE(store.Apply(dir, EncodeDirectory(entries), NodeId()).ok());
  EXPECT_EQ(*store.Lookup(dir, "twin"), FileId(40));
}

// Drives random namespace operations against a reference that runs each
// one the old way: decode the directory datum, edit the entry list and
// re-encode it. After every step each directory's datum bytes and version
// must equal the reference's, so in-place edits keep every digest.
class DirDatumReference {
 public:
  struct Dir {
    std::vector<uint8_t> bytes;
    uint64_t version = 1;
  };

  explicit DirDatumReference(const FileStore& store) {
    const FileRecord& root = *store.Find(store.root());
    dirs_[store.root()] = {{root.data.begin(), root.data.end()},
                           root.version};
  }

  std::vector<DirEntry> Entries(FileId dir) const {
    return *DecodeDirectory(dirs_.at(dir).bytes);
  }
  void Store(FileId dir, const std::vector<DirEntry>& entries) {
    dirs_[dir].bytes = EncodeDirectory(entries);
    dirs_[dir].version++;
  }
  std::map<FileId, Dir>& dirs() { return dirs_; }

  void ExpectMatches(const FileStore& store, int step) const {
    for (const auto& [id, dir] : dirs_) {
      const FileRecord* rec = store.Find(id);
      ASSERT_NE(rec, nullptr) << "step " << step;
      ASSERT_EQ(rec->data, dir.bytes) << "step " << step << " dir " << id.value();
      ASSERT_EQ(rec->version, dir.version) << "step " << step << " dir " << id.value();
    }
  }

 private:
  std::map<FileId, Dir> dirs_;
};

TEST(FileStoreTest, InPlaceDatumEditsMatchDecodeEditEncode) {
  const std::vector<std::string> names = {
      "a", "b", "c", "d", "e", "f", "g", "h",
      std::string(70, 'L'), std::string(300, 'M'), "", "p/q"};
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    auto pick = [&rng](size_t n) {
      return static_cast<size_t>(rng() % n);
    };
    FileStore store;
    DirDatumReference ref(store);
    std::vector<FileId> dirs = {store.root()};
    for (int step = 0; step < 600; ++step) {
      FileId dir = dirs[pick(dirs.size())];
      const std::string& name = names[pick(names.size())];
      std::vector<DirEntry> entries = ref.Entries(dir);
      const DirEntry* existing = FindEntry(entries, name);
      bool reachable = !name.empty() && name.find('/') == std::string::npos;
      switch (pick(7)) {
        case 0:
        case 1: {  // Create or Mkdir
          bool is_dir = pick(3) == 0;
          FileClass cls = is_dir ? FileClass::kDirectory
                                 : (pick(2) == 0 ? FileClass::kInstalled
                                                 : FileClass::kNormal);
          uint32_t mode = is_dir ? kModeRead | kModeWrite
                                 : static_cast<uint32_t>(pick(8));
          Result<FileId> made =
              is_dir ? store.Mkdir(dir, name, NodeId())
                     : store.Create(dir, name, cls, B("x"), mode, NodeId());
          if (!reachable || existing != nullptr) {
            ASSERT_FALSE(made.ok());
            break;
          }
          ASSERT_TRUE(made.ok()) << made.error().ToString();
          entries.push_back({name, *made, mode, cls});
          ref.Store(dir, entries);
          if (is_dir) {
            dirs.push_back(*made);
            ref.dirs()[*made] = {EncodeDirectory({}), 1};
          }
          break;
        }
        case 2: {  // Remove
          Status removed = store.Remove(dir, name, NodeId());
          if (existing == nullptr) {
            ASSERT_EQ(removed.code(), ErrorCode::kNotFound);
            break;
          }
          FileId victim = existing->file;
          bool full = ref.dirs().count(victim) != 0 &&
                      !ref.Entries(victim).empty();
          if (full) {
            ASSERT_EQ(removed.code(), ErrorCode::kConflict);
            break;
          }
          ASSERT_TRUE(removed.ok()) << removed.ToString();
          entries.erase(entries.begin() + (existing - entries.data()));
          ref.Store(dir, entries);
          ref.dirs().erase(victim);
          dirs.erase(std::remove(dirs.begin(), dirs.end(), victim),
                     dirs.end());
          break;
        }
        case 3: {  // Rename an existing entry to `name`
          if (entries.empty()) {
            break;
          }
          DirEntry& from = entries[pick(entries.size())];
          std::string from_name = from.name;
          Status renamed = store.Rename(dir, from_name, name, NodeId());
          if (!reachable) {
            ASSERT_EQ(renamed.code(), ErrorCode::kInvalidArgument);
            break;
          }
          if (existing != nullptr) {
            ASSERT_EQ(renamed.code(), ErrorCode::kConflict);
            break;
          }
          ASSERT_TRUE(renamed.ok()) << renamed.ToString();
          for (DirEntry& e : entries) {
            if (e.name == from_name) {
              e.name = name;
              break;
            }
          }
          ref.Store(dir, entries);
          break;
        }
        case 4: {  // Chmod an entry of this directory
          if (entries.empty()) {
            break;
          }
          FileId file = entries[pick(entries.size())].file;
          uint32_t mode = static_cast<uint32_t>(pick(8));
          ASSERT_TRUE(store.Chmod(file, mode, NodeId()).ok());
          for (DirEntry& e : entries) {
            if (e.file == file) {
              e.mode = mode;
            }
          }
          ref.Store(dir, entries);
          if (ref.dirs().count(file) != 0) {
            ref.dirs()[file].version++;  // a chmod is a write to the file
          }
          break;
        }
        case 5: {  // CoverDirectory: no datum changes
          ASSERT_TRUE(store.CoverDirectory(dir).ok());
          for (const DirEntry& e : entries) {
            if (e.file_class == FileClass::kInstalled) {
              EXPECT_EQ(store.CoverOf(e.file), store.CoverOf(dir));
            }
          }
          break;
        }
        case 6: {  // Apply the same entries with ignored trailing bytes
          std::vector<uint8_t> bytes = EncodeDirectory(entries);
          size_t tail = 1 + pick(12);
          for (size_t i = 0; i < tail; ++i) {
            bytes.push_back(static_cast<uint8_t>(rng()));
          }
          ASSERT_TRUE(store.Apply(dir, SharedBytes(bytes), NodeId()).ok());
          ref.dirs()[dir].bytes = bytes;
          ref.dirs()[dir].version++;
          break;
        }
      }
      ref.ExpectMatches(store, step);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

TEST(FileStoreTest, FilesCoveredListsCoveredFilesInIdOrder) {
  FileStore store;
  FileId a = *store.CreatePath("/bin/a", FileClass::kInstalled, B("a"));
  FileId b = *store.CreatePath("/bin/b", FileClass::kInstalled, B("b"));
  FileId bin = *store.Resolve("/bin");
  EXPECT_EQ(store.FilesCovered(store.CoverOf(a)), std::vector<FileId>{a});
  ASSERT_TRUE(store.CoverDirectory(bin).ok());
  EXPECT_EQ(store.FilesCovered(store.CoverOf(bin)),
            (std::vector<FileId>{bin, a, b}));
  ASSERT_TRUE(store.Remove(bin, "a", NodeId()).ok());
  EXPECT_EQ(store.FilesCovered(store.CoverOf(bin)),
            (std::vector<FileId>{bin, b}));
  EXPECT_TRUE(store.FilesCovered(LeaseKey(999)).empty());
}

TEST(DurableMetaTest, SaveLoadAndWriteAccounting) {
  DurableMeta meta;
  EXPECT_FALSE(meta.Load("max_term_us").has_value());
  meta.Save("max_term_us", 10000000);
  meta.CountWrite();
  EXPECT_EQ(*meta.Load("max_term_us"), 10000000);
  EXPECT_EQ(meta.write_count(), 1u);
  meta.Save("max_term_us", 30000000);
  meta.CountWrite();
  EXPECT_EQ(*meta.Load("max_term_us"), 30000000);
}

}  // namespace
}  // namespace leases
