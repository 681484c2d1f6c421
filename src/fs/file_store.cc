#include "src/fs/file_store.h"

#include "src/common/check.h"
#include "src/common/path.h"

namespace leases {
namespace {

using ::leases::SplitAbsPath;

// A name some path can reach: SplitAbsPath yields only non-empty
// components with no '/'.
bool ReachableName(std::string_view name) {
  return !name.empty() && name.find('/') == std::string_view::npos;
}

}  // namespace

FileStore::FileStore() {
  root_ = ids_.Next();
  FileRecord rec;
  rec.id = root_;
  rec.file_class = FileClass::kDirectory;
  rec.data = EncodeDirectory({});
  rec.cover = PrivateKey(root_);
  rec.name.push_back('/');  // (avoids a gcc-12 -Wrestrict false positive)
  Insert(std::move(rec));
}

void FileStore::Insert(FileRecord rec) {
  const size_t index = rec.id.value();
  while (index >= slot_count()) {
    slabs_.push_back(std::make_unique<FileRecord[]>(kSlabRecords));
  }
  FileRecord& slot = slabs_[index / kSlabRecords][index % kSlabRecords];
  LEASES_CHECK(!slot.id.valid());
  slot = std::move(rec);
  ++file_count_;
}

void FileStore::Drop(FileId file) {
  FileRecord* rec = MutableRecord(file);
  if (rec == nullptr) {
    return;
  }
  *rec = FileRecord();
  --file_count_;
}

FileRecord* FileStore::MutableDirectory(FileId dir) {
  FileRecord* rec = MutableRecord(dir);
  return rec != nullptr && rec->file_class == FileClass::kDirectory ? rec
                                                                    : nullptr;
}

void FileStore::Mirror(FileId file) const {
  if (mirror_) {
    mirror_(file, Find(file));
  }
}

void FileStore::Adopt(const FileRecord& rec) {
  FileRecord* held = MutableRecord(rec.id);
  if (held == nullptr) {
    Insert(rec);
    return;
  }
  *held = rec;
}

FileStore::DirMatch FileStore::FindName(const FileRecord& dir,
                                        std::string_view name) {
  DirWalker walk(dir.data);
  std::optional<DirEntryView> entry = walk.Find(name);
  LEASES_CHECK(walk.ok());  // the store never persists bad bytes
  return DirMatch{entry, walk.offset()};
}

bool FileStore::CanWrite(const FileRecord& rec, NodeId who) const {
  return !who.valid() || who == rec.owner || (rec.mode & kModeWrite) != 0;
}

Result<FileId> FileStore::Create(FileId dir, const std::string& name,
                                 FileClass cls, std::vector<uint8_t> data,
                                 uint32_t mode, NodeId who) {
  if (!ReachableName(name)) {
    return Error{ErrorCode::kInvalidArgument, "bad name: " + name};
  }
  FileRecord* parent = MutableDirectory(dir);
  if (parent == nullptr) {
    return Error{ErrorCode::kNotFound, "no such directory"};
  }
  if (!CanWrite(*parent, who)) {
    return Error{ErrorCode::kPermissionDenied, "directory not writable"};
  }
  DirMatch match = FindName(*parent, name);
  if (match.entry.has_value()) {
    return Error{ErrorCode::kConflict, "name exists: " + name};
  }

  FileId id = ids_.Next();
  FileRecord rec;
  rec.id = id;
  rec.file_class = cls;
  rec.data = cls == FileClass::kDirectory ? EncodeDirectory({}) : std::move(data);
  rec.mode = mode;
  rec.owner = who;
  rec.parent = dir;
  rec.cover = PrivateKey(id);
  rec.name = name;
  Insert(std::move(rec));

  AppendDirEntry(parent->data, match.end, name, id, mode, cls);
  parent->version++;
  Mirror(id);
  Mirror(dir);
  return id;
}

Result<FileId> FileStore::Mkdir(FileId dir, const std::string& name,
                                NodeId who) {
  return Create(dir, name, FileClass::kDirectory, {}, kModeRead | kModeWrite,
                who);
}

Result<FileId> FileStore::CreatePath(const std::string& path, FileClass cls,
                                     std::vector<uint8_t> data, uint32_t mode,
                                     NodeId who) {
  auto parts = SplitAbsPath(path);
  if (!parts.has_value() || parts->empty()) {
    return Error{ErrorCode::kInvalidArgument, "bad path: " + path};
  }
  FileId dir = root_;
  for (size_t i = 0; i + 1 < parts->size(); ++i) {
    Result<FileId> next = Lookup(dir, (*parts)[i]);
    if (next.ok()) {
      dir = *next;
      const FileRecord* rec = Find(dir);
      if (rec == nullptr || rec->file_class != FileClass::kDirectory) {
        return Error{ErrorCode::kInvalidArgument,
                     "path component is not a directory: " + (*parts)[i]};
      }
    } else {
      Result<FileId> made = Mkdir(dir, (*parts)[i], who);
      if (!made.ok()) {
        return made;
      }
      dir = *made;
    }
  }
  return Create(dir, parts->back(), cls, std::move(data), mode, who);
}

Status FileStore::Rename(FileId dir, const std::string& from,
                         const std::string& to, NodeId who) {
  if (!ReachableName(to)) {
    return Status(ErrorCode::kInvalidArgument, "bad name: " + to);
  }
  FileRecord* parent = MutableDirectory(dir);
  if (parent == nullptr) {
    return Status(ErrorCode::kNotFound, "no such directory");
  }
  if (!CanWrite(*parent, who)) {
    return Status(ErrorCode::kPermissionDenied, "directory not writable");
  }
  if (FindName(*parent, to).entry.has_value()) {
    return Status(ErrorCode::kConflict, "target name exists: " + to);
  }
  DirMatch match = FindName(*parent, from);
  if (!match.entry.has_value()) {
    return Status(ErrorCode::kNotFound, "no such name: " + from);
  }
  FileId file = match.entry->file;
  FileRecord* rec = MutableRecord(file);
  if (rec == nullptr) {
    return Status(ErrorCode::kNotFound, "dangling entry: " + from);
  }
  rec->name = to;
  RenameDirEntry(parent->data, match.end, *match.entry, to);
  parent->version++;
  Mirror(file);
  Mirror(dir);
  return Status::Ok();
}

Status FileStore::Remove(FileId dir, const std::string& name, NodeId who) {
  FileRecord* parent = MutableDirectory(dir);
  if (parent == nullptr) {
    return Status(ErrorCode::kNotFound, "no such directory");
  }
  if (!CanWrite(*parent, who)) {
    return Status(ErrorCode::kPermissionDenied, "directory not writable");
  }
  DirMatch match = FindName(*parent, name);
  if (!match.entry.has_value()) {
    return Status(ErrorCode::kNotFound, "no such name: " + name);
  }
  FileId victim = match.entry->file;
  const FileRecord* rec = Find(victim);
  if (rec == nullptr) {
    return Status(ErrorCode::kNotFound, "dangling entry: " + name);
  }
  if (rec->file_class == FileClass::kDirectory) {
    DirWalker contents(rec->data);
    LEASES_CHECK(contents.Finish());
    if (contents.count() != 0) {
      return Status(ErrorCode::kConflict, "directory not empty");
    }
  }
  Drop(victim);
  EraseDirEntry(parent->data, match.end, *match.entry);
  parent->version++;
  Mirror(victim);  // record gone: mirrors with a null rec
  Mirror(dir);
  return Status::Ok();
}

Result<FileId> FileStore::Lookup(FileId dir, const std::string& name) const {
  const FileRecord* rec = Find(dir);
  if (rec == nullptr || rec->file_class != FileClass::kDirectory) {
    return Error{ErrorCode::kNotFound, "no such directory"};
  }
  DirMatch match = FindName(*rec, name);
  if (!match.entry.has_value()) {
    return Error{ErrorCode::kNotFound, "no such name: " + name};
  }
  return match.entry->file;
}

Result<FileId> FileStore::Resolve(const std::string& path) const {
  auto parts = SplitAbsPath(path);
  if (!parts.has_value()) {
    return Error{ErrorCode::kInvalidArgument, "bad path: " + path};
  }
  FileId cur = root_;
  for (const std::string& part : *parts) {
    Result<FileId> next = Lookup(cur, part);
    if (!next.ok()) {
      return next;
    }
    cur = *next;
  }
  return cur;
}

Status FileStore::CheckWrite(FileId file, NodeId who) const {
  const FileRecord* rec = Find(file);
  if (rec == nullptr) {
    return Status(ErrorCode::kNotFound, "no such file");
  }
  if (!CanWrite(*rec, who)) {
    return Status(ErrorCode::kPermissionDenied, "file not writable");
  }
  return Status::Ok();
}

Result<uint64_t> FileStore::Apply(FileId file, SharedBytes data,
                                  NodeId who) {
  FileRecord* found = MutableRecord(file);
  if (found == nullptr) {
    return Error{ErrorCode::kNotFound, "no such file"};
  }
  FileRecord& rec = *found;
  if (!CanWrite(rec, who)) {
    return Error{ErrorCode::kPermissionDenied, "file not writable"};
  }
  if (rec.file_class == FileClass::kDirectory) {
    // Directory datum writes must stay well-formed; validate before commit.
    if (!DirWalker(data).Finish()) {
      return Error{ErrorCode::kInvalidArgument, "malformed directory datum"};
    }
  }
  rec.data = std::move(data);
  rec.version++;
  Mirror(file);
  return rec.version;
}

Status FileStore::Chmod(FileId file, uint32_t mode, NodeId who) {
  FileRecord* found = MutableRecord(file);
  if (found == nullptr) {
    return Status(ErrorCode::kNotFound, "no such file");
  }
  FileRecord& rec = *found;
  if (who.valid() && who != rec.owner) {
    return Status(ErrorCode::kPermissionDenied, "only the owner may chmod");
  }
  rec.mode = mode;
  rec.version++;
  // The permission record is part of the parent directory datum too.
  if (rec.parent.valid()) {
    FileRecord* parent = MutableRecord(rec.parent);
    LEASES_CHECK(parent != nullptr);
    // A patch that copies the datum leaves the walk on the old bytes, which
    // the other holder keeps alive and whose layout the patch keeps.
    SharedBytes& datum = parent->data;
    DirWalker walk(datum);
    while (walk.Next()) {
      if (walk.entry().file == file) {
        SetDirEntryMode(datum, walk.entry(), mode);
      }
    }
    LEASES_CHECK(walk.ok());
    datum.Edit(walk.offset());
    parent->version++;
    Mirror(rec.parent);
  }
  Mirror(file);
  return Status::Ok();
}

LeaseKey FileStore::CoverOf(FileId file) const {
  const FileRecord* rec = Find(file);
  LEASES_CHECK(rec != nullptr);
  return rec->cover;
}

Status FileStore::CoverDirectory(FileId dir) {
  const FileRecord* directory = MutableDirectory(dir);
  if (directory == nullptr) {
    return Status(ErrorCode::kNotFound, "no such directory");
  }
  LeaseKey key = PrivateKey(dir);
  // Checked before anything is re-covered, so a dangling entry changes
  // nothing.
  std::optional<DirEntryView> dangling;
  DirWalker check(directory->data);
  while (check.Next()) {
    if (!dangling.has_value() && Find(check.entry().file) == nullptr) {
      dangling = check.entry();
    }
  }
  LEASES_CHECK(check.ok());  // the store never persists bad bytes
  if (dangling.has_value()) {
    return Status(ErrorCode::kNotFound,
                  "dangling entry: " + std::string(dangling->name));
  }
  DirWalker walk(directory->data);
  while (walk.Next()) {
    FileRecord& rec = *MutableRecord(walk.entry().file);
    if (rec.file_class != FileClass::kInstalled) {
      continue;
    }
    if (rec.cover == key) {
      continue;
    }
    rec.cover = key;
    Mirror(walk.entry().file);
  }
  return Status::Ok();
}

std::vector<FileId> FileStore::FilesCovered(LeaseKey key) const {
  std::vector<FileId> files;
  ForEachRecord([&](const FileRecord& rec) {
    if (rec.cover == key) {
      files.push_back(rec.id);
    }
  });
  return files;
}

std::vector<FileId> FileStore::AllFiles() const {
  std::vector<FileId> out;
  out.reserve(file_count_);
  ForEachRecord([&](const FileRecord& rec) { out.push_back(rec.id); });
  return out;
}

size_t FileStore::ApproxBytes() const {
  size_t total = 0;
  ForEachRecord([&](const FileRecord& rec) {
    total += sizeof(FileRecord) + rec.data.size() + rec.name.size();
  });
  return total;
}

}  // namespace leases
