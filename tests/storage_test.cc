// Unit tests for the durable storage plane (src/fs/storage.h, journal.h):
// CRC framing, the deterministic MemoryBackend, DurableMeta over a backend,
// and the on-disk JournalBackend's reopen repairs (torn tail, corrupt
// record, aborted compaction). Crash-point injection is exercised by the
// matrix in journal_crash_test.cc.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/fs/file_store.h"
#include "src/fs/journal.h"
#include "src/fs/storage.h"

namespace leases {
namespace {

// Fresh scratch directory under CWD, removed on scope exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_("leases_" + tag + "." + std::to_string(::getpid()) + ".tmp") {
    std::filesystem::remove_all(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<MetaRecord> Drain(StorageBackend& backend) {
  std::vector<MetaRecord> out;
  EXPECT_TRUE(
      backend.Replay([&out](const MetaRecord& r) { out.push_back(r); }).ok());
  return out;
}

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

TEST(Crc32Test, KnownVectors) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);  // the classic CRC-32/IEEE check value
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  // Any bit flip must move the checksum.
  std::string flipped = check;
  flipped[4] ^= 0x01;
  EXPECT_NE(Crc32(reinterpret_cast<const uint8_t*>(flipped.data()),
                  flipped.size()),
            0xCBF43926u);
}

TEST(MemoryBackendTest, AppendReplayRoundTrip) {
  MemoryBackend backend;
  ASSERT_TRUE(backend.Append({"a", 1, false}).ok());
  ASSERT_TRUE(backend.Append({"b", 2, false}).ok());
  ASSERT_TRUE(backend.Append({"a", 0, true}).ok());
  std::vector<MetaRecord> records = Drain(backend);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].key, "a");
  EXPECT_EQ(records[2].erase, true);
  EXPECT_EQ(backend.stats().appends, 3u);
  EXPECT_EQ(backend.stats().replays, 1u);
  EXPECT_EQ(backend.stats().replayed_records, 3u);
}

TEST(MemoryBackendTest, CompactReplacesHistory) {
  MemoryBackend backend;
  ASSERT_TRUE(backend.Append({"a", 1, false}).ok());
  ASSERT_TRUE(backend.Append({"a", 2, false}).ok());
  ASSERT_TRUE(backend.Compact({{"a", 2}}).ok());
  ASSERT_TRUE(backend.Append({"b", 3, false}).ok());
  std::vector<MetaRecord> records = Drain(backend);
  ASSERT_EQ(records.size(), 2u);  // snapshot entry + post-compaction append
  EXPECT_EQ(records[0].key, "a");
  EXPECT_EQ(records[0].value, 2);
  EXPECT_EQ(records[1].key, "b");
  EXPECT_EQ(backend.stats().compactions, 1u);
}

TEST(MemoryBackendTest, PowerCutDamagesOnlyTheTail) {
  for (TailDamage damage : {TailDamage::kTorn, TailDamage::kCorrupt}) {
    MemoryBackend backend;
    ASSERT_TRUE(backend.Append({"committed", 7, false}).ok());
    backend.PowerCut(damage);
    // Dead until recovery: appends fail un-acknowledged.
    EXPECT_FALSE(backend.Append({"lost", 8, false}).ok());
    std::vector<MetaRecord> records = Drain(backend);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].key, "committed");
    const StorageStats& stats = backend.stats();
    EXPECT_EQ(stats.truncated_tails + stats.corrupt_dropped, 1u);
    // Recovered: appends work again.
    EXPECT_TRUE(backend.Append({"after", 9, false}).ok());
  }
}

TEST(MemoryBackendTest, CleanPowerCutLosesNothing) {
  MemoryBackend backend;
  ASSERT_TRUE(backend.Append({"a", 1, false}).ok());
  backend.PowerCut(TailDamage::kClean);
  EXPECT_EQ(Drain(backend).size(), 1u);
  EXPECT_EQ(backend.stats().truncated_tails, 0u);
  EXPECT_EQ(backend.stats().corrupt_dropped, 0u);
}

TEST(DurableMetaTest, DefaultStaysInMemory) {
  DurableMeta meta;
  EXPECT_FALSE(meta.durable());
  EXPECT_EQ(meta.storage_stats(), nullptr);
  meta.Save("k", 42);
  EXPECT_EQ(meta.Load("k").value_or(0), 42);
  EXPECT_TRUE(meta.Reopen().ok());   // no-op without a backend
  EXPECT_TRUE(meta.Compact().ok());  // ditto
  EXPECT_EQ(meta.Load("k").value_or(0), 42);
}

TEST(DurableMetaTest, ReopenRebuildsFromBackend) {
  MemoryBackend backend;
  DurableMeta meta(&backend);
  meta.Save("max_term_us", 10'000'000);
  meta.Save("boot_count", 1);
  meta.Save("boot_count", 2);
  meta.Erase("max_term_us");
  meta.Save("lease/1", 5);

  DurableMeta reborn(&backend);
  ASSERT_TRUE(reborn.Reopen().ok());
  EXPECT_FALSE(reborn.Load("max_term_us").has_value());
  EXPECT_EQ(reborn.Load("boot_count").value_or(0), 2);
  EXPECT_EQ(reborn.Load("lease/1").value_or(0), 5);
}

TEST(DurableMetaTest, PrefixOpsJournalPerKey) {
  MemoryBackend backend;
  DurableMeta meta(&backend);
  meta.Save("lease/2", 2);
  meta.Save("lease/1", 1);
  meta.Save("other", 9);

  // Sorted enumeration regardless of insertion order.
  auto leases = meta.LoadPrefix("lease/");
  ASSERT_EQ(leases.size(), 2u);
  EXPECT_EQ(leases[0].first, "lease/1");
  EXPECT_EQ(leases[1].first, "lease/2");

  meta.ErasePrefix("lease/");
  EXPECT_TRUE(meta.LoadPrefix("lease/").empty());
  EXPECT_EQ(meta.Load("other").value_or(0), 9);

  // The erases were journaled: a replayed meta agrees.
  DurableMeta reborn(&backend);
  ASSERT_TRUE(reborn.Reopen().ok());
  EXPECT_TRUE(reborn.LoadPrefix("lease/").empty());
  EXPECT_EQ(reborn.Load("other").value_or(0), 9);
}

TEST(DurableMetaTest, FailedAppendSurfacesAndDoesNotAdvanceCache) {
  MemoryBackend backend;
  DurableMeta meta(&backend);
  ASSERT_TRUE(meta.Save("max_term_us", 1).ok());
  backend.PowerCut(TailDamage::kClean);  // dead: every append now fails
  // Not durable => not visible, and the caller is told so.
  EXPECT_FALSE(meta.Save("max_term_us", 2).ok());
  EXPECT_EQ(meta.Load("max_term_us").value_or(0), 1);
  EXPECT_FALSE(meta.Erase("max_term_us").ok());
  EXPECT_TRUE(meta.Load("max_term_us").has_value());
  EXPECT_FALSE(meta.ErasePrefix("max_").ok());
  EXPECT_TRUE(meta.Load("max_term_us").has_value());
}

TEST(DurableMetaTest, CompactFoldsJournal) {
  MemoryBackend backend;
  DurableMeta meta(&backend);
  for (int i = 0; i < 10; ++i) {
    meta.Save("k", i);
  }
  ASSERT_TRUE(meta.Compact().ok());
  DurableMeta reborn(&backend);
  ASSERT_TRUE(reborn.Reopen().ok());
  EXPECT_EQ(reborn.Load("k").value_or(-1), 9);
  EXPECT_EQ(backend.stats().replayed_records, 1u);  // one snapshot entry
}

TEST(JournalBackendTest, PersistsAcrossBackendObjects) {
  ScratchDir dir("journal_roundtrip");
  {
    JournalBackend journal(dir.path());
    ASSERT_TRUE(journal.Open().ok());
    ASSERT_TRUE(journal.Append({"a", 1, false}).ok());
    ASSERT_TRUE(journal.Append({"key with spaces", -7, false}).ok());
    ASSERT_TRUE(journal.Append({"a", 0, true}).ok());
  }
  JournalBackend reopened(dir.path());
  ASSERT_TRUE(reopened.Open().ok());
  std::vector<MetaRecord> records = Drain(reopened);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].key, "key with spaces");
  EXPECT_EQ(records[1].value, -7);
  EXPECT_TRUE(records[2].erase);
  EXPECT_EQ(reopened.stats().truncated_tails, 0u);
  EXPECT_EQ(reopened.stats().corrupt_dropped, 0u);
}

TEST(JournalBackendTest, TornTailTruncatedOnReplay) {
  ScratchDir dir("journal_torn");
  JournalBackend journal(dir.path());
  ASSERT_TRUE(journal.Open().ok());
  ASSERT_TRUE(journal.Append({"committed", 1, false}).ok());
  uint64_t intact_size = FileSize(dir.path() + "/journal");
  journal.PowerCut(TailDamage::kTorn);
  EXPECT_TRUE(journal.dead());
  EXPECT_GT(FileSize(dir.path() + "/journal"), intact_size);

  std::vector<MetaRecord> records = Drain(journal);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "committed");
  EXPECT_EQ(journal.stats().truncated_tails, 1u);
  EXPECT_FALSE(journal.dead());
  // The repair is durable: the file shrank back to the intact prefix.
  EXPECT_EQ(FileSize(dir.path() + "/journal"), intact_size);
}

TEST(JournalBackendTest, CorruptRecordDroppedOnReplay) {
  ScratchDir dir("journal_corrupt");
  JournalBackend journal(dir.path());
  ASSERT_TRUE(journal.Open().ok());
  ASSERT_TRUE(journal.Append({"committed", 1, false}).ok());
  journal.PowerCut(TailDamage::kCorrupt);

  std::vector<MetaRecord> records = Drain(journal);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "committed");
  EXPECT_EQ(journal.stats().corrupt_dropped, 1u);
}

TEST(JournalBackendTest, MidLogCorruptionRefusedOnReplay) {
  // A crashed append can only damage the final frame. Damage in the MIDDLE
  // of the log -- with intact acknowledged records after it -- is bit rot,
  // and auto-truncating there would silently discard those records. Replay
  // must refuse and surface the error instead.
  ScratchDir dir("journal_midrot");
  {
    JournalBackend journal(dir.path());
    ASSERT_TRUE(journal.Open().ok());
    ASSERT_TRUE(journal.Append({"k0", 0, false}).ok());
    ASSERT_TRUE(journal.Append({"k1", 1, false}).ok());
    ASSERT_TRUE(journal.Append({"k2", 2, false}).ok());
  }
  const std::string path = dir.path() + "/journal";
  const uint64_t size = FileSize(path);
  ASSERT_EQ(size % 3, 0u);  // three identically-sized frames
  {
    // Flip one payload byte of the middle record on disk.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    std::streamoff at = static_cast<std::streamoff>(size / 3 + 8);
    f.seekg(at);
    char byte = 0;
    f.read(&byte, 1);
    byte ^= 0x40;
    f.seekp(at);
    f.write(&byte, 1);
  }
  JournalBackend reopened(dir.path());
  ASSERT_TRUE(reopened.Open().ok());
  Status replayed = reopened.Replay([](const MetaRecord&) {});
  EXPECT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.code(), ErrorCode::kCorrupt);
  // Nothing was truncated: every acknowledged byte is still on disk.
  EXPECT_EQ(FileSize(path), size);
}

TEST(JournalBackendTest, CompactionIsAtomicAndAbortedTmpIgnored) {
  ScratchDir dir("journal_compact");
  JournalBackend journal(dir.path());
  ASSERT_TRUE(journal.Open().ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(journal.Append({"k", i, false}).ok());
  }
  ASSERT_TRUE(journal.Compact({{"k", 4}}).ok());
  EXPECT_EQ(FileSize(dir.path() + "/journal"), 0u);
  ASSERT_TRUE(journal.Append({"post", 9, false}).ok());

  // A stray snapshot.tmp (aborted compaction from a crashed process) must
  // be ignored and removed by reopen.
  {
    std::ofstream tmp(dir.path() + "/snapshot.tmp", std::ios::binary);
    tmp << "garbage from a crashed compaction";
  }
  JournalBackend reopened(dir.path());
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/snapshot.tmp"));
  std::vector<MetaRecord> records = Drain(reopened);
  ASSERT_EQ(records.size(), 2u);  // snapshot "k"=4, then "post"
  EXPECT_EQ(records[0].value, 4);
  EXPECT_EQ(records[1].key, "post");
}

TEST(JournalBackendTest, DurableMetaOverJournalSurvivesProcessRestart) {
  ScratchDir dir("journal_meta");
  {
    JournalBackend journal(dir.path());
    ASSERT_TRUE(journal.Open().ok());
    DurableMeta meta(&journal);
    ASSERT_TRUE(meta.Reopen().ok());
    meta.Save("max_term_us", 10'000'000);
    meta.Save("boot_count", 1);
  }
  JournalBackend journal(dir.path());
  ASSERT_TRUE(journal.Open().ok());
  DurableMeta meta(&journal);
  ASSERT_TRUE(meta.Reopen().ok());
  EXPECT_EQ(meta.Load("max_term_us").value_or(0), 10'000'000);
  EXPECT_EQ(meta.Load("boot_count").value_or(0), 1);
}

// Deterministic byte-boundary fuzzing of journal replay: every byte of a
// 3-record journal flipped (xor 0x01 and 0xff), and every truncation. Damage
// with an intact record after it is bit rot, which Replay refuses with
// kCorrupt; damage to the last record, or a cut, is a crashed append's tail,
// which Replay drops, delivering exactly the records before it. After a
// successful Replay the repaired journal takes one more Append and replays
// as that prefix plus the new record.
TEST(JournalBackendTest, EveryFlipAndTruncationReplaysAPrefixOrIsRefused) {
  ScratchDir dir("journal_fuzz");
  const std::string path = dir.path() + "/journal";
  const std::vector<MetaRecord> appended = {
      {"k0", 0, false}, {"key one", -1, false}, {"k2", 2, true}};
  // ends[i]: the journal's size once records 0..i are on disk.
  std::vector<uint64_t> ends;
  {
    JournalBackend journal(dir.path());
    ASSERT_TRUE(journal.Open().ok());
    for (const MetaRecord& record : appended) {
      ASSERT_TRUE(journal.Append(record).ok());
      ends.push_back(FileSize(path));
    }
  }
  std::vector<uint8_t> intact(ends.back());
  {
    std::ifstream in(path, std::ios::binary);
    in.read(reinterpret_cast<char*>(intact.data()),
            static_cast<std::streamsize>(intact.size()));
    ASSERT_TRUE(in.good());
  }
  auto same = [](const MetaRecord& a, const MetaRecord& b) {
    return a.key == b.key && a.value == b.value && a.erase == b.erase;
  };
  const MetaRecord extra{"after", 7, false};
  size_t prefixes = 0;
  size_t refused = 0;
  // `whole` is how many records lie wholly before the damage; `rot` says
  // whether an intact record follows it.
  auto check = [&](const std::vector<uint8_t>& bytes, size_t whole, bool rot,
                   const std::string& what) {
    std::filesystem::remove_all(dir.path());
    std::filesystem::create_directories(dir.path());
    {
      std::ofstream out(path, std::ios::binary);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    JournalBackend journal(dir.path());
    ASSERT_TRUE(journal.Open().ok()) << what;
    std::vector<MetaRecord> records;
    Status replayed =
        journal.Replay([&records](const MetaRecord& r) { records.push_back(r); });
    if (rot) {
      EXPECT_EQ(replayed.code(), ErrorCode::kCorrupt) << what;
      ++refused;
      return;
    }
    ASSERT_TRUE(replayed.ok()) << what;
    ASSERT_EQ(records.size(), whole) << what;
    for (size_t i = 0; i < whole; ++i) {
      EXPECT_TRUE(same(records[i], appended[i])) << what << " record " << i;
    }
    ++prefixes;
    ASSERT_TRUE(journal.Append(extra).ok()) << what;
    JournalBackend reopened(dir.path());
    ASSERT_TRUE(reopened.Open().ok()) << what;
    std::vector<MetaRecord> after = Drain(reopened);
    ASSERT_EQ(after.size(), whole + 1) << what;
    EXPECT_TRUE(same(after.back(), extra)) << what;
  };
  for (size_t i = 0; i < intact.size(); ++i) {
    // The record holding byte i, and the count before it.
    size_t record = 0;
    while (ends[record] <= i) {
      ++record;
    }
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0xff}}) {
      std::vector<uint8_t> bytes = intact;
      bytes[i] ^= mask;
      check(bytes, record, record + 1 < appended.size(),
            "flip " + std::to_string(mask) + " at " + std::to_string(i));
    }
  }
  for (size_t keep = 0; keep <= intact.size(); ++keep) {
    size_t whole = 0;
    while (whole < ends.size() && ends[whole] <= keep) {
      ++whole;
    }
    check(std::vector<uint8_t>(intact.begin(),
                               intact.begin() + static_cast<ptrdiff_t>(keep)),
          whole, false, "cut at " + std::to_string(keep));
  }
  EXPECT_EQ(prefixes + refused, 3 * intact.size() + 1);
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace leases
