// Byte-boundary tests for the in-place directory walker: on sample datums
// and every single-byte flip and truncation of them, DirWalker accepts
// exactly what DecodeDirectory accepts and yields the same entries, and a
// client open through the datum reports kCorrupt exactly when decoding
// fails.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/sim_cluster.h"
#include "src/fs/dir_codec.h"
#include "src/workload/v_config.h"

namespace leases {
namespace {

struct Sample {
  std::string label;
  std::vector<uint8_t> bytes;
  std::string probe;  // a name the open looks up
};

std::vector<Sample> Samples() {
  std::vector<Sample> samples;
  samples.push_back({"empty", EncodeDirectory({}), "x"});
  samples.push_back({"one",
                     EncodeDirectory({{"only", FileId(7), kModeRead,
                                       FileClass::kInstalled}}),
                     "only"});
  std::vector<DirEntry> many;
  for (int i = 0; i < 300; ++i) {
    std::string name = "n" + std::to_string(i);
    if (i % 25 == 3) {
      name += std::string(64 + i % 40, static_cast<char>('a' + i % 26));
    }
    many.push_back({name, FileId(1000 + i), static_cast<uint32_t>(i % 8),
                    static_cast<FileClass>(i % 3)});
  }
  std::vector<uint8_t> bytes = EncodeDirectory(many);
  for (uint8_t b : {0x05, 0x00, 0xff, 0x11}) {
    bytes.push_back(b);  // ignored trailing bytes
  }
  samples.push_back({"300+tail", bytes, many[150].name});
  return samples;
}

// Every datum the boundary tests try: the sample, each byte xor 0x01 and
// xor 0xff, and each proper prefix.
std::vector<std::vector<uint8_t>> Variants(const std::vector<uint8_t>& bytes) {
  std::vector<std::vector<uint8_t>> out{bytes};
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (uint8_t mask : {0x01, 0xff}) {
      out.push_back(bytes);
      out.back()[i] ^= mask;
    }
  }
  for (size_t n = 0; n < bytes.size(); ++n) {
    out.emplace_back(bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(n));
  }
  return out;
}

TEST(DirWalkerTest, AcceptsExactlyWhatDecodeAcceptsAtEveryByteBoundary) {
  for (const Sample& sample : Samples()) {
    size_t accepted = 0;
    std::vector<std::vector<uint8_t>> variants = Variants(sample.bytes);
    for (size_t v = 0; v < variants.size(); ++v) {
      const std::vector<uint8_t>& bytes = variants[v];
      SCOPED_TRACE(sample.label + " variant " + std::to_string(v));
      auto decoded = DecodeDirectory(bytes);

      DirWalker walk(bytes);
      size_t i = 0;
      bool same = true;
      while (walk.Next()) {
        const DirEntryView& e = walk.entry();
        if (decoded.has_value()) {
          same = same && i < decoded->size() &&
                 e.name == (*decoded)[i].name &&
                 e.file == (*decoded)[i].file &&
                 e.mode == (*decoded)[i].mode &&
                 e.file_class == (*decoded)[i].file_class;
        }
        ++i;
      }
      ASSERT_EQ(walk.ok(), decoded.has_value());
      if (!decoded.has_value()) {
        continue;
      }
      ++accepted;
      EXPECT_TRUE(same);
      EXPECT_EQ(i, decoded->size());
      EXPECT_EQ(walk.count(), decoded->size());
      // The walk ends where EncodeDirectory would: a re-encode is exactly
      // the datum cut at the walker's offset.
      std::vector<uint8_t> cut(bytes.begin(),
                               bytes.begin() +
                                   static_cast<ptrdiff_t>(walk.offset()));
      EXPECT_EQ(cut, EncodeDirectory(*decoded));

      DirWalker finder(bytes);
      std::optional<DirEntryView> found = finder.Find(sample.probe);
      EXPECT_TRUE(finder.ok());
      const DirEntry* want = FindEntry(*decoded, sample.probe);
      ASSERT_EQ(found.has_value(), want != nullptr);
      if (want != nullptr) {
        EXPECT_EQ(found->file, want->file);
        EXPECT_EQ(found->mode, want->mode);
        EXPECT_EQ(found->file_class, want->file_class);
      }
    }
    EXPECT_GT(accepted, 0u) << sample.label;
  }
}

TEST(DirWalkerTest, FindReportsAMalformedTailAfterTheMatch) {
  std::vector<uint8_t> bytes = EncodeDirectory(
      {{"a", FileId(1), kModeRead, FileClass::kNormal},
       {"b", FileId(2), kModeRead, FileClass::kNormal}});
  bytes.resize(bytes.size() - 1);  // the second entry loses its class byte
  DirWalker walk(bytes);
  std::optional<DirEntryView> found = walk.Find("a");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->file, FileId(1));
  EXPECT_FALSE(walk.ok());
}

// A client open through a datum fails with kCorrupt exactly when the datum
// does not decode, and otherwise finds what FindEntry finds.
TEST(DirWalkerTest, OpenReportsCorruptExactlyWhenDecodeFails) {
  SimCluster cluster(MakeVClusterOptions(Duration::Seconds(10), 1));
  // A normal file's bytes are not checked, so any variant can be written;
  // opening a path through it reads those bytes as a directory datum.
  FileId blob = *cluster.store().CreatePath("/blob", FileClass::kNormal, {});
  for (const Sample& sample : Samples()) {
    std::vector<std::vector<uint8_t>> variants = Variants(sample.bytes);
    for (size_t v = 0; v < variants.size(); ++v) {
      SCOPED_TRACE(sample.label + " variant " + std::to_string(v));
      auto decoded = DecodeDirectory(variants[v]);
      ASSERT_TRUE(cluster.SyncWrite(0, blob, variants[v]).ok());
      Result<OpenResult> open = cluster.SyncOpen(0, "/blob/" + sample.probe);
      if (!decoded.has_value()) {
        ASSERT_FALSE(open.ok());
        EXPECT_EQ(open.code(), ErrorCode::kCorrupt);
        continue;
      }
      const DirEntry* want = FindEntry(*decoded, sample.probe);
      if (want == nullptr) {
        ASSERT_FALSE(open.ok());
        EXPECT_EQ(open.code(), ErrorCode::kNotFound);
        continue;
      }
      ASSERT_TRUE(open.ok());
      EXPECT_EQ(open->file, want->file);
      EXPECT_EQ(open->mode, want->mode);
      EXPECT_EQ(open->file_class, want->file_class);
    }
  }
}

}  // namespace
}  // namespace leases
