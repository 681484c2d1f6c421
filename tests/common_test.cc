// Unit tests for the common substrate: time types, strong ids, Result,
// binary codec, path splitting and the shared byte buffer (whose
// allocations are counted by replacing global operator new, in
// tests/alloc_counter.h).
#include <gtest/gtest.h>

#include "src/common/codec.h"
#include "src/common/ids.h"
#include "src/common/path.h"
#include "src/common/result.h"
#include "src/common/shared_bytes.h"
#include "src/common/time.h"
#include "tests/alloc_counter.h"

namespace leases {
namespace {

uint64_t Allocs() { return g_allocs.load(std::memory_order_relaxed); }

TEST(DurationTest, ConstructionAndConversion) {
  EXPECT_EQ(Duration::Seconds(1.5).ToMicros(), 1500000);
  EXPECT_EQ(Duration::Millis(3).ToMicros(), 3000);
  EXPECT_EQ(Duration::Micros(7).ToMicros(), 7);
  EXPECT_DOUBLE_EQ(Duration::Seconds(2).ToSeconds(), 2.0);
  EXPECT_DOUBLE_EQ(Duration::Millis(250).ToMillis(), 250.0);
}

TEST(DurationTest, Arithmetic) {
  Duration a = Duration::Seconds(2);
  Duration b = Duration::Millis(500);
  EXPECT_EQ((a + b).ToMicros(), 2500000);
  EXPECT_EQ((a - b).ToMicros(), 1500000);
  EXPECT_EQ((a * 3).ToMicros(), 6000000);
  EXPECT_EQ((a * 0.25).ToMicros(), 500000);
  EXPECT_EQ((a / 4).ToMicros(), 500000);
  EXPECT_EQ((-b).ToMicros(), -500000);
}

TEST(DurationTest, Comparison) {
  EXPECT_LT(Duration::Millis(1), Duration::Millis(2));
  EXPECT_EQ(Duration::Seconds(1), Duration::Millis(1000));
  EXPECT_GT(Duration::Infinite(), Duration::Seconds(1e9));
}

TEST(DurationTest, InfiniteIsSticky) {
  EXPECT_TRUE(Duration::Infinite().IsInfinite());
  EXPECT_FALSE(Duration::Seconds(1e6).IsInfinite());
  // Adding to infinite stays effectively infinite (no overflow wrap).
  Duration d = Duration::Infinite() + Duration::Seconds(100);
  EXPECT_GT(d, Duration::Seconds(1e9));
}

TEST(DurationTest, Formatting) {
  EXPECT_EQ(Duration::Seconds(10).ToString(), "10s");
  EXPECT_EQ(Duration::Millis(250).ToString(), "250ms");
  EXPECT_EQ(Duration::Micros(42).ToString(), "42us");
  EXPECT_EQ(Duration::Infinite().ToString(), "inf");
}

TEST(TimePointTest, Arithmetic) {
  TimePoint t = TimePoint::FromMicros(1000);
  EXPECT_EQ((t + Duration::Micros(500)).ToMicros(), 1500);
  EXPECT_EQ((t - Duration::Micros(500)).ToMicros(), 500);
  EXPECT_EQ((t - TimePoint::FromMicros(400)).ToMicros(), 600);
  EXPECT_LT(TimePoint::Epoch(), t);
  EXPECT_LT(t, TimePoint::Max());
}

TEST(StrongIdTest, DistinctTypesAndValidity) {
  NodeId node(3);
  FileId file(3);
  EXPECT_EQ(node.value(), 3u);
  EXPECT_EQ(file.value(), 3u);
  EXPECT_TRUE(node.valid());
  EXPECT_FALSE(NodeId().valid());
  // Different tag types do not compare or convert (compile-time property);
  // here we just check hashing and ordering work.
  std::unordered_map<FileId, int> map;
  map[FileId(1)] = 10;
  map[FileId(2)] = 20;
  EXPECT_EQ(map[FileId(1)], 10);
  EXPECT_LT(FileId(1), FileId(2));
}

TEST(StrongIdTest, GeneratorSequence) {
  IdGenerator<RequestId> gen;
  EXPECT_EQ(gen.Next().value(), 1u);
  EXPECT_EQ(gen.Next().value(), 2u);
  IdGenerator<RequestId> salted(1000);
  EXPECT_EQ(salted.Next().value(), 1001u);
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value_or(-1), 42);

  Result<int> err = Error{ErrorCode::kNotFound, "gone"};
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), ErrorCode::kNotFound);
  EXPECT_EQ(err.error().ToString(), "NOT_FOUND: gone");
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(ResultTest, StatusBasics) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  Status bad(ErrorCode::kTimeout, "slow");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), ErrorCode::kTimeout);
}

TEST(ResultTest, ErrorCodeNamesAreDistinct) {
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kOk), "OK");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kConflict), "CONFLICT");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kUnavailable), "UNAVAILABLE");
  EXPECT_STRNE(ErrorCodeName(ErrorCode::kTimeout),
               ErrorCodeName(ErrorCode::kAborted));
}

TEST(CodecTest, ScalarRoundTrip) {
  Writer w;
  w.WriteU8(0xAB);
  w.WriteU16(0x1234);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteI64(-42);
  w.WriteDouble(3.25);
  w.WriteBool(true);
  w.WriteDuration(Duration::Millis(7));
  w.WriteId(FileId(99));

  Reader r(w.buffer());
  EXPECT_EQ(r.ReadU8(), 0xAB);
  EXPECT_EQ(r.ReadU16(), 0x1234);
  EXPECT_EQ(r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.ReadI64(), -42);
  EXPECT_DOUBLE_EQ(r.ReadDouble(), 3.25);
  EXPECT_TRUE(r.ReadBool());
  EXPECT_EQ(r.ReadDuration(), Duration::Millis(7));
  EXPECT_EQ(r.ReadId<FileId>(), FileId(99));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ok());
}

TEST(CodecTest, BytesAndStrings) {
  Writer w;
  w.WriteBytes(std::vector<uint8_t>{1, 2, 3});
  w.WriteString("hello");
  w.WriteString("");
  Reader r(w.buffer());
  EXPECT_EQ(r.ReadBytes(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_TRUE(r.ok());
}

TEST(CodecTest, TruncationLatchesError) {
  Writer w;
  w.WriteU64(7);
  std::vector<uint8_t> bytes = w.buffer();
  bytes.resize(5);
  Reader r(bytes);
  EXPECT_EQ(r.ReadU64(), 0u);  // safe default
  EXPECT_FALSE(r.ok());
}

TEST(CodecTest, OversizedLengthPrefixIsRejected) {
  Writer w;
  w.WriteU32(0xFFFFFFFF);  // claims 4 GiB of payload
  Reader r(w.buffer());
  EXPECT_TRUE(r.ReadBytes().empty());
  EXPECT_FALSE(r.ok());
}

class CodecFuzz : public ::testing::TestWithParam<size_t> {};

TEST_P(CodecFuzz, ReaderNeverReadsPastEnd) {
  // Any prefix of a valid buffer must decode without touching memory past
  // the end; ok() reports the truncation.
  Writer w;
  for (int i = 0; i < 8; ++i) {
    w.WriteU64(static_cast<uint64_t>(i) * 0x0101010101010101ull);
    w.WriteString("payload-" + std::to_string(i));
  }
  std::vector<uint8_t> bytes = w.buffer();
  size_t keep = GetParam() % (bytes.size() + 1);
  bytes.resize(keep);
  Reader r(bytes);
  for (int i = 0; i < 8; ++i) {
    (void)r.ReadU64();
    (void)r.ReadString();
  }
  // Either everything decoded (full buffer) or the error latched.
  EXPECT_TRUE(r.ok() == (keep == w.buffer().size()));
}

INSTANTIATE_TEST_SUITE_P(Prefixes, CodecFuzz,
                         ::testing::Values(0, 1, 7, 8, 9, 15, 33, 64, 100,
                                           1000, 100000));

TEST(PathTest, SplitAbsPath) {
  auto parts = SplitAbsPath("/a/b/c");
  ASSERT_TRUE(parts.has_value());
  EXPECT_EQ(*parts, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitAbsPath("/")->empty());
  EXPECT_FALSE(SplitAbsPath("").has_value());
  EXPECT_FALSE(SplitAbsPath("relative/path").has_value());
  EXPECT_FALSE(SplitAbsPath("/a//b").has_value());
  auto trailing = SplitAbsPath("/a/b/");
  ASSERT_TRUE(trailing.has_value());
  EXPECT_EQ(*trailing, (std::vector<std::string>{"a", "b"}));
}

TEST(SharedBytesTest, ABufferBuiltFromASpanIsOneAllocation) {
  const std::vector<uint8_t> bytes(256, 0x5a);
  const uint64_t before = Allocs();
  SharedBytes buffer{std::span<const uint8_t>(bytes)};
  EXPECT_EQ(Allocs() - before, 1u) << "count and bytes share one block";
  EXPECT_EQ(buffer, bytes);
  SharedBytes copy = buffer;
  EXPECT_EQ(Allocs() - before, 1u) << "a copy only counts a holder";
  EXPECT_EQ(copy.data(), buffer.data());
  EXPECT_EQ(buffer.use_count(), 2);
  EXPECT_EQ(SharedBytes(std::span<const uint8_t>()).data(), nullptr);
}

TEST(SharedBytesTest, EditOfASharedBufferLeavesTheOtherHolderUnchanged) {
  const std::vector<uint8_t> original = {1, 2, 3, 4, 5, 6};
  SharedBytes held{std::span<const uint8_t>(original)};
  SharedBytes edited = held;
  // Cut to 5, then replace bytes [1, 3) with three new ones.
  uint8_t* p = edited.Edit(5, 1, 2, 3);
  p[1] = 7;
  p[2] = 8;
  p[3] = 9;
  EXPECT_EQ(held, original);
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(edited, (std::vector<uint8_t>{1, 7, 8, 9, 4, 5}));
  EXPECT_EQ(edited.use_count(), 1);

  // Sole holder: the edit lands in place, without a copy.
  const uint8_t* before = edited.data();
  edited.Edit(4, 0, 1, 0)[0] = 0;
  EXPECT_EQ(edited.data(), before);
  EXPECT_EQ(edited, (std::vector<uint8_t>{0, 8, 9}));
  EXPECT_EQ(held, original);

  // An empty handle edits into a buffer of its own.
  SharedBytes empty;
  empty.Edit(0, 0, 0, 2)[1] = 4;
  EXPECT_EQ(empty.size(), 2u);
  EXPECT_EQ(empty.data()[1], 4);
}

TEST(SharedBytesTest, AppendsToASoleHolderReallocateLogarithmically) {
  SharedBytes buffer;
  const uint64_t before = Allocs();
  size_t moves = 0;
  const uint8_t* at = buffer.data();
  constexpr size_t kAppends = 4096;
  for (size_t i = 0; i < kAppends; ++i) {
    const size_t size = buffer.size();
    buffer.Edit(size, size, 0, 1)[size] = static_cast<uint8_t>(i);
    if (buffer.data() != at) {
      ++moves;
      at = buffer.data();
    }
  }
  ASSERT_EQ(buffer.size(), kAppends);
  for (size_t i = 0; i < kAppends; ++i) {
    ASSERT_EQ(buffer.data()[i], static_cast<uint8_t>(i)) << i;
  }
  EXPECT_LE(moves, 14u) << "log2(4096) + 2: capacity at least doubles";
  EXPECT_EQ(Allocs() - before, moves);
}

}  // namespace
}  // namespace leases
