// Unit tests for the wire protocol: full round-trips for every message,
// truncation safety, garbage-input robustness and byte-boundary fuzzing.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/proto/messages.h"
#include "src/sim/rng.h"
#include "tests/packet_samples.h"

namespace leases {
namespace {

template <typename T>
T RoundTrip(const T& message) {
  std::vector<uint8_t> bytes = EncodePacket(Packet(message));
  std::optional<Packet> decoded = DecodePacket(bytes);
  EXPECT_TRUE(decoded.has_value());
  const T* out = std::get_if<T>(&*decoded);
  EXPECT_NE(out, nullptr);
  return *out;
}

TEST(ProtoTest, ReadRequestRoundTrip) {
  ReadRequest m{RequestId(7), FileId(42), 13, 987654321};
  ReadRequest out = RoundTrip(m);
  EXPECT_EQ(out.req, m.req);
  EXPECT_EQ(out.file, m.file);
  EXPECT_EQ(out.have_version, 13u);
  EXPECT_EQ(out.clock_us, 987654321u);
}

TEST(ProtoTest, ReadReplyRoundTrip) {
  ReadReply m;
  m.req = RequestId(8);
  m.file = FileId(9);
  m.status = ErrorCode::kPermissionDenied;
  m.version = 77;
  m.not_modified = true;
  m.file_class = FileClass::kInstalled;
  m.lease = LeaseGrant{LeaseKey(9), Duration::Seconds(10)};
  m.data = {1, 2, 3, 4};
  ReadReply out = RoundTrip(m);
  EXPECT_EQ(out.status, ErrorCode::kPermissionDenied);
  EXPECT_EQ(out.version, 77u);
  EXPECT_TRUE(out.not_modified);
  EXPECT_EQ(out.file_class, FileClass::kInstalled);
  EXPECT_EQ(out.lease.key, LeaseKey(9));
  EXPECT_EQ(out.lease.term, Duration::Seconds(10));
  EXPECT_EQ(out.data, m.data);
}

TEST(ProtoTest, InfiniteTermSurvivesTheWire) {
  ReadReply m;
  m.lease = LeaseGrant{LeaseKey(1), Duration::Infinite()};
  ReadReply out = RoundTrip(m);
  EXPECT_TRUE(out.lease.term.IsInfinite());
}

TEST(ProtoTest, WriteRequestRoundTrip) {
  WriteRequest m{RequestId(3), FileId(5), 11, {9, 9, 9}};
  WriteRequest out = RoundTrip(m);
  EXPECT_EQ(out.base_version, 11u);
  EXPECT_EQ(out.data, m.data);
}

TEST(ProtoTest, WriteReplyRoundTrip) {
  WriteReply m{RequestId(3), FileId(5), ErrorCode::kConflict, 12};
  WriteReply out = RoundTrip(m);
  EXPECT_EQ(out.status, ErrorCode::kConflict);
  EXPECT_EQ(out.version, 12u);
}

TEST(ProtoTest, ExtendRequestRoundTrip) {
  ExtendRequest m;
  m.req = RequestId(4);
  for (uint64_t i = 1; i <= 50; ++i) {
    m.items.push_back(ExtendItem{FileId(i), i * 3});
  }
  m.clock_us = 555666777;
  ExtendRequest out = RoundTrip(m);
  ASSERT_EQ(out.items.size(), 50u);
  EXPECT_EQ(out.items[49].file, FileId(50));
  EXPECT_EQ(out.items[49].version, 150u);
  EXPECT_EQ(out.clock_us, 555666777u);
}

TEST(ProtoTest, ExtendReplyRoundTrip) {
  ExtendReply m;
  m.req = RequestId(5);
  ExtendReplyItem fresh;
  fresh.file = FileId(1);
  fresh.version = 10;
  fresh.lease = LeaseGrant{LeaseKey(1), Duration::Seconds(10)};
  ExtendReplyItem stale;
  stale.file = FileId(2);
  stale.version = 20;
  stale.refreshed = true;
  stale.data = {5, 5};
  stale.file_class = FileClass::kDirectory;
  ExtendReplyItem missing;
  missing.file = FileId(3);
  missing.status = ErrorCode::kNotFound;
  m.items = {fresh, stale, missing};
  ExtendReply out = RoundTrip(m);
  ASSERT_EQ(out.items.size(), 3u);
  EXPECT_FALSE(out.items[0].refreshed);
  EXPECT_TRUE(out.items[1].refreshed);
  EXPECT_EQ(out.items[1].data, (std::vector<uint8_t>{5, 5}));
  EXPECT_EQ(out.items[1].file_class, FileClass::kDirectory);
  EXPECT_EQ(out.items[2].status, ErrorCode::kNotFound);
}

TEST(ProtoTest, ApprovalMessagesRoundTrip) {
  ApproveRequest req{99, FileId(4), LeaseKey(4)};
  ApproveRequest req_out = RoundTrip(req);
  EXPECT_EQ(req_out.write_seq, 99u);
  EXPECT_EQ(req_out.key, LeaseKey(4));

  ApproveReply rep{99, FileId(4), true};
  ApproveReply rep_out = RoundTrip(rep);
  EXPECT_TRUE(rep_out.relinquish_key);
}

TEST(ProtoTest, RelinquishAndInstalledExtendRoundTrip) {
  Relinquish m{{LeaseKey(1), LeaseKey(2), LeaseKey(3)}};
  EXPECT_EQ(RoundTrip(m).keys.size(), 3u);

  InstalledExtend ie{Duration::Seconds(10), {LeaseKey(7), LeaseKey(8)}};
  InstalledExtend ie_out = RoundTrip(ie);
  EXPECT_EQ(ie_out.term, Duration::Seconds(10));
  EXPECT_EQ(ie_out.keys, (std::vector<LeaseKey>{LeaseKey(7), LeaseKey(8)}));
}

TEST(ProtoTest, PingPongRoundTrip) {
  EXPECT_EQ(RoundTrip(Ping{RequestId(1)}).req, RequestId(1));
  EXPECT_EQ(RoundTrip(Pong{RequestId(2)}).req, RequestId(2));
}

TEST(ProtoTest, PacketNamesAreUnique) {
  EXPECT_EQ(PacketName(Packet(ReadRequest{})), "ReadRequest");
  EXPECT_EQ(PacketName(Packet(InstalledExtend{})), "InstalledExtend");
  EXPECT_NE(PacketName(Packet(WriteRequest{})),
            PacketName(Packet(WriteReply{})));
}

TEST(ProtoTest, EmptyAndUnknownTypeRejected) {
  EXPECT_FALSE(DecodePacket({}).has_value());
  std::vector<uint8_t> unknown = {0xEE, 1, 2, 3};
  EXPECT_FALSE(DecodePacket(unknown).has_value());
}

TEST(ProtoTest, EveryTruncationOfEveryMessageIsRejectedSafely) {
  std::vector<Packet> packets = {
      Packet(ReadRequest{RequestId(1), FileId(2), 3}),
      Packet(WriteRequest{RequestId(1), FileId(2), 3, {1, 2, 3}}),
      Packet(ApproveRequest{5, FileId(2), LeaseKey(2)}),
      Packet(Relinquish{{LeaseKey(1)}}),
      Packet(InstalledExtend{Duration::Seconds(1), {LeaseKey(1)}}),
  };
  ReadReply reply;
  reply.data = {1, 2, 3, 4, 5};
  reply.lease = LeaseGrant{LeaseKey(1), Duration::Seconds(5)};
  packets.push_back(Packet(reply));
  ExtendRequest extend;
  extend.items = {{FileId(1), 1}, {FileId(2), 2}};
  packets.push_back(Packet(extend));

  for (const Packet& packet : packets) {
    std::vector<uint8_t> bytes = EncodePacket(packet);
    for (size_t keep = 0; keep < bytes.size(); ++keep) {
      std::vector<uint8_t> cut(bytes.begin(),
                               bytes.begin() + static_cast<ptrdiff_t>(keep));
      // Must neither crash nor mis-decode to a full packet of the same
      // byte length's worth of fields. nullopt is the required outcome.
      EXPECT_FALSE(DecodePacket(cut).has_value())
          << PacketName(packet) << " truncated to " << keep;
    }
  }
}

// --- Randomized property tests over every message type -------------------
//
// The simulator exercises the codec per message only in conformance mode,
// so these are the codec's safety net: every MsgType, randomized
// payloads, and every truncation of every valid datagram.

std::vector<uint8_t> RandomBytes(Rng& rng, size_t max_len) {
  std::vector<uint8_t> out(rng.NextBounded(max_len + 1));
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  return out;
}

LeaseGrant RandomLease(Rng& rng) {
  return LeaseGrant{LeaseKey(rng.NextU64()),
                    Duration::Micros(static_cast<int64_t>(
                        rng.NextBounded(1 << 30)))};
}

std::vector<LeaseKey> RandomKeys(Rng& rng, size_t max_n) {
  std::vector<LeaseKey> keys(rng.NextBounded(max_n + 1));
  for (auto& k : keys) {
    k = LeaseKey(rng.NextU64());
  }
  return keys;
}

std::vector<uint32_t> RandomMembers(Rng& rng, size_t max_n) {
  std::vector<uint32_t> members(rng.NextBounded(max_n + 1));
  for (auto& m : members) {
    m = static_cast<uint32_t>(rng.NextU64());
  }
  return members;
}

// One random packet of each of the 16 wire types, index-selected so the
// test provably covers the whole variant.
Packet RandomPacket(Rng& rng, size_t type_index) {
  switch (type_index) {
    case 0:
      return ReadRequest{RequestId(rng.NextU64()), FileId(rng.NextU64()),
                         rng.NextU64(), rng.NextU64()};
    case 1: {
      ReadReply m;
      m.req = RequestId(rng.NextU64());
      m.file = FileId(rng.NextU64());
      m.status = static_cast<ErrorCode>(rng.NextBounded(8));
      m.version = rng.NextU64();
      m.not_modified = rng.NextBernoulli(0.5);
      m.file_class = static_cast<FileClass>(rng.NextBounded(4));
      m.lease = RandomLease(rng);
      m.data = RandomBytes(rng, 64);
      return m;
    }
    case 2: {
      WriteRequest m;
      m.req = RequestId(rng.NextU64());
      m.file = FileId(rng.NextU64());
      m.base_version = rng.NextU64();
      m.data = RandomBytes(rng, 64);
      return m;
    }
    case 3:
      return WriteReply{RequestId(rng.NextU64()), FileId(rng.NextU64()),
                        static_cast<ErrorCode>(rng.NextBounded(8)),
                        rng.NextU64()};
    case 4: {
      ExtendRequest m;
      m.req = RequestId(rng.NextU64());
      m.items.resize(rng.NextBounded(9));
      for (auto& item : m.items) {
        item.file = FileId(rng.NextU64());
        item.version = rng.NextU64();
      }
      m.clock_us = rng.NextU64();
      return m;
    }
    case 5: {
      ExtendReply m;
      m.req = RequestId(rng.NextU64());
      m.items.resize(rng.NextBounded(5));
      for (auto& item : m.items) {
        item.file = FileId(rng.NextU64());
        item.status = static_cast<ErrorCode>(rng.NextBounded(8));
        item.version = rng.NextU64();
        item.refreshed = rng.NextBernoulli(0.5);
        item.file_class = static_cast<FileClass>(rng.NextBounded(4));
        item.lease = RandomLease(rng);
        item.data = RandomBytes(rng, 32);
      }
      return m;
    }
    case 6:
      return ApproveRequest{rng.NextU64(), FileId(rng.NextU64()),
                            LeaseKey(rng.NextU64())};
    case 7:
      return ApproveReply{rng.NextU64(), FileId(rng.NextU64()),
                          rng.NextBernoulli(0.5)};
    case 8:
      return Relinquish{RandomKeys(rng, 8)};
    case 9:
      return InstalledExtend{
          Duration::Micros(static_cast<int64_t>(rng.NextBounded(1 << 30))),
          RandomKeys(rng, 8)};
    case 10:
      return Ping{RequestId(rng.NextU64())};
    case 11:
      return Pong{RequestId(rng.NextU64())};
    case 12:
      return AuthorityPrepare{rng.NextU64()};
    case 13: {
      AuthorityPromise m;
      m.ballot = rng.NextU64();
      m.ok = rng.NextBernoulli(0.5);
      m.promised = rng.NextU64();
      m.holder = static_cast<uint32_t>(rng.NextU64());
      m.holder_remaining =
          Duration::Micros(static_cast<int64_t>(rng.NextBounded(1 << 30)));
      m.bound_remaining =
          Duration::Micros(static_cast<int64_t>(rng.NextBounded(1 << 30)));
      m.config_epoch = rng.NextU64();
      m.members = RandomMembers(rng, 7);
      m.next_members = RandomMembers(rng, 7);
      return m;
    }
    case 14: {
      AuthorityPropose m;
      m.ballot = rng.NextU64();
      m.owner = static_cast<uint32_t>(rng.NextU64());
      m.term = Duration::Micros(static_cast<int64_t>(rng.NextBounded(1 << 30)));
      m.grant_horizon =
          Duration::Micros(static_cast<int64_t>(rng.NextBounded(1 << 30)));
      m.config_epoch = rng.NextU64();
      m.members = RandomMembers(rng, 7);
      m.next_members = RandomMembers(rng, 7);
      size_t locked = rng.NextBounded(6);
      for (size_t i = 0; i < locked; ++i) {
        m.write_locked.push_back(rng.NextU64());
      }
      m.write_locked_overflow = rng.NextBernoulli(0.2);
      return m;
    }
    default: {
      AuthorityAccept m;
      m.ballot = rng.NextU64();
      m.ok = rng.NextBernoulli(0.5);
      m.promised = rng.NextU64();
      m.config_epoch = rng.NextU64();
      m.members = RandomMembers(rng, 7);
      m.next_members = RandomMembers(rng, 7);
      return m;
    }
  }
}

TEST(ProtoTest, RandomizedRoundTripCoversEveryType) {
  constexpr size_t kNumTypes = std::variant_size_v<Packet>;
  static_assert(kNumTypes == 16, "update RandomPacket for new types");
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    for (size_t type = 0; type < kNumTypes; ++type) {
      Packet packet = RandomPacket(rng, type);
      std::vector<uint8_t> bytes = EncodePacket(packet);
      std::optional<Packet> decoded = DecodePacket(bytes);
      ASSERT_TRUE(decoded.has_value()) << PacketName(packet);
      EXPECT_EQ(decoded->index(), packet.index());
      // Field-level equality via the canonical encoding: the codec writes
      // every field deterministically, so byte equality of the re-encoding
      // is packet equality.
      EXPECT_EQ(EncodePacket(*decoded), bytes) << PacketName(packet);
    }
  }
}

TEST(ProtoTest, EveryPrefixOfARandomizedDatagramFailsCleanly) {
  constexpr size_t kNumTypes = std::variant_size_v<Packet>;
  Rng rng(78);
  for (int trial = 0; trial < 20; ++trial) {
    for (size_t type = 0; type < kNumTypes; ++type) {
      Packet packet = RandomPacket(rng, type);
      std::vector<uint8_t> bytes = EncodePacket(packet);
      for (size_t keep = 0; keep < bytes.size(); ++keep) {
        std::vector<uint8_t> cut(
            bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(keep));
        EXPECT_FALSE(DecodePacket(cut).has_value())
            << PacketName(packet) << " truncated to " << keep;
      }
    }
  }
}

TEST(ProtoTest, RandomGarbageNeverCrashesTheDecoder) {
  Rng rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> garbage(rng.NextBounded(200));
    for (auto& b : garbage) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    // Valid-looking type bytes make the body decoder work hardest (tags
    // 1-10 and the authority plane's 20-23).
    if (!garbage.empty()) {
      uint64_t pick = rng.NextBounded(14);
      garbage[0] = static_cast<uint8_t>(pick < 10 ? pick + 1 : pick + 10);
    }
    (void)DecodePacket(garbage);  // must not crash or overread
  }
  SUCCEED();
}

// Deterministic byte-boundary fuzzing of the decoder: every byte of one
// sample of each packet type flipped (xor 0x01, 0x80 and 0xff), and every
// 4-byte window overwritten with 0xff. Each mutant must fail to decode, or
// decode to a packet whose encoding is canonical: it decodes again and
// re-encodes to the same bytes.
TEST(ProtoTest, EveryByteFlipAndRunFailsOrReencodesCanonically) {
  size_t cases = 0;
  size_t decoded = 0;
  auto check = [&cases, &decoded](const Packet& sample,
                                  const std::vector<uint8_t>& mutant,
                                  size_t at) {
    ++cases;
    std::optional<Packet> packet = DecodePacket(mutant);
    if (!packet.has_value()) {
      return;
    }
    ++decoded;
    std::vector<uint8_t> once = EncodePacket(*packet);
    std::optional<Packet> again = DecodePacket(once);
    ASSERT_TRUE(again.has_value()) << PacketName(sample) << " at " << at;
    EXPECT_EQ(EncodePacket(*again), once) << PacketName(sample) << " at "
                                          << at;
  };
  for (const Packet& sample : OneOfEveryPacket()) {
    const std::vector<uint8_t> bytes = EncodePacket(sample);
    for (size_t i = 0; i < bytes.size(); ++i) {
      for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xff}}) {
        std::vector<uint8_t> mutant = bytes;
        mutant[i] ^= mask;
        check(sample, mutant, i);
      }
    }
    for (size_t i = 0; i + 4 <= bytes.size(); ++i) {
      std::vector<uint8_t> mutant = bytes;
      std::fill_n(mutant.begin() + static_cast<ptrdiff_t>(i), 4, 0xff);
      check(sample, mutant, i);
    }
  }
  // Both outcomes occur, so the sweep reaches past the type byte.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(cases - decoded, 0u);
}

}  // namespace
}  // namespace leases
