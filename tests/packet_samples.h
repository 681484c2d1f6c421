// One sample of each Packet alternative, for tests that sweep the codec or
// the protocol handlers across every message type.
#ifndef TESTS_PACKET_SAMPLES_H_
#define TESTS_PACKET_SAMPLES_H_

#include <gtest/gtest.h>

#include <set>
#include <variant>
#include <vector>

#include "src/proto/messages.h"

namespace leases {

// Fails the calling test if a Packet alternative has no sample.
inline std::vector<Packet> OneOfEveryPacket() {
  ReadReply read_reply;
  read_reply.req = RequestId(1);
  read_reply.file = FileId(2);
  read_reply.version = 3;
  read_reply.lease = LeaseGrant{LeaseKey(2), Duration::Seconds(5)};
  read_reply.data = {1, 2, 3};
  ExtendReplyItem item;
  item.file = FileId(2);
  item.version = 3;
  item.refreshed = true;
  item.lease = LeaseGrant{LeaseKey(2), Duration::Seconds(5)};
  item.data = {4, 5};
  AuthorityPromise promise;
  promise.ballot = 7;
  promise.ok = true;
  promise.holder = 1;
  promise.holder_remaining = Duration::Seconds(1);
  promise.members = {1, 2, 3};
  promise.next_members = {1, 2};
  AuthorityPropose propose;
  propose.ballot = 7;
  propose.owner = 1;
  propose.term = Duration::Seconds(2);
  propose.members = {1, 2, 3};
  propose.write_locked = {2};
  AuthorityAccept accept;
  accept.ballot = 7;
  accept.ok = true;
  accept.members = {1, 2, 3};
  std::vector<Packet> packets = {
      ReadRequest{RequestId(1), FileId(2), 3, 4},
      read_reply,
      WriteRequest{RequestId(1), FileId(2), 3, {1, 2, 3}},
      WriteReply{RequestId(1), FileId(2), ErrorCode::kOk, 4},
      ExtendRequest{RequestId(1), {{FileId(2), 3}, {FileId(4), 5}}, 6},
      ExtendReply{RequestId(1), {item}},
      ApproveRequest{5, FileId(2), LeaseKey(2)},
      ApproveReply{5, FileId(2), true},
      Relinquish{{LeaseKey(1), LeaseKey(2)}},
      InstalledExtend{Duration::Seconds(1), {LeaseKey(1)}},
      Ping{RequestId(1)},
      Pong{RequestId(1)},
      AuthorityPrepare{7},
      promise,
      propose,
      accept,
  };
  std::set<size_t> kinds;
  for (const Packet& packet : packets) {
    kinds.insert(packet.index());
  }
  EXPECT_EQ(kinds.size(), std::variant_size_v<Packet>);
  EXPECT_EQ(packets.size(), std::variant_size_v<Packet>);
  return packets;
}

}  // namespace leases

#endif  // TESTS_PACKET_SAMPLES_H_
