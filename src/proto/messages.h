// Lease protocol wire messages.
//
// The protocol of Section 2 of the paper, concretely:
//
//   ReadRequest/ReadReply        fetch a datum; the reply carries a lease
//                                grant riding for free on the data transfer.
//   ExtendRequest/ExtendReply    batched lease extension over all files a
//                                cache still holds (Section 3.1: "a cache
//                                should extend together all leases over all
//                                files that it still holds"); stale entries
//                                are refreshed in the reply.
//   WriteRequest/WriteReply      write-through; the request carries the
//                                writer's implicit approval (footnote 5).
//   ApproveRequest/ApproveReply  server->leaseholders callback asking
//                                approval of a pending write; granting
//                                approval invalidates the holder's copy.
//   Relinquish                   voluntary lease give-up (Section 4 option).
//   InstalledExtend              periodic multicast extending the leases
//                                covering installed files; a key missing
//                                from the multicast is no longer extended
//                                (the Section 4 installed-files
//                                optimization).
//
// Lease terms travel as *durations*, never absolute times, so correctness
// needs only bounded clock drift (Section 5).
#ifndef SRC_PROTO_MESSAGES_H_
#define SRC_PROTO_MESSAGES_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "src/common/ids.h"
#include "src/common/result.h"
#include "src/common/shared_bytes.h"
#include "src/common/time.h"

namespace leases {

enum class MsgType : uint8_t {
  kReadRequest = 1,
  kReadReply = 2,
  kWriteRequest = 3,
  kWriteReply = 4,
  kExtendRequest = 5,
  kExtendReply = 6,
  kApproveRequest = 7,
  kApproveReply = 8,
  kRelinquish = 9,
  kInstalledExtend = 10,
  // Replicated authority plane (src/replica): PaxosLease-style acquisition
  // of the *server* lease -- who is the grant authority.
  kAuthorityPrepare = 20,
  kAuthorityPromise = 21,
  kAuthorityPropose = 22,
  kAuthorityAccept = 23,
  kPing = 100,
  kPong = 101,
};

// How the server classifies the covered datum; clients route temporary files
// locally and know installed files are renewed by multicast.
enum class FileClass : uint8_t {
  kNormal = 0,
  kInstalled = 1,   // widely shared, read-mostly (commands, headers, libs)
  kTemporary = 2,   // handled client-locally, never written through
  kDirectory = 3,   // name-to-file bindings + permission records
};

const char* FileClassName(FileClass cls);

// A lease grant as shipped on the wire: which cover key it is for and for
// how long, measured from receipt. A zero term grants no caching rights
// (used while a write is pending to avoid starving it, footnote 1).
struct LeaseGrant {
  LeaseKey key;
  Duration term;
};

struct ReadRequest {
  RequestId req;
  FileId file;
  // Version already held by the cache, or 0. Lets the server reply
  // "not modified" without resending data.
  uint64_t have_version = 0;
  // Sender's local clock (microseconds) at send time, or 0 if not stamped.
  // Estimation-only: feeds the server's ClockErrorEstimator and never
  // enters protocol arithmetic -- terms still travel as durations and no
  // remote clock value is ever trusted (Section 5).
  uint64_t clock_us = 0;
};

struct ReadReply {
  RequestId req;
  FileId file;
  ErrorCode status = ErrorCode::kOk;
  uint64_t version = 0;
  bool not_modified = false;
  FileClass file_class = FileClass::kNormal;
  LeaseGrant lease;
  SharedBytes data;
};

struct ExtendItem {
  FileId file;
  uint64_t version = 0;
};

struct ExtendRequest {
  RequestId req;
  std::vector<ExtendItem> items;
  // Sender's local clock at send time; see ReadRequest::clock_us.
  uint64_t clock_us = 0;
};

struct ExtendReplyItem {
  FileId file;
  ErrorCode status = ErrorCode::kOk;
  uint64_t version = 0;
  // True if `data` holds fresh contents (the cache's version was stale).
  bool refreshed = false;
  FileClass file_class = FileClass::kNormal;
  LeaseGrant lease;
  SharedBytes data;
};

struct ExtendReply {
  RequestId req;
  std::vector<ExtendReplyItem> items;
};

struct WriteRequest {
  RequestId req;
  FileId file;
  // Expected current version (optimistic check); 0 means blind write.
  uint64_t base_version = 0;
  SharedBytes data;
};

struct WriteReply {
  RequestId req;
  FileId file;
  ErrorCode status = ErrorCode::kOk;
  uint64_t version = 0;
};

struct ApproveRequest {
  // Identifies the pending write; replies echo it so retransmitted requests
  // pair up correctly.
  uint64_t write_seq = 0;
  FileId file;
  // Cover key of the lease being consulted, so the holder can decide whether
  // to relinquish the whole key.
  LeaseKey key;
};

struct ApproveReply {
  uint64_t write_seq = 0;
  FileId file;
  // Holder additionally gives up the whole cover key (it caches nothing
  // else under it), sparing future writes a callback to this client.
  bool relinquish_key = false;
};

struct Relinquish {
  std::vector<LeaseKey> keys;
};

struct InstalledExtend {
  Duration term;
  std::vector<LeaseKey> keys;
};

struct Ping {
  RequestId req;
};

struct Pong {
  RequestId req;
};

// --- Replicated authority plane (src/replica/authority.*) ---
//
// PaxosLease-style diskless acquisition of the authority lease. Like client
// leases, authority terms and inheritance bounds travel as *remaining
// durations*, never absolute times, so only bounded drift is assumed.

// Proposer -> acceptors: phase 1, claim ballot `ballot`.
struct AuthorityPrepare {
  uint64_t ballot = 0;
};

// Acceptor -> proposer: phase 1 answer. With ok, reports any unexpired
// accepted authority lease plus the acceptor's client-grant inheritance
// bound (how long a new holder must hold writes to outlast every grant the
// previous holder could have issued). Also carries the acceptor's view of
// the replica membership (config_epoch/members, plus the pending joint
// set while a reconfiguration is in flight) so a proposer with a stale
// member list adopts the newer one before it can win a quorum against it.
struct AuthorityPromise {
  uint64_t ballot = 0;  // echoed prepare ballot
  bool ok = false;      // false: already promised `promised` >= ballot
  uint64_t promised = 0;
  uint32_t holder = 0;  // accepted authority owner; 0 = none unexpired
  Duration holder_remaining;  // remaining accepted authority lease
  Duration bound_remaining;   // remaining inheritance bound
  uint64_t config_epoch = 0;
  std::vector<uint32_t> members;       // committed membership (NodeId values)
  std::vector<uint32_t> next_members;  // pending joint set; empty = none
};

// Proposer -> acceptors: phase 2, acquire or renew the authority lease.
// `grant_horizon` piggybacks the owner's actual outstanding client-grant
// horizon (max remaining client-lease expiry) so acceptors track the
// inheritance bound without durable state. The membership fields
// disseminate the holder's committed (and, mid-reconfiguration, pending)
// member sets; `write_locked` lists files with a write in flight at the
// holder so read-only standbys refuse to serve them (truncated lists set
// `write_locked_overflow`, which disables standby reads entirely).
struct AuthorityPropose {
  uint64_t ballot = 0;
  uint32_t owner = 0;
  Duration term;           // authority lease term, measured from receipt
  Duration grant_horizon;  // outstanding client-grant horizon at the owner
  uint64_t config_epoch = 0;
  std::vector<uint32_t> members;
  std::vector<uint32_t> next_members;
  std::vector<uint64_t> write_locked;  // FileId values with writes in flight
  bool write_locked_overflow = false;
};

// Acceptor -> proposer: phase 2 answer. Echoes the acceptor's membership
// view exactly like AuthorityPromise.
struct AuthorityAccept {
  uint64_t ballot = 0;
  bool ok = false;
  uint64_t promised = 0;  // on !ok: the ballot that outbid this one
  uint64_t config_epoch = 0;
  std::vector<uint32_t> members;
  std::vector<uint32_t> next_members;
};

using Packet =
    std::variant<ReadRequest, ReadReply, WriteRequest, WriteReply,
                 ExtendRequest, ExtendReply, ApproveRequest, ApproveReply,
                 Relinquish, InstalledExtend, Ping, Pong, AuthorityPrepare,
                 AuthorityPromise, AuthorityPropose, AuthorityAccept>;

// Serializes a packet (1-byte type tag + body).
std::vector<uint8_t> EncodePacket(const Packet& packet);

// Serializes a packet appending to `out`. Callers that clear and reuse one
// buffer across encodes stop allocating once its capacity has grown to the
// largest message seen (the UDP send path and the lazy tracer hook do this).
void EncodePacketInto(const Packet& packet, std::vector<uint8_t>* out);

// Wire tag of a packet without encoding it.
MsgType PacketType(const Packet& packet);

// Parses a datagram; returns nullopt on any truncation or unknown type.
std::optional<Packet> DecodePacket(std::span<const uint8_t> bytes);

// Human-readable packet summary for logging.
std::string PacketName(const Packet& packet);

}  // namespace leases

#endif  // SRC_PROTO_MESSAGES_H_
