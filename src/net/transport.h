// Transport abstraction shared by the simulator and the real UDP runtime.
//
// The lease protocol is written entirely against this interface, so the same
// LeaseServer / CacheClient state machines run deterministically in
// simulation and over real sockets.
//
// Multicast takes an explicit recipient list: the paper's V system used
// hardware host groups [5,6]; what matters to the analysis is the *cost
// model* -- a multicast is sent once (one send-side processing charge) and
// received by each recipient -- which both backends honour.
//
// There is one message path: protocol objects send and receive the Packet
// variant itself (Transport::Send/Multicast with a Packet,
// PacketHandler::HandleTyped). Bytes exist only at the edge where a real
// datagram is built or received -- UdpTransport encodes on send and hands
// received payloads to PacketHandler::HandlePacket, whose one default body
// decodes and calls HandleTyped. The simulator never serializes, except in
// its codec-conformance mode, which round-trips every packet through the
// wire codec.
#ifndef SRC_NET_TRANSPORT_H_
#define SRC_NET_TRANSPORT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/ids.h"
#include "src/proto/messages.h"

namespace leases {

// Coarse classification used for the paper's load accounting: Figure 1 plots
// *consistency-related* messages (lease extensions, approvals, invalidations)
// separately from file data transfer.
enum class MessageClass : uint8_t {
  kData = 0,         // file reads/writes payload traffic
  kConsistency = 1,  // lease grants/extensions/approvals/relinquishes
  kControl = 2,      // everything else (e.g. clock sync, test harness)
};

inline constexpr int kNumMessageClasses = 3;

// A handler overrides at least one of the two entry points; each default
// forwards to the other. Protocol objects implement HandleTyped only.
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;

  // Wire delivery of an encoded payload. The default decodes it, drops an
  // undecodable payload with a warning, and otherwise calls HandleTyped.
  virtual void HandlePacket(NodeId from, MessageClass cls,
                            std::span<const uint8_t> bytes);

  // Typed delivery. `packet` is immutable and may be shared between the
  // recipients of one multicast -- copy any payload you keep. The default
  // encodes and calls HandlePacket, for decorators that observe the wire
  // form.
  virtual void HandleTyped(NodeId from, MessageClass cls, const Packet& packet);
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual NodeId local_node() const = 0;

  // Fire-and-forget datagram send. Loss, delay and reordering are the
  // backend's business; the protocol handles them with timeouts.
  virtual void Send(NodeId dst, MessageClass cls, Packet packet) = 0;

  // One logical multicast delivered to every listed recipient. The sender
  // pays one processing charge regardless of fan-out.
  virtual void Multicast(std::span<const NodeId> dst, MessageClass cls,
                         Packet packet) = 0;

  // Sends of an already-encoded payload. The default decodes it and
  // forwards to the typed overload; an undecodable payload is dropped with
  // a warning and never reaches the backend.
  virtual void Send(NodeId dst, MessageClass cls, std::vector<uint8_t> bytes);
  virtual void Multicast(std::span<const NodeId> dst, MessageClass cls,
                         std::vector<uint8_t> bytes);
};

}  // namespace leases

#endif  // SRC_NET_TRANSPORT_H_
