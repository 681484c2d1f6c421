#include "src/net/transport.h"

#include <optional>

#include "src/common/logging.h"

namespace leases {

void PacketHandler::HandlePacket(NodeId from, MessageClass cls,
                                 std::span<const uint8_t> bytes) {
  std::optional<Packet> packet = DecodePacket(bytes);
  if (!packet.has_value()) {
    LEASES_WARN("malformed packet from %u", from.value());
    return;
  }
  HandleTyped(from, cls, *packet);
}

void PacketHandler::HandleTyped(NodeId from, MessageClass cls,
                                const Packet& packet) {
  std::vector<uint8_t> bytes = EncodePacket(packet);
  HandlePacket(from, cls, bytes);
}

void Transport::Send(NodeId dst, MessageClass cls,
                     std::vector<uint8_t> bytes) {
  std::optional<Packet> packet = DecodePacket(bytes);
  if (!packet.has_value()) {
    LEASES_WARN("node %u: dropping malformed send to %u",
                local_node().value(), dst.value());
    return;
  }
  Send(dst, cls, std::move(*packet));
}

void Transport::Multicast(std::span<const NodeId> dst, MessageClass cls,
                          std::vector<uint8_t> bytes) {
  std::optional<Packet> packet = DecodePacket(bytes);
  if (!packet.has_value()) {
    LEASES_WARN("node %u: dropping malformed multicast", local_node().value());
    return;
  }
  Multicast(dst, cls, std::move(*packet));
}

}  // namespace leases
