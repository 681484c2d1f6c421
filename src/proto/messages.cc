#include "src/proto/messages.h"

#include "src/common/codec.h"

namespace leases {
namespace {

void EncodeLease(Writer& w, const LeaseGrant& lease) {
  w.WriteId(lease.key);
  w.WriteDuration(lease.term);
}

LeaseGrant DecodeLease(Reader& r) {
  LeaseGrant g;
  g.key = r.ReadId<LeaseKey>();
  g.term = r.ReadDuration();
  return g;
}

void EncodeBody(Writer& w, const ReadRequest& m) {
  w.WriteId(m.req);
  w.WriteId(m.file);
  w.WriteU64(m.have_version);
  w.WriteU64(m.clock_us);
}

void EncodeBody(Writer& w, const ReadReply& m) {
  w.WriteId(m.req);
  w.WriteId(m.file);
  w.WriteU8(static_cast<uint8_t>(m.status));
  w.WriteU64(m.version);
  w.WriteBool(m.not_modified);
  w.WriteU8(static_cast<uint8_t>(m.file_class));
  EncodeLease(w, m.lease);
  w.WriteBytes(m.data);
}

void EncodeBody(Writer& w, const ExtendRequest& m) {
  w.WriteId(m.req);
  w.WriteU32(static_cast<uint32_t>(m.items.size()));
  for (const ExtendItem& item : m.items) {
    w.WriteId(item.file);
    w.WriteU64(item.version);
  }
  w.WriteU64(m.clock_us);
}

void EncodeBody(Writer& w, const ExtendReply& m) {
  w.WriteId(m.req);
  w.WriteU32(static_cast<uint32_t>(m.items.size()));
  for (const ExtendReplyItem& item : m.items) {
    w.WriteId(item.file);
    w.WriteU8(static_cast<uint8_t>(item.status));
    w.WriteU64(item.version);
    w.WriteBool(item.refreshed);
    w.WriteU8(static_cast<uint8_t>(item.file_class));
    EncodeLease(w, item.lease);
    w.WriteBytes(item.data);
  }
}

void EncodeBody(Writer& w, const WriteRequest& m) {
  w.WriteId(m.req);
  w.WriteId(m.file);
  w.WriteU64(m.base_version);
  w.WriteBytes(m.data);
}

void EncodeBody(Writer& w, const WriteReply& m) {
  w.WriteId(m.req);
  w.WriteId(m.file);
  w.WriteU8(static_cast<uint8_t>(m.status));
  w.WriteU64(m.version);
}

void EncodeBody(Writer& w, const ApproveRequest& m) {
  w.WriteU64(m.write_seq);
  w.WriteId(m.file);
  w.WriteId(m.key);
}

void EncodeBody(Writer& w, const ApproveReply& m) {
  w.WriteU64(m.write_seq);
  w.WriteId(m.file);
  w.WriteBool(m.relinquish_key);
}

void EncodeBody(Writer& w, const Relinquish& m) {
  w.WriteU32(static_cast<uint32_t>(m.keys.size()));
  for (LeaseKey key : m.keys) {
    w.WriteId(key);
  }
}

void EncodeBody(Writer& w, const InstalledExtend& m) {
  w.WriteDuration(m.term);
  w.WriteU32(static_cast<uint32_t>(m.keys.size()));
  for (LeaseKey key : m.keys) {
    w.WriteId(key);
  }
}

void EncodeBody(Writer& w, const Ping& m) { w.WriteId(m.req); }
void EncodeBody(Writer& w, const Pong& m) { w.WriteId(m.req); }

void EncodeBody(Writer& w, const AuthorityPrepare& m) {
  w.WriteU64(m.ballot);
}

void EncodeMembers(Writer& w, uint64_t epoch,
                   const std::vector<uint32_t>& members,
                   const std::vector<uint32_t>& next_members) {
  w.WriteU64(epoch);
  w.WriteU32(static_cast<uint32_t>(members.size()));
  for (uint32_t id : members) {
    w.WriteU32(id);
  }
  w.WriteU32(static_cast<uint32_t>(next_members.size()));
  for (uint32_t id : next_members) {
    w.WriteU32(id);
  }
}

void EncodeBody(Writer& w, const AuthorityPromise& m) {
  w.WriteU64(m.ballot);
  w.WriteBool(m.ok);
  w.WriteU64(m.promised);
  w.WriteU32(m.holder);
  w.WriteDuration(m.holder_remaining);
  w.WriteDuration(m.bound_remaining);
  EncodeMembers(w, m.config_epoch, m.members, m.next_members);
}

void EncodeBody(Writer& w, const AuthorityPropose& m) {
  w.WriteU64(m.ballot);
  w.WriteU32(m.owner);
  w.WriteDuration(m.term);
  w.WriteDuration(m.grant_horizon);
  EncodeMembers(w, m.config_epoch, m.members, m.next_members);
  w.WriteU32(static_cast<uint32_t>(m.write_locked.size()));
  for (uint64_t file : m.write_locked) {
    w.WriteU64(file);
  }
  w.WriteBool(m.write_locked_overflow);
}

void EncodeBody(Writer& w, const AuthorityAccept& m) {
  w.WriteU64(m.ballot);
  w.WriteBool(m.ok);
  w.WriteU64(m.promised);
  EncodeMembers(w, m.config_epoch, m.members, m.next_members);
}

MsgType TypeOf(const Packet& packet) {
  struct Visitor {
    MsgType operator()(const ReadRequest&) { return MsgType::kReadRequest; }
    MsgType operator()(const ReadReply&) { return MsgType::kReadReply; }
    MsgType operator()(const WriteRequest&) { return MsgType::kWriteRequest; }
    MsgType operator()(const WriteReply&) { return MsgType::kWriteReply; }
    MsgType operator()(const ExtendRequest&) { return MsgType::kExtendRequest; }
    MsgType operator()(const ExtendReply&) { return MsgType::kExtendReply; }
    MsgType operator()(const ApproveRequest&) {
      return MsgType::kApproveRequest;
    }
    MsgType operator()(const ApproveReply&) { return MsgType::kApproveReply; }
    MsgType operator()(const Relinquish&) { return MsgType::kRelinquish; }
    MsgType operator()(const InstalledExtend&) {
      return MsgType::kInstalledExtend;
    }
    MsgType operator()(const Ping&) { return MsgType::kPing; }
    MsgType operator()(const Pong&) { return MsgType::kPong; }
    MsgType operator()(const AuthorityPrepare&) {
      return MsgType::kAuthorityPrepare;
    }
    MsgType operator()(const AuthorityPromise&) {
      return MsgType::kAuthorityPromise;
    }
    MsgType operator()(const AuthorityPropose&) {
      return MsgType::kAuthorityPropose;
    }
    MsgType operator()(const AuthorityAccept&) {
      return MsgType::kAuthorityAccept;
    }
  };
  return std::visit(Visitor{}, packet);
}

ErrorCode DecodeStatus(Reader& r) {
  return static_cast<ErrorCode>(r.ReadU8());
}

FileClass DecodeClass(Reader& r) {
  return static_cast<FileClass>(r.ReadU8());
}

bool DecodeMembers(Reader& r, uint64_t* epoch, std::vector<uint32_t>* members,
                   std::vector<uint32_t>* next_members) {
  *epoch = r.ReadU64();
  uint32_t n = r.ReadU32();
  if (n > r.Remaining()) {
    return false;
  }
  members->reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    members->push_back(r.ReadU32());
  }
  uint32_t k = r.ReadU32();
  if (k > r.Remaining()) {
    return false;
  }
  next_members->reserve(k);
  for (uint32_t i = 0; i < k && r.ok(); ++i) {
    next_members->push_back(r.ReadU32());
  }
  return true;
}

std::optional<Packet> DecodeBody(MsgType type, Reader& r) {
  switch (type) {
    case MsgType::kReadRequest: {
      ReadRequest m;
      m.req = r.ReadId<RequestId>();
      m.file = r.ReadId<FileId>();
      m.have_version = r.ReadU64();
      m.clock_us = r.ReadU64();
      return Packet(m);
    }
    case MsgType::kReadReply: {
      ReadReply m;
      m.req = r.ReadId<RequestId>();
      m.file = r.ReadId<FileId>();
      m.status = DecodeStatus(r);
      m.version = r.ReadU64();
      m.not_modified = r.ReadBool();
      m.file_class = DecodeClass(r);
      m.lease = DecodeLease(r);
      m.data = SharedBytes(r.ReadByteView());
      return Packet(std::move(m));
    }
    case MsgType::kWriteRequest: {
      WriteRequest m;
      m.req = r.ReadId<RequestId>();
      m.file = r.ReadId<FileId>();
      m.base_version = r.ReadU64();
      m.data = SharedBytes(r.ReadByteView());
      return Packet(std::move(m));
    }
    case MsgType::kWriteReply: {
      WriteReply m;
      m.req = r.ReadId<RequestId>();
      m.file = r.ReadId<FileId>();
      m.status = DecodeStatus(r);
      m.version = r.ReadU64();
      return Packet(m);
    }
    case MsgType::kExtendRequest: {
      ExtendRequest m;
      m.req = r.ReadId<RequestId>();
      uint32_t n = r.ReadU32();
      if (n > r.Remaining()) {
        return std::nullopt;  // each item is >1 byte; cheap sanity bound
      }
      m.items.reserve(n);
      for (uint32_t i = 0; i < n && r.ok(); ++i) {
        ExtendItem item;
        item.file = r.ReadId<FileId>();
        item.version = r.ReadU64();
        m.items.push_back(item);
      }
      m.clock_us = r.ReadU64();
      return Packet(std::move(m));
    }
    case MsgType::kExtendReply: {
      ExtendReply m;
      m.req = r.ReadId<RequestId>();
      uint32_t n = r.ReadU32();
      if (n > r.Remaining()) {
        return std::nullopt;
      }
      m.items.reserve(n);
      for (uint32_t i = 0; i < n && r.ok(); ++i) {
        ExtendReplyItem item;
        item.file = r.ReadId<FileId>();
        item.status = DecodeStatus(r);
        item.version = r.ReadU64();
        item.refreshed = r.ReadBool();
        item.file_class = DecodeClass(r);
        item.lease = DecodeLease(r);
        item.data = SharedBytes(r.ReadByteView());
        m.items.push_back(std::move(item));
      }
      return Packet(std::move(m));
    }
    case MsgType::kApproveRequest: {
      ApproveRequest m;
      m.write_seq = r.ReadU64();
      m.file = r.ReadId<FileId>();
      m.key = r.ReadId<LeaseKey>();
      return Packet(m);
    }
    case MsgType::kApproveReply: {
      ApproveReply m;
      m.write_seq = r.ReadU64();
      m.file = r.ReadId<FileId>();
      m.relinquish_key = r.ReadBool();
      return Packet(m);
    }
    case MsgType::kRelinquish: {
      Relinquish m;
      uint32_t n = r.ReadU32();
      if (n > r.Remaining()) {
        return std::nullopt;
      }
      m.keys.reserve(n);
      for (uint32_t i = 0; i < n && r.ok(); ++i) {
        m.keys.push_back(r.ReadId<LeaseKey>());
      }
      return Packet(std::move(m));
    }
    case MsgType::kInstalledExtend: {
      InstalledExtend m;
      m.term = r.ReadDuration();
      uint32_t n = r.ReadU32();
      if (n > r.Remaining()) {
        return std::nullopt;
      }
      m.keys.reserve(n);
      for (uint32_t i = 0; i < n && r.ok(); ++i) {
        m.keys.push_back(r.ReadId<LeaseKey>());
      }
      return Packet(std::move(m));
    }
    case MsgType::kPing: {
      Ping m;
      m.req = r.ReadId<RequestId>();
      return Packet(m);
    }
    case MsgType::kPong: {
      Pong m;
      m.req = r.ReadId<RequestId>();
      return Packet(m);
    }
    case MsgType::kAuthorityPrepare: {
      AuthorityPrepare m;
      m.ballot = r.ReadU64();
      return Packet(m);
    }
    case MsgType::kAuthorityPromise: {
      AuthorityPromise m;
      m.ballot = r.ReadU64();
      m.ok = r.ReadBool();
      m.promised = r.ReadU64();
      m.holder = r.ReadU32();
      m.holder_remaining = r.ReadDuration();
      m.bound_remaining = r.ReadDuration();
      if (!DecodeMembers(r, &m.config_epoch, &m.members, &m.next_members)) {
        return std::nullopt;
      }
      return Packet(std::move(m));
    }
    case MsgType::kAuthorityPropose: {
      AuthorityPropose m;
      m.ballot = r.ReadU64();
      m.owner = r.ReadU32();
      m.term = r.ReadDuration();
      m.grant_horizon = r.ReadDuration();
      if (!DecodeMembers(r, &m.config_epoch, &m.members, &m.next_members)) {
        return std::nullopt;
      }
      uint32_t n = r.ReadU32();
      if (n > r.Remaining()) {
        return std::nullopt;
      }
      m.write_locked.reserve(n);
      for (uint32_t i = 0; i < n && r.ok(); ++i) {
        m.write_locked.push_back(r.ReadU64());
      }
      m.write_locked_overflow = r.ReadBool();
      return Packet(std::move(m));
    }
    case MsgType::kAuthorityAccept: {
      AuthorityAccept m;
      m.ballot = r.ReadU64();
      m.ok = r.ReadBool();
      m.promised = r.ReadU64();
      if (!DecodeMembers(r, &m.config_epoch, &m.members, &m.next_members)) {
        return std::nullopt;
      }
      return Packet(std::move(m));
    }
  }
  return std::nullopt;
}

}  // namespace

const char* FileClassName(FileClass cls) {
  switch (cls) {
    case FileClass::kNormal:
      return "normal";
    case FileClass::kInstalled:
      return "installed";
    case FileClass::kTemporary:
      return "temporary";
    case FileClass::kDirectory:
      return "directory";
  }
  return "?";
}

std::vector<uint8_t> EncodePacket(const Packet& packet) {
  std::vector<uint8_t> out;
  EncodePacketInto(packet, &out);
  return out;
}

void EncodePacketInto(const Packet& packet, std::vector<uint8_t>* out) {
  Writer w(out);
  w.WriteU8(static_cast<uint8_t>(TypeOf(packet)));
  std::visit([&w](const auto& m) { EncodeBody(w, m); }, packet);
}

MsgType PacketType(const Packet& packet) { return TypeOf(packet); }

std::optional<Packet> DecodePacket(std::span<const uint8_t> bytes) {
  Reader r(bytes);
  auto type = static_cast<MsgType>(r.ReadU8());
  if (!r.ok()) {
    return std::nullopt;
  }
  std::optional<Packet> packet = DecodeBody(type, r);
  if (!packet.has_value() || !r.ok()) {
    return std::nullopt;
  }
  return packet;
}

std::string PacketName(const Packet& packet) {
  switch (TypeOf(packet)) {
    case MsgType::kReadRequest:
      return "ReadRequest";
    case MsgType::kReadReply:
      return "ReadReply";
    case MsgType::kWriteRequest:
      return "WriteRequest";
    case MsgType::kWriteReply:
      return "WriteReply";
    case MsgType::kExtendRequest:
      return "ExtendRequest";
    case MsgType::kExtendReply:
      return "ExtendReply";
    case MsgType::kApproveRequest:
      return "ApproveRequest";
    case MsgType::kApproveReply:
      return "ApproveReply";
    case MsgType::kRelinquish:
      return "Relinquish";
    case MsgType::kInstalledExtend:
      return "InstalledExtend";
    case MsgType::kPing:
      return "Ping";
    case MsgType::kPong:
      return "Pong";
    case MsgType::kAuthorityPrepare:
      return "AuthorityPrepare";
    case MsgType::kAuthorityPromise:
      return "AuthorityPromise";
    case MsgType::kAuthorityPropose:
      return "AuthorityPropose";
    case MsgType::kAuthorityAccept:
      return "AuthorityAccept";
  }
  return "?";
}

}  // namespace leases
