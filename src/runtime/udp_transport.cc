#include "src/runtime/udp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace leases {
namespace {

constexpr size_t kMaxDatagram = 60 * 1024;
constexpr size_t kHeaderSize = 5;  // u32 sender + u8 class
// Datagrams taken per ::recvmmsg; a loaded socket amortizes the syscall
// across the burst, and level-triggered readiness brings the loop back for
// the rest.
constexpr unsigned kRecvBatch = 16;

}  // namespace

// The recvmmsg headers and their buffers. The buffers are left
// uninitialized, so only pages the kernel writes a datagram into become
// resident -- a few KiB per slot, not the 60 KiB each slot reserves.
struct UdpTransport::ReceiveBatch {
  ReceiveBatch() : data(new uint8_t[kRecvBatch * kMaxDatagram]) {
    for (unsigned i = 0; i < kRecvBatch; ++i) {
      iovs[i] = {data.get() + i * kMaxDatagram, kMaxDatagram};
      std::memset(&msgs[i], 0, sizeof(msgs[i]));
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
  }
  const uint8_t* frame(unsigned i) const {
    return data.get() + i * kMaxDatagram;
  }

  std::unique_ptr<uint8_t[]> data;
  mmsghdr msgs[kRecvBatch];
  iovec iovs[kRecvBatch];
};

UdpTransport::UdpTransport(NodeId self, EventLoop* loop,
                           PacketHandler* handler)
    : self_(self),
      own_loop_(loop == nullptr ? std::make_unique<EventLoop>() : nullptr),
      loop_(loop == nullptr ? own_loop_.get() : loop),
      handler_(handler) {}

UdpTransport::~UdpTransport() { Stop(); }

Status UdpTransport::Start(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) {
    return Status(ErrorCode::kUnavailable, "socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return Status(ErrorCode::kUnavailable, "bind() failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd_);
    fd_ = -1;
    return Status(ErrorCode::kUnavailable, "getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
  if (recv_ == nullptr) {
    recv_ = std::make_unique<ReceiveBatch>();
  }
  loop_->Watch(fd_, [this]() { OnReadable(); });
  return Status::Ok();
}

void UdpTransport::Stop() {
  if (fd_ < 0) {
    return;
  }
  loop_->Unwatch(fd_);
  std::lock_guard<std::mutex> lock(fd_mu_);
  ::close(fd_);
  fd_ = -1;
}

void UdpTransport::AddPeer(NodeId peer, uint16_t port) {
  std::lock_guard<std::mutex> lock(mu_);
  peers_[peer] = port;
}

void UdpTransport::WriteHeader(NodeId sender, MessageClass cls,
                               std::vector<uint8_t>* frame) {
  frame->clear();
  uint32_t id = sender.value();
  frame->push_back(static_cast<uint8_t>(id));
  frame->push_back(static_cast<uint8_t>(id >> 8));
  frame->push_back(static_cast<uint8_t>(id >> 16));
  frame->push_back(static_cast<uint8_t>(id >> 24));
  frame->push_back(static_cast<uint8_t>(cls));
}

bool UdpTransport::ResolvePeer(NodeId dst, struct sockaddr_in* addr) {
  uint16_t port = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = peers_.find(dst);
    if (it == peers_.end()) {
      LEASES_WARN("udp %u: no peer registered for node %u", self_.value(),
                  dst.value());
      stats_.send_failures++;
      return false;
    }
    port = it->second;
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr->sin_port = htons(port);
  return true;
}

void UdpTransport::CountSendFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.send_failures++;
}

void UdpTransport::SendFrame(NodeId dst, MessageClass /*cls*/,
                             const std::vector<uint8_t>& frame) {
  sockaddr_in addr;
  if (!ResolvePeer(dst, &addr)) {
    return;
  }
  ssize_t sent;
  {
    std::lock_guard<std::mutex> lock(fd_mu_);
    if (fd_ < 0) {
      return;  // transport already stopped
    }
    sent = ::sendto(fd_, frame.data(), frame.size(), 0,
                    reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  }
  // A failed or partial sendto silently looks like wire loss to the
  // protocol (which survives it), but it is *local* overload, not the
  // network -- count it so operators can tell the two apart.
  if (sent < 0 || static_cast<size_t>(sent) != frame.size()) {
    CountSendFailure();
  }
}

void UdpTransport::EncodeFrameLocked(MessageClass cls, const Packet& packet) {
  WriteHeader(self_, cls, &send_frame_);
  EncodePacketInto(packet, &send_frame_);
  LEASES_CHECK(send_frame_.size() <= kMaxDatagram);
  std::lock_guard<std::mutex> stats_lock(mu_);
  stats_.sent[static_cast<int>(cls)]++;
}

void UdpTransport::Send(NodeId dst, MessageClass cls, Packet packet) {
  std::lock_guard<std::mutex> lock(send_mu_);
  EncodeFrameLocked(cls, packet);
  SendFrame(dst, cls, send_frame_);
}

void UdpTransport::Multicast(std::span<const NodeId> dst, MessageClass cls,
                             Packet packet) {
  std::lock_guard<std::mutex> lock(send_mu_);
  // One logical send, per the paper's multicast cost model.
  EncodeFrameLocked(cls, packet);
  for (NodeId node : dst) {
    if (node != self_) {
      SendFrame(node, cls, send_frame_);
    }
  }
}

void UdpTransport::OnReadable() {
  ReceiveBatch& batch = *recv_;
  int got = ::recvmmsg(fd_, batch.msgs, kRecvBatch, MSG_DONTWAIT, nullptr);
  for (int m = 0; m < got; ++m) {
    const uint8_t* frame = batch.frame(static_cast<unsigned>(m));
    const size_t n = batch.msgs[m].msg_len;
    if (n < kHeaderSize || frame[4] >= kNumMessageClasses) {
      malformed_.fetch_add(1, std::memory_order_relaxed);  // runt or bad class
      continue;
    }
    uint32_t sender = static_cast<uint32_t>(frame[0]) |
                      (static_cast<uint32_t>(frame[1]) << 8) |
                      (static_cast<uint32_t>(frame[2]) << 16) |
                      (static_cast<uint32_t>(frame[3]) << 24);
    auto cls = static_cast<MessageClass>(frame[4]);
    received_[frame[4]].fetch_add(1, std::memory_order_relaxed);
    std::span<const uint8_t> payload(frame + kHeaderSize, n - kHeaderSize);
    if (raw_handler_) {
      raw_handler_(NodeId(sender), cls, payload);
    } else if (PacketHandler* handler = handler_.load()) {
      handler->HandlePacket(NodeId(sender), cls, payload);
    }
  }
}

NodeMessageStats UdpTransport::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  NodeMessageStats merged = stats_;
  for (int cls = 0; cls < kNumMessageClasses; ++cls) {
    merged.received[cls] = received_[cls].load(std::memory_order_relaxed);
  }
  merged.malformed = malformed_.load(std::memory_order_relaxed);
  for (const std::atomic<uint64_t>* counters : batch_counters_) {
    for (int cls = 0; cls < kNumMessageClasses; ++cls) {
      merged.sent[cls] += counters[cls].load(std::memory_order_relaxed);
    }
  }
  return merged;
}

void UdpTransport::RegisterBatchCounters(
    const std::atomic<uint64_t>* counters) {
  std::lock_guard<std::mutex> lock(mu_);
  batch_counters_.push_back(counters);
}

void UdpTransport::UnregisterBatchCounters(
    const std::atomic<uint64_t>* counters) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = batch_counters_.begin(); it != batch_counters_.end(); ++it) {
    if (*it == counters) {
      // Fold the departing sender's totals into the transport's own
      // counters so stats() never goes backwards.
      for (int cls = 0; cls < kNumMessageClasses; ++cls) {
        stats_.sent[cls] += counters[cls].load(std::memory_order_relaxed);
      }
      batch_counters_.erase(it);
      return;
    }
  }
}

// --- UdpBatchSender ---

UdpBatchSender::UdpBatchSender(UdpTransport* transport, size_t max_batch)
    : transport_(transport),
      slots_(max_batch),
      msgs_(max_batch),
      iovs_(max_batch) {
  transport_->RegisterBatchCounters(sent_);
}

UdpBatchSender::~UdpBatchSender() {
  transport_->UnregisterBatchCounters(sent_);
}

UdpBatchSender::Slot* UdpBatchSender::NextSlot(NodeId dst) {
  if (pending_ == slots_.size()) {
    Flush();
  }
  Slot& slot = slots_[pending_];
  if (!transport_->ResolvePeer(dst, &slot.addr)) {
    return nullptr;  // unregistered peer; already counted as a send failure
  }
  ++pending_;
  return &slot;
}

void UdpBatchSender::CountSent(MessageClass cls) {
  // Hot path: shard-local relaxed increment. The old implementation locked
  // the shared transport mutex per queued datagram, serializing every
  // shard's send path on one lock under load.
  sent_[static_cast<int>(cls)].fetch_add(1, std::memory_order_relaxed);
}

void UdpBatchSender::QueueScratchTo(std::span<const NodeId> dst) {
  for (NodeId node : dst) {
    if (node == transport_->self_) {
      continue;
    }
    Slot* slot = NextSlot(node);
    if (slot == nullptr) {
      continue;
    }
    slot->frame = scratch_;
  }
}

void UdpBatchSender::Send(NodeId dst, MessageClass cls, Packet packet) {
  Slot* slot = NextSlot(dst);
  if (slot == nullptr) {
    return;
  }
  UdpTransport::WriteHeader(transport_->self_, cls, &slot->frame);
  EncodePacketInto(packet, &slot->frame);
  LEASES_CHECK(slot->frame.size() <= kMaxDatagram);
  CountSent(cls);
}

void UdpBatchSender::Multicast(std::span<const NodeId> dst, MessageClass cls,
                               Packet packet) {
  UdpTransport::WriteHeader(transport_->self_, cls, &scratch_);
  EncodePacketInto(packet, &scratch_);
  LEASES_CHECK(scratch_.size() <= kMaxDatagram);
  // One logical send, per the paper's multicast cost model.
  CountSent(cls);
  QueueScratchTo(dst);
}

void UdpBatchSender::Flush() {
  if (pending_ == 0) {
    return;
  }
  for (size_t i = 0; i < pending_; ++i) {
    iovs_[i] = {slots_[i].frame.data(), slots_[i].frame.size()};
    std::memset(&msgs_[i], 0, sizeof(msgs_[i]));
    msgs_[i].msg_hdr.msg_iov = &iovs_[i];
    msgs_[i].msg_hdr.msg_iovlen = 1;
    msgs_[i].msg_hdr.msg_name = &slots_[i].addr;
    msgs_[i].msg_hdr.msg_namelen = sizeof(slots_[i].addr);
  }
  size_t done = 0;
  {
    std::lock_guard<std::mutex> lock(transport_->fd_mu_);
    if (transport_->fd_ < 0) {
      pending_ = 0;
      return;  // transport stopped; like a crash, the batch is lost
    }
    while (done < pending_) {
      int sent = ::sendmmsg(transport_->fd_, msgs_.data() + done,
                            static_cast<unsigned>(pending_ - done), 0);
      if (sent <= 0) {
        break;
      }
      // A short datagram write within a successful sendmmsg is a failure
      // for that message only.
      for (int i = 0; i < sent; ++i) {
        if (msgs_[done + i].msg_len != slots_[done + i].frame.size()) {
          transport_->CountSendFailure();
        }
      }
      done += static_cast<size_t>(sent);
    }
  }
  for (size_t i = done; i < pending_; ++i) {
    transport_->CountSendFailure();
  }
  pending_ = 0;
}

}  // namespace leases
