#include "src/runtime/udp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace leases {
namespace {

constexpr size_t kMaxDatagram = 60 * 1024;
constexpr size_t kSenderSize = 4;  // u32 sender, once per datagram
constexpr size_t kRecordHeader = 5;  // u8 class + u32 length, per packet
// The largest record a datagram can carry.
constexpr size_t kMaxRecord = kMaxDatagram - kSenderSize;
// Datagrams taken per ::recvmmsg; a loaded socket amortizes the syscall
// across the burst, and level-triggered readiness brings the loop back for
// the rest.
constexpr unsigned kRecvBatch = 16;

uint32_t ReadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

void AppendU32(uint32_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

}  // namespace

// The recvmmsg headers and their buffers. The buffers are a private
// anonymous mapping of their own, so only pages the kernel writes a datagram
// into become resident -- a few KiB per slot, not the 60 KiB each slot
// reserves. (From malloc they would land, once glibc's dynamic mmap
// threshold has risen past their size, on heap pages an earlier owner
// already dirtied, and count in full.)
struct UdpTransport::ReceiveBatch {
  static constexpr size_t kBytes = kRecvBatch * kMaxDatagram;

  ReceiveBatch()
      : data(static_cast<uint8_t*>(::mmap(nullptr, kBytes,
                                          PROT_READ | PROT_WRITE,
                                          MAP_PRIVATE | MAP_ANONYMOUS, -1,
                                          0))) {
    LEASES_CHECK(data != MAP_FAILED);
    for (unsigned i = 0; i < kRecvBatch; ++i) {
      iovs[i] = {data + i * kMaxDatagram, kMaxDatagram};
      std::memset(&msgs[i], 0, sizeof(msgs[i]));
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
  }
  ~ReceiveBatch() { ::munmap(data, kBytes); }
  ReceiveBatch(const ReceiveBatch&) = delete;
  ReceiveBatch& operator=(const ReceiveBatch&) = delete;

  const uint8_t* frame(unsigned i) const { return data + i * kMaxDatagram; }

  uint8_t* data;
  mmsghdr msgs[kRecvBatch];
  iovec iovs[kRecvBatch];
};

UdpTransport::UdpTransport(NodeId self, EventLoop* loop,
                           PacketHandler* handler)
    : self_(self),
      own_loop_(loop == nullptr ? std::make_unique<EventLoop>() : nullptr),
      loop_(loop == nullptr ? own_loop_.get() : loop),
      handler_(handler),
      batch_(std::make_unique<UdpBatchSender>(this)) {}

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
  work_end_hook_ = loop_->AddWorkEndHook([this]() { FlushBatch(); });
  return Status::Ok();
}

void UdpTransport::Stop() {
  if (fd_ < 0) {
    return;
  }
  loop_->Unwatch(fd_);
  loop_->RemoveWorkEndHook(work_end_hook_);
  FlushBatch();  // what the current unit of work queued still leaves
  std::lock_guard<std::mutex> lock(fd_mu_);
  ::close(fd_);
  fd_ = -1;
}

void UdpTransport::AddPeer(NodeId peer, uint16_t port) {
  std::lock_guard<std::mutex> lock(mu_);
  peers_[peer] = port;
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

void UdpTransport::CountSendFailures(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.send_failures += n;
}

void UdpTransport::FlushBatch() {
  // Unit ends that sent nothing skip the lock. The flag is read on the
  // thread that ran the unit, which is the one that set it.
  if (!deferred_.load(std::memory_order_relaxed)) {
    return;
  }
  std::lock_guard<std::mutex> lock(batch_mu_);
  deferred_.store(false, std::memory_order_relaxed);
  batch_->Flush();
}

void UdpTransport::FlushOrDeferLocked() {
  if (loop_->InLoopWork()) {
    deferred_.store(true, std::memory_order_relaxed);
  } else {
    batch_->Flush();
  }
}

void UdpTransport::Send(NodeId dst, MessageClass cls, Packet packet) {
  std::lock_guard<std::mutex> lock(batch_mu_);
  batch_->Send(dst, cls, std::move(packet));
  FlushOrDeferLocked();
}

void UdpTransport::Multicast(std::span<const NodeId> dst, MessageClass cls,
                             Packet packet) {
  std::lock_guard<std::mutex> lock(batch_mu_);
  batch_->Multicast(dst, cls, std::move(packet));
  FlushOrDeferLocked();
}

void UdpTransport::OnReadable() {
  ReceiveBatch& batch = *recv_;
  int got = ::recvmmsg(fd_, batch.msgs, kRecvBatch, MSG_DONTWAIT, nullptr);
  if (got > 0) {
    datagrams_received_.fetch_add(static_cast<uint64_t>(got),
                                  std::memory_order_relaxed);
  }
  for (int m = 0; m < got; ++m) {
    const uint8_t* frame = batch.frame(static_cast<unsigned>(m));
    const size_t n = batch.msgs[m].msg_len;
    if (n < kSenderSize) {
      malformed_.fetch_add(1, std::memory_order_relaxed);  // runt
      continue;
    }
    const NodeId sender(ReadU32(frame));
    // Records are delivered in order; the first bad one (truncated header,
    // length past the end, unknown class) ends the datagram.
    size_t pos = kSenderSize;
    do {
      const size_t left = n - pos;
      if (left < kRecordHeader || frame[pos] >= kNumMessageClasses ||
          ReadU32(frame + pos + 1) > left - kRecordHeader) {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      auto cls = static_cast<MessageClass>(frame[pos]);
      std::span<const uint8_t> payload(frame + pos + kRecordHeader,
                                       ReadU32(frame + pos + 1));
      pos += kRecordHeader + payload.size();
      received_[static_cast<int>(cls)].fetch_add(1, std::memory_order_relaxed);
      if (raw_handler_) {
        raw_handler_(sender, cls, payload);
      } else if (PacketHandler* handler = handler_.load()) {
        handler->HandlePacket(sender, cls, payload);
      }
    } while (pos < n);
  }
}

NodeMessageStats UdpTransport::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  NodeMessageStats merged = stats_;
  for (int cls = 0; cls < kNumMessageClasses; ++cls) {
    merged.received[cls] = received_[cls].load(std::memory_order_relaxed);
  }
  merged.datagrams_received =
      datagrams_received_.load(std::memory_order_relaxed);
  merged.malformed = malformed_.load(std::memory_order_relaxed);
  for (const UdpBatchSender* sender : batchers_) {
    for (int cls = 0; cls < kNumMessageClasses; ++cls) {
      merged.sent[cls] += sender->sent_[cls].load(std::memory_order_relaxed);
    }
    merged.datagrams_sent +=
        sender->datagrams_.load(std::memory_order_relaxed);
  }
  return merged;
}

void UdpTransport::RegisterBatchSender(const UdpBatchSender* sender) {
  std::lock_guard<std::mutex> lock(mu_);
  batchers_.push_back(sender);
}

void UdpTransport::UnregisterBatchSender(const UdpBatchSender* sender) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = batchers_.begin(); it != batchers_.end(); ++it) {
    if (*it == sender) {
      // Fold the departing sender's totals into the transport's own
      // counters so stats() never goes backwards.
      for (int cls = 0; cls < kNumMessageClasses; ++cls) {
        stats_.sent[cls] += sender->sent_[cls].load(std::memory_order_relaxed);
      }
      stats_.datagrams_sent +=
          sender->datagrams_.load(std::memory_order_relaxed);
      batchers_.erase(it);
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
  transport_->RegisterBatchSender(this);
}

UdpBatchSender::~UdpBatchSender() { transport_->UnregisterBatchSender(this); }

bool UdpBatchSender::EncodeRecord(MessageClass cls, const Packet& packet) {
  record_.clear();
  record_.push_back(static_cast<uint8_t>(cls));
  AppendU32(0, &record_);  // the length, patched below
  EncodePacketInto(packet, &record_);
  if (record_.size() > kMaxRecord) {
    LEASES_WARN("udp %u: dropping a %zu-byte packet, over the %zu-byte "
                "datagram limit",
                transport_->self_.value(), record_.size() - kRecordHeader,
                kMaxRecord - kRecordHeader);
    transport_->CountSendFailures(1);
    return false;
  }
  const auto length = static_cast<uint32_t>(record_.size() - kRecordHeader);
  for (int i = 0; i < 4; ++i) {
    record_[1 + i] = static_cast<uint8_t>(length >> (8 * i));
  }
  return true;
}

bool UdpBatchSender::QueueRecord(NodeId dst) {
  // The latest datagram for `dst` takes the record while it fits, so
  // packets to one peer keep their order.
  for (size_t i = used_; i-- > 0;) {
    Slot& slot = slots_[i];
    if (slot.dst != dst) {
      continue;
    }
    if (slot.frame.size() + record_.size() <= kMaxDatagram) {
      slot.frame.insert(slot.frame.end(), record_.begin(), record_.end());
      ++slot.records;
      ++pending_;
      return true;
    }
    break;
  }
  if (used_ == slots_.size()) {
    Flush();
  }
  Slot& slot = slots_[used_];
  if (!transport_->ResolvePeer(dst, &slot.addr)) {
    return false;  // unregistered peer; already counted as a send failure
  }
  slot.dst = dst;
  slot.frame.clear();
  AppendU32(transport_->self_.value(), &slot.frame);
  slot.frame.insert(slot.frame.end(), record_.begin(), record_.end());
  slot.records = 1;
  ++used_;
  ++pending_;
  return true;
}

void UdpBatchSender::Send(NodeId dst, MessageClass cls, Packet packet) {
  if (EncodeRecord(cls, packet) && QueueRecord(dst)) {
    sent_[static_cast<int>(cls)].fetch_add(1, std::memory_order_relaxed);
  }
}

void UdpBatchSender::Multicast(std::span<const NodeId> dst, MessageClass cls,
                               Packet packet) {
  if (!EncodeRecord(cls, packet)) {
    return;
  }
  // One logical send, per the paper's multicast cost model.
  sent_[static_cast<int>(cls)].fetch_add(1, std::memory_order_relaxed);
  for (NodeId node : dst) {
    if (node != transport_->self_) {
      QueueRecord(node);
    }
  }
}

void UdpBatchSender::Flush() {
  if (used_ == 0) {
    return;
  }
  for (size_t i = 0; i < used_; ++i) {
    iovs_[i] = {slots_[i].frame.data(), slots_[i].frame.size()};
    std::memset(&msgs_[i], 0, sizeof(msgs_[i]));
    msgs_[i].msg_hdr.msg_iov = &iovs_[i];
    msgs_[i].msg_hdr.msg_iovlen = 1;
    msgs_[i].msg_hdr.msg_name = &slots_[i].addr;
    msgs_[i].msg_hdr.msg_namelen = sizeof(slots_[i].addr);
  }
  size_t done = 0;
  uint64_t lost = 0;  // packets in datagrams that did not leave whole
  {
    std::lock_guard<std::mutex> lock(transport_->fd_mu_);
    if (transport_->fd_ < 0) {
      used_ = 0;
      pending_ = 0;
      return;  // transport stopped; like a crash, the batch is lost
    }
    while (done < used_) {
      int sent = ::sendmmsg(transport_->fd_, msgs_.data() + done,
                            static_cast<unsigned>(used_ - done), 0);
      if (sent <= 0) {
        break;
      }
      // A short datagram write within a successful sendmmsg fails that
      // datagram only.
      for (int i = 0; i < sent; ++i) {
        if (msgs_[done + i].msg_len != slots_[done + i].frame.size()) {
          lost += slots_[done + i].records;
        }
      }
      done += static_cast<size_t>(sent);
    }
  }
  datagrams_.fetch_add(done, std::memory_order_relaxed);
  for (size_t i = done; i < used_; ++i) {
    lost += slots_[i].records;
  }
  // A failed send looks like wire loss to the protocol (which survives
  // it), but it is *local* overload, not the network -- count each lost
  // packet so operators can tell the two apart.
  if (lost > 0) {
    transport_->CountSendFailures(lost);
  }
  used_ = 0;
  pending_ = 0;
}

}  // namespace leases
