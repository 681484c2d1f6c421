// UDP datagram transport on localhost for the real-time runtime.
//
// The datagram, not the packet, is the unit put on the wire. A datagram is
// [sender NodeId u32 LE] followed by one or more records
// [MessageClass u8][length u32 LE][encoded Packet]: every packet a host
// sends to one peer in one unit of loop work shares a datagram, and every
// datagram of one flush leaves with one ::sendmmsg.
//
// The socket is watched by the owning node's EventLoop: each readiness event
// drains a ::recvmmsg batch and hands every record to the handler as loop
// work -- on the loop thread, or on a caller leading the loop -- straight
// from the receive buffers (no copy, no queue hop), which preserves the
// serialized execution model the protocol objects require.
// A multicast is queued per destination as one record each -- the paper's
// cost model charges the sender once, which the stats mirror. The stats
// count packets (the paper's messages); datagrams are counted beside them.
#ifndef SRC_RUNTIME_UDP_TRANSPORT_H_
#define SRC_RUNTIME_UDP_TRANSPORT_H_

#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/net/message_stats.h"
#include "src/net/transport.h"
#include "src/runtime/event_loop.h"

namespace leases {

class UdpBatchSender;

class UdpTransport : public Transport {
 public:
  // `handler` is invoked as `loop`'s work for each packet; it may be
  // null until SetHandler is called. When `loop` is null the transport
  // runs a private EventLoop (the SetRawHandler mode).
  UdpTransport(NodeId self, EventLoop* loop, PacketHandler* handler);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  // Binds 127.0.0.1:`port` (0 picks an ephemeral port) and registers the
  // socket and the work-end flush with the loop.
  Status Start(uint16_t port = 0);
  // Unregisters the socket, flushes queued sends and closes it. On return
  // no receive callback is running or will run.
  void Stop();

  uint16_t port() const { return port_; }
  void SetHandler(PacketHandler* handler) { handler_ = handler; }

  // Raw dispatch: when set, every packet is handed to `handler` (sender id
  // + class + raw payload) instead of the PacketHandler. Must be set before
  // Start(). No runtime host uses it; it stays only because loopbench's
  // traced sharded host decodes and routes into ShardLoop rings with it.
  using RawHandler = std::function<void(NodeId from, MessageClass cls,
                                        std::span<const uint8_t> payload)>;
  void SetRawHandler(RawHandler handler) { raw_handler_ = std::move(handler); }

  // Registers where a peer lives; must be called before sending to it.
  void AddPeer(NodeId peer, uint16_t port);

  NodeId local_node() const override { return self_; }

  // The packet is queued in the transport's own UdpBatchSender, appended to
  // the datagram pending for `dst`. A send made inside this loop's work
  // leaves when that unit of work ends (the loop's work-end hook flushes);
  // a send made anywhere else is flushed before Send returns, so no send
  // waits for a later event. Steady-state sends do not allocate.
  void Send(NodeId dst, MessageClass cls, Packet packet) override;
  void Multicast(std::span<const NodeId> dst, MessageClass cls,
                 Packet packet) override;

  // Merges the transport's own counters with every live batch sender's
  // local counters (see UdpBatchSender): reads pay the aggregation, sends
  // stay lock-free.
  NodeMessageStats stats() const;

 private:
  friend class UdpBatchSender;

  // Batch senders count their sends into their own atomics instead of
  // taking mu_ per packet; the transport keeps pointers to them so stats()
  // can merge. Registration is rare (sender construction).
  void RegisterBatchSender(const UdpBatchSender* sender);
  void UnregisterBatchSender(const UdpBatchSender* sender);

  // Receives one ::recvmmsg batch and dispatches its records (loop work).
  void OnReadable();
  // Puts the datagrams loop work queued in the transport's own batcher on
  // the wire (the work-end hook).
  void FlushBatch();
  // After a send under batch_mu_: flushes now unless the caller runs this
  // loop's work, whose end flushes instead.
  void FlushOrDeferLocked();
  // Resolves a peer's loopback address; false (and one counted send failure)
  // when the peer was never registered.
  bool ResolvePeer(NodeId dst, struct sockaddr_in* addr);
  void CountSendFailures(uint64_t n);

  struct ReceiveBatch;

  NodeId self_;
  std::unique_ptr<EventLoop> own_loop_;  // set when built without a loop
  EventLoop* loop_;
  std::atomic<PacketHandler*> handler_;
  RawHandler raw_handler_;  // set before Start(); loop work only
  std::unique_ptr<ReceiveBatch> recv_;  // loop work only
  uint64_t work_end_hook_ = 0;  // the loop's key for FlushBatch
  // fd_mu_ serializes sendmmsg against close: sends may come from any
  // thread while the owner tears the transport down. recvmmsg needs no lock
  // -- it is loop work, and Stop unwatches the socket before closing it.
  std::mutex fd_mu_;
  int fd_ = -1;
  uint16_t port_ = 0;
  // Receive-side counters, written by loop work only and merged by stats().
  std::atomic<uint64_t> received_[kNumMessageClasses] = {};
  std::atomic<uint64_t> datagrams_received_{0};
  std::atomic<uint64_t> malformed_{0};

  mutable std::mutex mu_;
  std::unordered_map<NodeId, uint16_t> peers_;
  NodeMessageStats stats_;
  // Live batch senders, whose counters stats() merges.
  std::vector<const UdpBatchSender*> batchers_;

  // The batcher behind Send/Multicast. batch_mu_ makes it thread-safe; it
  // is taken before fd_mu_ and mu_ and never while holding them. Declared
  // last: it unregisters from mu_ and batchers_ when destroyed.
  std::mutex batch_mu_;
  std::atomic<bool> deferred_{false};  // loop work queued sends to flush
  std::unique_ptr<UdpBatchSender> batch_;
};

// Outbound batcher: a Transport that appends each packet as a record to the
// datagram pending for its destination (opening a new one when a record
// would push it past the datagram limit) and puts every pending datagram on
// the wire with one ::sendmmsg per flush. NOT thread-safe -- each shard
// thread owns exactly one, so the encode buffers are uncontended, and
// UdpTransport guards its own with a mutex.
//
// The owner must call Flush() at its batch boundary (the shard loop's idle
// hook, the event loop's work-end hook); sends also self-flush when every
// slot is in use. Buffers are retained across flushes, so a steady-state
// sender allocates nothing. A packet too large for one datagram is dropped
// with a warning and counted as a send failure.
class UdpBatchSender : public Transport {
 public:
  // Batches up to `max_batch` datagrams per sendmmsg (kernel caps at
  // UIO_MAXIOV; modest batches keep per-flush latency low).
  explicit UdpBatchSender(UdpTransport* transport, size_t max_batch = 32);
  // Must be destroyed before `transport` (it unregisters its counters).
  ~UdpBatchSender() override;

  UdpBatchSender(const UdpBatchSender&) = delete;
  UdpBatchSender& operator=(const UdpBatchSender&) = delete;

  NodeId local_node() const override { return transport_->local_node(); }
  void Send(NodeId dst, MessageClass cls, Packet packet) override;
  void Multicast(std::span<const NodeId> dst, MessageClass cls,
                 Packet packet) override;

  void Flush();
  // Packets queued since the last flush.
  size_t pending() const { return pending_; }

 private:
  friend class UdpTransport;

  // One queued datagram: destination, its frame and the records in it.
  struct Slot {
    NodeId dst;
    struct sockaddr_in addr;
    std::vector<uint8_t> frame;
    size_t records = 0;
  };

  // Encodes `packet` as one record into record_; false (with a warning and
  // one counted send failure) when it cannot fit in a datagram.
  bool EncodeRecord(MessageClass cls, const Packet& packet);
  // Appends record_ to the datagram pending for `dst`; false when `dst` is
  // unregistered (counted as a send failure).
  bool QueueRecord(NodeId dst);

  UdpTransport* transport_;
  std::vector<Slot> slots_;
  size_t used_ = 0;     // slots holding a datagram
  size_t pending_ = 0;  // records across those slots
  // sendmmsg headers, one per slot, kept across flushes.
  std::vector<mmsghdr> msgs_;
  std::vector<iovec> iovs_;
  std::vector<uint8_t> record_;  // encode-once buffer for one record
  // Counted sender-locally (relaxed: only the owner writes; readers
  // tolerate a momentarily stale merge in UdpTransport::stats()), so
  // sends take no lock of the transport.
  std::atomic<uint64_t> sent_[kNumMessageClasses] = {};
  std::atomic<uint64_t> datagrams_{0};
};

}  // namespace leases

#endif  // SRC_RUNTIME_UDP_TRANSPORT_H_
