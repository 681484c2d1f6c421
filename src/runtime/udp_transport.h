// UDP datagram transport on localhost for the real-time runtime.
//
// Frame layout: [sender NodeId u32 LE][MessageClass u8][payload]. The
// socket is watched by the owning node's EventLoop: each readiness event
// drains a ::recvmmsg batch and hands every datagram to the handler as loop
// work, straight from the receive buffers (no copy, no queue hop), which
// preserves the serialized execution model the protocol objects require.
// Multicast is emulated by iterated sendto over the recipient list -- the
// paper's cost model charges the sender once, which the stats mirror.
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
  // `handler` is invoked as `loop`'s work for each datagram; it may be
  // null until SetHandler is called. When `loop` is null the transport
  // runs a private EventLoop (the shard engine's SetRawHandler mode).
  UdpTransport(NodeId self, EventLoop* loop, PacketHandler* handler);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  // Binds 127.0.0.1:`port` (0 picks an ephemeral port) and registers the
  // socket with the loop.
  Status Start(uint16_t port = 0);
  // Unregisters the socket and closes it. On return no receive callback is
  // running or will run.
  void Stop();

  uint16_t port() const { return port_; }
  void SetHandler(PacketHandler* handler) { handler_ = handler; }

  // Shard-engine dispatch: when set, every datagram is handed to `handler`
  // (sender id + class + raw payload) instead of the PacketHandler. The
  // handler decodes and routes to the owning shard's queue; run-to-
  // completion then happens on the shard thread. Must be set before
  // Start().
  using RawHandler = std::function<void(NodeId from, MessageClass cls,
                                        std::span<const uint8_t> payload)>;
  void SetRawHandler(RawHandler handler) { raw_handler_ = std::move(handler); }

  // Registers where a peer lives; must be called before sending to it.
  void AddPeer(NodeId peer, uint16_t port);

  NodeId local_node() const override { return self_; }

  // The packet is encoded straight into a reusable frame buffer (header +
  // payload in one buffer, no intermediate payload vector), so steady-state
  // sends do not allocate.
  void Send(NodeId dst, MessageClass cls, Packet packet) override;
  void Multicast(std::span<const NodeId> dst, MessageClass cls,
                 Packet packet) override;

  // Merges the transport's own counters with every live batch sender's
  // local counters (see UdpBatchSender): reads pay the aggregation, sends
  // stay lock-free.
  NodeMessageStats stats() const;

 private:
  friend class UdpBatchSender;

  // Batch senders count their sends into shard-local atomic arrays instead
  // of taking mu_ per datagram; the transport keeps pointers to them so
  // stats() can merge. Registration is rare (sender construction).
  void RegisterBatchCounters(const std::atomic<uint64_t>* counters);
  void UnregisterBatchCounters(const std::atomic<uint64_t>* counters);

  // Receives one ::recvmmsg batch and dispatches it (loop work).
  void OnReadable();
  void SendFrame(NodeId dst, MessageClass cls,
                 const std::vector<uint8_t>& frame);
  // Resolves a peer's loopback address; false (and one counted send failure)
  // when the peer was never registered.
  bool ResolvePeer(NodeId dst, struct sockaddr_in* addr);
  void CountSendFailure();
  // Replaces `frame` with the header [sender u32][class u8]; the caller
  // appends the encoded packet.
  static void WriteHeader(NodeId sender, MessageClass cls,
                          std::vector<uint8_t>* frame);
  // Frames and encodes `packet` into send_frame_ and counts one logical
  // send. Must hold send_mu_.
  void EncodeFrameLocked(MessageClass cls, const Packet& packet);

  struct ReceiveBatch;

  NodeId self_;
  std::unique_ptr<EventLoop> own_loop_;  // set when built without a loop
  EventLoop* loop_;
  std::atomic<PacketHandler*> handler_;
  RawHandler raw_handler_;  // set before Start(); loop work only
  std::unique_ptr<ReceiveBatch> recv_;  // loop work only
  // fd_mu_ serializes sendto against close: sends may come from any thread
  // while the owner tears the transport down. recvmmsg needs no lock -- it
  // is loop work, and Stop unwatches the socket before closing it.
  std::mutex fd_mu_;
  int fd_ = -1;
  uint16_t port_ = 0;
  // Receive-side counters, written by loop work only and merged by stats().
  std::atomic<uint64_t> received_[kNumMessageClasses] = {};
  std::atomic<uint64_t> malformed_{0};

  mutable std::mutex mu_;
  std::unordered_map<NodeId, uint16_t> peers_;
  NodeMessageStats stats_;
  // Live batch senders' per-class sent counters, merged by stats().
  std::vector<const std::atomic<uint64_t>*> batch_counters_;

  // Scratch send frame; its capacity persists across sends. Guarded by its own mutex so encoding does not hold up AddPeer
  // or stats readers.
  std::mutex send_mu_;
  std::vector<uint8_t> send_frame_;
};

// Per-shard outbound batcher: a Transport that queues encoded frames and
// puts them on the wire with one ::sendmmsg per flush instead of one
// ::sendto per reply. NOT thread-safe -- each shard thread owns exactly
// one, so the encode scratch buffers are uncontended (the shared
// UdpTransport::Send path takes send_mu_ on every call, which would
// serialize the shards again).
//
// The owner must call Flush() at its batch boundary (the shard loop's idle
// hook); sends also self-flush at capacity. Frame buffers are retained
// across flushes, so a steady-state shard allocates nothing to send.
class UdpBatchSender : public Transport {
 public:
  // Batches up to `max_batch` frames per sendmmsg (kernel caps at UIO_MAXIOV;
  // modest batches keep per-flush latency low).
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
  size_t pending() const { return pending_; }

 private:
  // One queued datagram: destination plus its encoded frame.
  struct Slot {
    struct sockaddr_in addr;
    std::vector<uint8_t> frame;
  };

  // Returns the slot to encode into (flushes first when full), or null when
  // the destination is unregistered (counted as a send failure).
  Slot* NextSlot(NodeId dst);
  void CountSent(MessageClass cls);
  // Queues a copy of `scratch_` (an already-framed datagram) per recipient.
  void QueueScratchTo(std::span<const NodeId> dst);

  UdpTransport* transport_;
  std::vector<Slot> slots_;
  size_t pending_ = 0;
  // sendmmsg headers, one per slot, kept across flushes.
  std::vector<mmsghdr> msgs_;
  std::vector<iovec> iovs_;
  std::vector<uint8_t> scratch_;  // multicast encode-once buffer
  // Sends counted shard-locally (relaxed: only this shard writes; readers
  // tolerate a momentarily stale merge in UdpTransport::stats()). Replaces
  // a per-send lock of the transport mutex, which serialized all shards on
  // one cache line under load.
  std::atomic<uint64_t> sent_[kNumMessageClasses] = {};
};

}  // namespace leases

#endif  // SRC_RUNTIME_UDP_TRANSPORT_H_
