// Simulated datagram network with the paper's cost model.
//
// Timing (Section 3.1, Table 1):
//   * every send occupies the sender's CPU for m_proc;
//   * the wire adds m_prop;
//   * every receive occupies the receiver's CPU for m_proc before the
//     handler runs.
// Per-node CPU work is serialized, so a unicast request-response costs
// 2*m_prop + 4*m_proc and a multicast with n replies costs
// 2*m_prop + (n+3)*m_proc -- exactly the paper's formulas. (The n replies
// each pay send/recv processing, but the n receive slots queue on the one
// server CPU, overlapping all but the first with the wire time.)
//
// Failure injection:
//   * independent per-(message, destination) loss probability;
//   * pairwise partitions (messages silently dropped while blocked);
//   * host crash/restart (down hosts receive nothing; restart clears the
//     CPU queue -- state recovery is the protocol's job);
//   * a fault plane -- per-(message, destination) duplication, bounded
//     reorder jitter and Gilbert-Elliott burst loss -- drawn from a
//     *dedicated* RNG stream, so enabling any fault leaves the loss draws
//     (and everything else derived from the base seed) untouched.
#ifndef SRC_NET_SIM_NETWORK_H_
#define SRC_NET_SIM_NETWORK_H_

#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/net/message_stats.h"
#include "src/net/transport.h"
#include "src/proto/messages.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"

namespace leases {

// Fault-plane rates. All draws come from a dedicated fault RNG stream
// (derived from NetworkParams::seed but never shared with the loss stream),
// and no draw is made while every rate is zero -- so a run with the fault
// plane disabled is bit-identical to one on a build that predates it.
struct FaultParams {
  // Probability that a surviving (message, destination) delivery is sent
  // twice; the duplicate takes an independent jitter draw in
  // (0, dup_delay_max] on top of the normal propagation delay.
  double dup_prob = 0.0;
  Duration dup_delay_max = Duration::Millis(5);
  // Probability that a delivery is held back by extra jitter drawn uniformly
  // from (0, reorder_delay_max], letting later sends overtake it.
  double reorder_prob = 0.0;
  Duration reorder_delay_max = Duration::Millis(5);
  // Gilbert-Elliott two-state burst loss: the chain moves good->bad with
  // probability burst_enter_prob and bad->good with burst_exit_prob at each
  // delivery; while bad, deliveries are dropped with burst_loss_prob.
  double burst_enter_prob = 0.0;
  double burst_exit_prob = 0.25;
  double burst_loss_prob = 0.9;

  bool Enabled() const {
    return dup_prob > 0 || reorder_prob > 0 || burst_enter_prob > 0;
  }
};

struct NetworkParams {
  // One-way propagation delay m_prop.
  Duration prop_delay = Duration::Millis(1) / 2;  // 0.5 ms
  // Per-message processing time m_proc (charged at sender and receiver).
  Duration proc_time = Duration::Millis(1);
  // Independent probability that any (message, destination) is lost.
  double loss_prob = 0.0;
  uint64_t seed = 1;
  FaultParams faults;
};

class SimNetwork;

// Receiver for a swarm group (see SimNetwork::AttachSwarm): one object
// stands in for a contiguous range of member NodeIds. Unicast deliveries
// arrive per member; a multicast to the group *address* arrives exactly
// once, with a filter saying which members it reached -- the receiver
// applies it to all of them in one pass, so a million-member renewal costs
// one event and zero per-recipient copies.
class SwarmReceiver {
 public:
  virtual ~SwarmReceiver() = default;

  class DeliveryFilter {
   public:
    virtual ~DeliveryFilter() = default;
    virtual bool DeliveredTo(uint32_t member) const = 0;
  };

  virtual void HandleSwarmPacket(uint32_t member, NodeId from,
                                 MessageClass cls, const Packet& packet) = 0;
  virtual void HandleSwarmMulticast(NodeId from, MessageClass cls,
                                    const Packet& packet,
                                    const DeliveryFilter& filter) = 0;
};

// Transport endpoint bound to one simulated node.
class SimTransport : public Transport {
 public:
  SimTransport(SimNetwork* net, NodeId node) : net_(net), node_(node) {}

  NodeId local_node() const override { return node_; }

  // The packet is moved into a pooled in-flight node and handed to the
  // receiver(s) without serialization.
  void Send(NodeId dst, MessageClass cls, Packet packet) override;
  void Multicast(std::span<const NodeId> dst, MessageClass cls,
                 Packet packet) override;

 private:
  SimNetwork* net_;
  NodeId node_;
};

class SimNetwork {
 public:
  SimNetwork(Simulator* sim, NetworkParams params)
      : sim_(sim),
        params_(params),
        rng_(params.seed ^ 0x6e657477ULL),
        fault_rng_(Rng::ForStream(params.seed, kFaultStream)) {
    ValidateParams(params_);
  }

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  // Registers a node. The returned transport is owned by the network and
  // valid for its lifetime. The handler must outlive the network or be
  // detached (DetachNode) first.
  SimTransport* AttachNode(NodeId node, PacketHandler* handler);
  void DetachNode(NodeId node);
  // Swaps in a new protocol object after a node restart; in-flight messages
  // addressed to the old incarnation are dropped.
  void ReplaceHandler(NodeId node, PacketHandler* handler);

  // Crash / restart. While down, a node receives nothing; messages already
  // queued on its CPU are discarded.
  void SetNodeUp(NodeId node, bool up);
  bool IsNodeUp(NodeId node) const;

  // Symmetric pairwise partition control.
  void SetPartitioned(NodeId a, NodeId b, bool blocked);
  // Partitions `island` from every other attached node (or heals it).
  void IsolateNode(NodeId island, bool blocked);
  bool ArePartitioned(NodeId a, NodeId b) const;

  // --- Swarm groups ---
  // Attaches `count` swarm members occupying NodeIds [base, base+count),
  // collectively addressable through the single multicast group address
  // `group_addr` (the paper's §5 multicast group). The whole range costs
  // one receiver object, one aggregate stats block and one partition
  // bitmap -- no per-member Node, transport or handler -- which is what
  // lets a simulation host 10^6 clients. Simplifications relative to full
  // nodes, by design: member CPU time is not modeled (server-side charges
  // are unchanged), members have no crash epoch (use the partition bitmap),
  // and the fault plane applies only when the sender is a regular node.
  // The id range must not collide with attached nodes or other groups.
  void AttachSwarm(NodeId group_addr, NodeId base, uint32_t count,
                   SwarmReceiver* receiver);

  // Send entry point for swarm members (they own no SimTransport). `dst`
  // must be a regular attached node; pairwise partitions against the
  // member's own NodeId and the member partition bitmap both apply.
  void SwarmSend(NodeId member, NodeId dst, MessageClass cls, Packet packet);

  // Partitions members [lo, hi) of the group from the entire network (or
  // heals them): their sends are dropped at the source and deliveries --
  // including their share of group multicasts -- are dropped at arrival.
  void SetSwarmPartitioned(NodeId group_addr, uint32_t lo, uint32_t hi,
                           bool blocked);

  // Aggregate stats over all members of the group.
  const NodeMessageStats& swarm_stats(NodeId group_addr) const;

  void set_loss_prob(double p) {
    params_.loss_prob = p;
    ValidateParams(params_);
  }
  // Replaces the fault-plane rates mid-run (the chaos harness ramps these
  // from a FaultPlan). The burst-loss chain state is preserved across calls.
  void set_faults(FaultParams faults) {
    params_.faults = faults;
    ValidateParams(params_);
  }
  const FaultParams& faults() const { return params_.faults; }

  // Codec conformance mode: every packet is additionally round-tripped
  // through Encode/Decode at send time -- the decode must succeed,
  // re-encoding it must reproduce the original bytes, and the *decoded*
  // packet is what gets delivered. This is the simulator's only wire
  // coverage: timing, RNG draws and delivery are identical with it on.
  void set_codec_conformance(bool v) { conformance_ = v; }
  bool codec_conformance() const { return conformance_; }

  // Wire tap: invoked once per (message, destination) at send time, before
  // loss/partition filtering. Used by the protocol-conformance tests and
  // handy for debugging; null disables.
  using Tracer = std::function<void(NodeId src, NodeId dst, MessageClass cls,
                                    std::span<const uint8_t> bytes)>;
  void set_tracer(Tracer tracer) { tracer_ = std::move(tracer); }

  const NetworkParams& params() const { return params_; }
  const NodeMessageStats& stats(NodeId node) const;
  void ResetStats();

  // Total messages handled across all nodes (for aggregate load figures).
  uint64_t TotalHandled() const;

 private:
  friend class SimTransport;

  struct Node {
    PacketHandler* handler = nullptr;
    std::unique_ptr<SimTransport> transport;
    bool up = true;
    // CPU availability in true time; receive/send processing serializes here.
    TimePoint cpu_free = TimePoint::Epoch();
    // Bumped on crash so queued deliveries from before the crash are ignored.
    uint64_t epoch = 0;
    NodeMessageStats stats;
  };

  // A (destination, incarnation) pair resolved at send time; the epoch lets
  // a delivery notice that the receiver crashed while the message was on the
  // wire.
  struct Delivery {
    NodeId dst;
    uint64_t epoch;
  };

  // One message in flight. Pooled and refcounted: the packet is moved
  // in once at send time and shared immutably by every recipient of a
  // multicast; the node returns to the free list when the last scheduled
  // event referencing it has run. Keeping src/cls/targets inside the node
  // keeps scheduler captures down to (this, node*) pointers, well inside
  // the InlineAction inline-storage limit, so the whole delivery chain is
  // allocation-free once the pool and vector capacities have warmed up.
  struct TypedMessage {
    Packet packet;
    NodeId src;
    MessageClass cls = MessageClass::kControl;
    std::vector<Delivery> targets;
    uint32_t refs = 0;
  };

  // Outcome of the fault plane for one surviving (message, destination):
  // drop it in a loss burst, jitter it, and/or inject a delayed duplicate.
  struct FaultDecision {
    bool drop = false;
    Duration extra = Duration::Zero();
    bool duplicate = false;
    Duration dup_extra = Duration::Zero();
  };
  // Draws the fault plane's decision for one delivery from fault_rng_.
  FaultDecision DecideFaults(Node& sender);

  // Charges `proc_time` on the node's CPU starting no earlier than `at`;
  // returns when the slot ends.
  TimePoint ChargeCpu(Node& node, TimePoint at);
  // Charges the sender's CPU once and schedules wire arrival at every
  // destination that survives partitions, loss and the fault plane.
  void SendPacket(NodeId src, std::span<const NodeId> dst, MessageClass cls,
                  Packet packet);
  // Codec-conformance round trip (see set_codec_conformance).
  void RoundTripThroughCodec(Packet* packet);
  // Wire arrival at one destination: charges receive processing on its CPU
  // and schedules the handler when the slot completes.
  void BeginReceive(TypedMessage* msg, Delivery to);
  TypedMessage* AcquireTyped();
  void ReleaseTyped(TypedMessage* msg);

  // One attached swarm group (see AttachSwarm).
  struct SwarmGroup {
    NodeId addr;
    NodeId base;
    uint32_t count = 0;
    SwarmReceiver* receiver = nullptr;
    uint32_t partitioned_count = 0;
    std::vector<uint64_t> partitioned;  // one bit per member
    NodeMessageStats stats;

    bool IsPartitioned(uint32_t member) const {
      return (partitioned[member >> 6] >> (member & 63)) & 1;
    }
    bool ContainsMember(NodeId id) const {
      return count > 0 && id.value() >= base.value() &&
             id.value() - base.value() < count;
    }
  };

  SwarmGroup* FindSwarmByAddr(NodeId id);
  const SwarmGroup* FindSwarmByAddr(NodeId id) const;
  SwarmGroup* FindSwarmByMember(NodeId id);
  // Either the group address or a member id resolves to the group.
  SwarmGroup* FindSwarm(NodeId id);
  // Hands a packet addressed to a group address (multicast, delivered once)
  // or a member (unicast) to the swarm receiver. False when `dst` is not
  // swarm-addressed at all.
  bool DeliverToSwarm(NodeId src, NodeId dst, MessageClass cls,
                      const Packet& packet);

  Node* FindNode(NodeId id);
  const Node* FindNode(NodeId id) const;

  static void ValidateParams(const NetworkParams& params);

  // Stream id of the dedicated fault RNG (see Rng::ForStream).
  static constexpr uint64_t kFaultStream = 0x6661756c74ULL;  // "fault"

  Simulator* sim_;
  NetworkParams params_;
  Rng rng_;
  Rng fault_rng_;
  // Gilbert-Elliott chain state: true while in the lossy "bad" state.
  bool burst_bad_ = false;
  Tracer tracer_;
  std::unordered_map<NodeId, Node> nodes_;
  std::vector<std::unique_ptr<SwarmGroup>> swarms_;
  std::set<std::pair<NodeId, NodeId>> partitions_;

  bool conformance_ = false;
  // Pool of in-flight messages: `typed_pool_` owns the nodes,
  // `typed_free_` indexes the idle ones. Scratch buffers back the lazy
  // tracer encode and the conformance round-trip; their capacity persists
  // across messages.
  std::vector<std::unique_ptr<TypedMessage>> typed_pool_;
  std::vector<TypedMessage*> typed_free_;
  std::vector<uint8_t> tracer_buf_;
  std::vector<uint8_t> conf_buf_;
};

}  // namespace leases

#endif  // SRC_NET_SIM_NETWORK_H_
