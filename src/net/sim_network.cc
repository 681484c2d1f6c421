#include "src/net/sim_network.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace leases {

void SimTransport::Send(NodeId dst, MessageClass cls, Packet packet) {
  NodeId dsts[1] = {dst};
  net_->SendPacket(node_, dsts, cls, std::move(packet));
}

void SimTransport::Multicast(std::span<const NodeId> dst, MessageClass cls,
                             Packet packet) {
  net_->SendPacket(node_, dst, cls, std::move(packet));
}

SimTransport* SimNetwork::AttachNode(NodeId node, PacketHandler* handler) {
  LEASES_CHECK(node.valid());
  LEASES_CHECK(nodes_.find(node) == nodes_.end());
  Node& n = nodes_[node];
  n.handler = handler;
  n.transport = std::make_unique<SimTransport>(this, node);
  n.cpu_free = sim_->Now();
  return n.transport.get();
}

void SimNetwork::DetachNode(NodeId node) {
  auto it = nodes_.find(node);
  LEASES_CHECK(it != nodes_.end());
  // Epoch bump orphans any in-flight deliveries to this node.
  it->second.epoch++;
  it->second.handler = nullptr;
}

void SimNetwork::ReplaceHandler(NodeId node, PacketHandler* handler) {
  Node* n = FindNode(node);
  LEASES_CHECK(n != nullptr);
  n->epoch++;
  n->handler = handler;
  n->cpu_free = sim_->Now();
}

void SimNetwork::SetNodeUp(NodeId node, bool up) {
  Node* n = FindNode(node);
  LEASES_CHECK(n != nullptr);
  if (n->up == up) {
    return;
  }
  n->up = up;
  // Crash (or restart) invalidates messages queued for the old incarnation
  // and clears any backlog on the CPU.
  n->epoch++;
  n->cpu_free = sim_->Now();
}

bool SimNetwork::IsNodeUp(NodeId node) const {
  const Node* n = FindNode(node);
  return n != nullptr && n->up;
}

void SimNetwork::SetPartitioned(NodeId a, NodeId b, bool blocked) {
  auto key = std::minmax(a, b);
  if (blocked) {
    partitions_.insert(key);
  } else {
    partitions_.erase(key);
  }
}

void SimNetwork::IsolateNode(NodeId island, bool blocked) {
  for (const auto& [id, node] : nodes_) {
    if (id != island) {
      SetPartitioned(island, id, blocked);
    }
  }
}

bool SimNetwork::ArePartitioned(NodeId a, NodeId b) const {
  return partitions_.count(std::minmax(a, b)) > 0;
}

const NodeMessageStats& SimNetwork::stats(NodeId node) const {
  const Node* n = FindNode(node);
  LEASES_CHECK(n != nullptr);
  return n->stats;
}

void SimNetwork::ResetStats() {
  for (auto& [id, node] : nodes_) {
    node.stats.Reset();
  }
  for (auto& g : swarms_) {
    g->stats.Reset();
  }
}

uint64_t SimNetwork::TotalHandled() const {
  uint64_t total = 0;
  for (const auto& [id, node] : nodes_) {
    total += node.stats.Handled();
  }
  for (const auto& g : swarms_) {
    total += g->stats.Handled();
  }
  return total;
}

// --- Swarm groups ---

void SimNetwork::AttachSwarm(NodeId group_addr, NodeId base, uint32_t count,
                             SwarmReceiver* receiver) {
  LEASES_CHECK(group_addr.valid());
  LEASES_CHECK(base.valid());
  LEASES_CHECK(count > 0);
  LEASES_CHECK(receiver != nullptr);
  LEASES_CHECK(FindNode(group_addr) == nullptr);
  LEASES_CHECK(FindSwarm(group_addr) == nullptr);
  LEASES_CHECK(FindSwarm(base) == nullptr);
  LEASES_CHECK(FindSwarm(NodeId(base.value() + count - 1)) == nullptr);
  auto group = std::make_unique<SwarmGroup>();
  group->addr = group_addr;
  group->base = base;
  group->count = count;
  group->receiver = receiver;
  group->partitioned.assign((count + 63) / 64, 0);
  swarms_.push_back(std::move(group));
}

void SimNetwork::SetSwarmPartitioned(NodeId group_addr, uint32_t lo,
                                     uint32_t hi, bool blocked) {
  SwarmGroup* g = FindSwarmByAddr(group_addr);
  LEASES_CHECK(g != nullptr);
  LEASES_CHECK(lo <= hi && hi <= g->count);
  for (uint32_t m = lo; m < hi; ++m) {
    uint64_t& word = g->partitioned[m >> 6];
    uint64_t bit = uint64_t{1} << (m & 63);
    if (blocked && (word & bit) == 0) {
      word |= bit;
      ++g->partitioned_count;
    } else if (!blocked && (word & bit) != 0) {
      word &= ~bit;
      --g->partitioned_count;
    }
  }
}

const NodeMessageStats& SimNetwork::swarm_stats(NodeId group_addr) const {
  const SwarmGroup* g = FindSwarmByAddr(group_addr);
  LEASES_CHECK(g != nullptr);
  return g->stats;
}

void SimNetwork::SwarmSend(NodeId member, NodeId dst, MessageClass cls,
                           Packet packet) {
  SwarmGroup* g = FindSwarmByMember(member);
  LEASES_CHECK(g != nullptr);
  uint32_t idx = member.value() - g->base.value();
  if (g->IsPartitioned(idx)) {
    g->stats.dropped_partition++;
    return;
  }
  g->stats.sent[static_cast<int>(cls)]++;
  if (tracer_) {
    tracer_buf_.clear();
    EncodePacketInto(packet, &tracer_buf_);
    tracer_(member, dst, cls, tracer_buf_);
  }
  if (ArePartitioned(member, dst)) {
    g->stats.dropped_partition++;
    return;
  }
  if (params_.loss_prob > 0 && rng_.NextBernoulli(params_.loss_prob)) {
    g->stats.dropped_loss++;
    return;
  }
  Node* receiver = FindNode(dst);
  if (receiver == nullptr) {
    return;  // member-to-member traffic is not modeled
  }
  if (conformance_) {
    RoundTripThroughCodec(&packet);
  }
  TypedMessage* msg = AcquireTyped();
  msg->packet = std::move(packet);
  msg->src = member;
  msg->cls = cls;
  msg->targets.clear();
  msg->refs = 1;
  Delivery del{dst, receiver->epoch};
  // Member send CPU is not modeled: the wire starts now. The receiver's
  // m_proc charge in BeginReceive is unchanged, so server-side load
  // and serialization stay exact.
  sim_->ScheduleAt(sim_->Now() + params_.prop_delay, [this, msg, del]() {
    BeginReceive(msg, del);
    ReleaseTyped(msg);
  });
}

bool SimNetwork::DeliverToSwarm(NodeId src, NodeId dst, MessageClass cls,
                                const Packet& packet) {
  SwarmGroup* g = FindSwarmByAddr(dst);
  if (g != nullptr) {
    // Group-address multicast: counted and handled once for the whole
    // range; the filter tells the receiver which members it reached.
    uint32_t delivered = g->count - g->partitioned_count;
    if (delivered == 0 || g->receiver == nullptr) {
      g->stats.dropped_down++;
      return true;
    }
    g->stats.received[static_cast<int>(cls)] += delivered;
    struct Filter : SwarmReceiver::DeliveryFilter {
      const SwarmGroup* group = nullptr;
      bool DeliveredTo(uint32_t member) const override {
        return !group->IsPartitioned(member);
      }
    };
    Filter filter;
    filter.group = g;
    g->receiver->HandleSwarmMulticast(src, cls, packet, filter);
    return true;
  }
  g = FindSwarmByMember(dst);
  if (g == nullptr) {
    return false;
  }
  uint32_t member = dst.value() - g->base.value();
  if (g->IsPartitioned(member) || g->receiver == nullptr) {
    g->stats.dropped_down++;
    return true;
  }
  g->stats.received[static_cast<int>(cls)]++;
  g->receiver->HandleSwarmPacket(member, src, cls, packet);
  return true;
}

TimePoint SimNetwork::ChargeCpu(Node& node, TimePoint at) {
  TimePoint start = std::max(at, node.cpu_free);
  node.cpu_free = start + params_.proc_time;
  return node.cpu_free;
}

void SimNetwork::ValidateParams(const NetworkParams& params) {
  const FaultParams& f = params.faults;
  LEASES_CHECK(params.loss_prob >= 0.0 && params.loss_prob <= 1.0);
  LEASES_CHECK(f.dup_prob >= 0.0 && f.dup_prob <= 1.0);
  LEASES_CHECK(f.reorder_prob >= 0.0 && f.reorder_prob <= 1.0);
  LEASES_CHECK(f.burst_enter_prob >= 0.0 && f.burst_enter_prob <= 1.0);
  LEASES_CHECK(f.burst_exit_prob >= 0.0 && f.burst_exit_prob <= 1.0);
  LEASES_CHECK(f.burst_loss_prob >= 0.0 && f.burst_loss_prob <= 1.0);
  LEASES_CHECK(f.dup_delay_max >= Duration::Zero());
  LEASES_CHECK(f.reorder_delay_max >= Duration::Zero());
}

namespace {

// Uniform jitter in [1us, max] (never zero, so a jittered delivery always
// lands strictly after an unjittered one from the same send).
Duration DrawJitter(Rng& rng, Duration max) {
  uint64_t bound =
      static_cast<uint64_t>(std::max<int64_t>(int64_t{1}, max.ToMicros()));
  return Duration::Micros(1 + static_cast<int64_t>(rng.NextBounded(bound)));
}

}  // namespace

SimNetwork::FaultDecision SimNetwork::DecideFaults(Node& sender) {
  const FaultParams& f = params_.faults;
  FaultDecision d;
  if (f.burst_enter_prob > 0) {
    // Advance the two-state chain once per delivery, then sample loss while
    // in the bad state.
    burst_bad_ = burst_bad_ ? !fault_rng_.NextBernoulli(f.burst_exit_prob)
                            : fault_rng_.NextBernoulli(f.burst_enter_prob);
    if (burst_bad_ && fault_rng_.NextBernoulli(f.burst_loss_prob)) {
      d.drop = true;
      sender.stats.dropped_burst++;
      // A burst-dropped delivery consumes no dup/reorder draws: both paths
      // return here, so the fault stream stays aligned.
      return d;
    }
  }
  if (f.reorder_prob > 0 && fault_rng_.NextBernoulli(f.reorder_prob)) {
    d.extra = DrawJitter(fault_rng_, f.reorder_delay_max);
    sender.stats.delayed++;
  }
  if (f.dup_prob > 0 && fault_rng_.NextBernoulli(f.dup_prob)) {
    d.duplicate = true;
    d.dup_extra = DrawJitter(fault_rng_, f.dup_delay_max);
    sender.stats.duplicated++;
  }
  return d;
}

void SimNetwork::RoundTripThroughCodec(Packet* packet) {
  // The encode must decode, the decode must re-encode to identical bytes,
  // and the *decoded* packet is what gets delivered -- a codec bug cannot
  // hide behind the in-memory hand-off.
  conf_buf_.clear();
  EncodePacketInto(*packet, &conf_buf_);
  std::optional<Packet> decoded = DecodePacket(conf_buf_);
  LEASES_CHECK(decoded.has_value());
  LEASES_CHECK(EncodePacket(*decoded) == conf_buf_);
  *packet = std::move(*decoded);
}

SimNetwork::TypedMessage* SimNetwork::AcquireTyped() {
  if (!typed_free_.empty()) {
    TypedMessage* msg = typed_free_.back();
    typed_free_.pop_back();
    return msg;
  }
  typed_pool_.push_back(std::make_unique<TypedMessage>());
  return typed_pool_.back().get();
}

void SimNetwork::ReleaseTyped(TypedMessage* msg) {
  LEASES_DCHECK(msg->refs > 0);
  if (--msg->refs == 0) {
    typed_free_.push_back(msg);
  }
}

void SimNetwork::SendPacket(NodeId src, std::span<const NodeId> dst,
                            MessageClass cls, Packet packet) {
  Node* sender = FindNode(src);
  LEASES_CHECK(sender != nullptr);
  if (!sender->up) {
    // A crashed host cannot send; protocol objects are expected to be
    // quiescent, but stray timers may still fire.
    return;
  }
  // One send-side processing charge regardless of fan-out (multicast is
  // "sent once", Section 3.1).
  TimePoint departure = ChargeCpu(*sender, sim_->Now());
  sender->stats.sent[static_cast<int>(cls)]++;

  if (conformance_) {
    RoundTripThroughCodec(&packet);
  }

  TypedMessage* msg = AcquireTyped();
  msg->packet = std::move(packet);
  msg->src = src;
  msg->cls = cls;
  msg->targets.clear();
  // Lazy wire tap: bytes are produced once per message, and only when a
  // tracer is actually installed; taps see exactly what UdpTransport would
  // put on the wire.
  bool traced = false;
  std::vector<std::pair<Delivery, Duration>> jittered;
  for (NodeId d : dst) {
    if (d == src) {
      continue;  // no self-delivery; local effects are applied directly
    }
    if (tracer_) {
      if (!traced) {
        tracer_buf_.clear();
        EncodePacketInto(msg->packet, &tracer_buf_);
        traced = true;
      }
      tracer_(src, d, cls, tracer_buf_);
    }
    if (ArePartitioned(src, d)) {
      sender->stats.dropped_partition++;
      continue;
    }
    if (params_.loss_prob > 0 && rng_.NextBernoulli(params_.loss_prob)) {
      sender->stats.dropped_loss++;
      continue;
    }
    Node* receiver = FindNode(d);
    if (receiver == nullptr && FindSwarm(d) == nullptr) {
      continue;
    }
    // Swarm destinations (group address or member) have no crash epoch.
    Delivery del{d, receiver != nullptr ? receiver->epoch : 0};
    if (params_.faults.Enabled()) {
      FaultDecision fd = DecideFaults(*sender);
      if (fd.drop) {
        continue;
      }
      if (fd.duplicate) {
        jittered.emplace_back(del, fd.dup_extra);
      }
      if (fd.extra > Duration::Zero()) {
        jittered.emplace_back(del, fd.extra);
        continue;
      }
    }
    msg->targets.push_back(del);
  }
  if (msg->targets.empty() && jittered.empty()) {
    msg->refs = 1;
    ReleaseTyped(msg);
    return;
  }
  // One wire-arrival event fans out to every on-time destination; jittered
  // and duplicated deliveries each get their own event. The construction
  // guard ref (refs = 1) keeps releases by dropped receivers from recycling
  // the node while events are still being scheduled; each event takes its
  // own ref. Captures are at most (this, msg, Delivery) -- inside the
  // scheduler's inline-callable storage, so the zero-fault path still does
  // not allocate.
  msg->refs = 1;
  TimePoint wire_arrival = departure + params_.prop_delay;
  for (const auto& [to, extra] : jittered) {
    msg->refs++;
    sim_->ScheduleAt(wire_arrival + extra, [this, msg, to]() {
      BeginReceive(msg, to);
      ReleaseTyped(msg);
    });
  }
  if (!msg->targets.empty()) {
    msg->refs++;
    sim_->ScheduleAt(wire_arrival, [this, msg]() {
      for (const Delivery& t : msg->targets) {
        BeginReceive(msg, t);
      }
      ReleaseTyped(msg);
    });
  }
  ReleaseTyped(msg);  // drop the construction guard
}

void SimNetwork::BeginReceive(TypedMessage* msg, Delivery to) {
  Node* node = FindNode(to.dst);
  if (node == nullptr) {
    // Swarm-addressed delivery: the shared immutable packet goes to the
    // group receiver at wire arrival (members pay no receive m_proc).
    DeliverToSwarm(msg->src, to.dst, msg->cls, msg->packet);
    return;
  }
  if (node->epoch != to.epoch || !node->up || node->handler == nullptr) {
    node->stats.dropped_down++;
    return;
  }
  // Receive-side processing serializes on the node's CPU; the handler runs
  // when the processing slot completes and sees the shared immutable packet.
  TimePoint done = ChargeCpu(*node, sim_->Now());
  msg->refs++;
  sim_->ScheduleAt(done, [this, msg, to]() {
    Node* n = FindNode(to.dst);
    if (n != nullptr && n->epoch == to.epoch && n->up &&
        n->handler != nullptr) {
      n->stats.received[static_cast<int>(msg->cls)]++;
      n->handler->HandleTyped(msg->src, msg->cls, msg->packet);
    }
    ReleaseTyped(msg);
  });
}

SimNetwork::SwarmGroup* SimNetwork::FindSwarmByAddr(NodeId id) {
  for (auto& g : swarms_) {
    if (g->addr == id) {
      return g.get();
    }
  }
  return nullptr;
}

const SimNetwork::SwarmGroup* SimNetwork::FindSwarmByAddr(NodeId id) const {
  for (const auto& g : swarms_) {
    if (g->addr == id) {
      return g.get();
    }
  }
  return nullptr;
}

SimNetwork::SwarmGroup* SimNetwork::FindSwarmByMember(NodeId id) {
  for (auto& g : swarms_) {
    if (g->ContainsMember(id)) {
      return g.get();
    }
  }
  return nullptr;
}

SimNetwork::SwarmGroup* SimNetwork::FindSwarm(NodeId id) {
  for (auto& g : swarms_) {
    if (g->addr == id || g->ContainsMember(id)) {
      return g.get();
    }
  }
  return nullptr;
}

SimNetwork::Node* SimNetwork::FindNode(NodeId id) {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

const SimNetwork::Node* SimNetwork::FindNode(NodeId id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

}  // namespace leases
