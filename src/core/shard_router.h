// Shard routing for the FileId-partitioned grant plane.
//
// The lease protocol keeps per-file state with no cross-file ordering
// requirement (every grant, approval and write is scoped to one cover key),
// so the server hot path partitions cleanly: shard = Mix(FileId) % N.
// ShardedLeaseServer dispatches with it inline, in the simulator and on the
// runtime server's socket loop alike, and the hosts place namespace
// records into partitions with the same ShardIndexOf -- so a routing bug
// cannot hide in one backend only.
//
// Routing invariant: every message that touches the state of file F (its
// record, its cover key, its lease holders, its pending writes) is handled
// by shard ShardIndexOf(F, N) and by no other shard. Messages that name a
// LeaseKey rather than a FileId (Relinquish) rely on the sharded-mode
// invariant that a datum's cover key is its private key
// (LeaseKey(file.value()), see FileStore): key routing is then file routing.
// The installed-file optimization breaks that 1:1 property (one directory
// key covers many files), which is why sharded servers refuse it.
#ifndef SRC_CORE_SHARD_ROUTER_H_
#define SRC_CORE_SHARD_ROUTER_H_

#include <cstddef>
#include <cstdint>
#include <variant>

#include "src/common/ids.h"
#include "src/proto/messages.h"

namespace leases {

// 64-bit finalizer (splitmix64): sequential FileIds -- which is what
// CreatePath hands out -- must spread uniformly over shards instead of
// striping, so hot directories do not alias onto one shard.
inline uint64_t ShardMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline size_t ShardIndexOf(FileId file, size_t num_shards) {
  return num_shards <= 1
             ? 0
             : static_cast<size_t>(ShardMix(file.value()) % num_shards);
}

// Key routing == file routing under the private-cover invariant.
inline size_t ShardIndexOfKey(LeaseKey key, size_t num_shards) {
  return num_shards <= 1
             ? 0
             : static_cast<size_t>(ShardMix(key.value()) % num_shards);
}

// How a server-bound packet maps onto shards.
enum class ShardRouteKind : uint8_t {
  kSingle,  // exactly one shard owns it (the common, lock-free case)
  kSplit,   // batched message spanning shards; must be split per shard
};

struct ShardRoute {
  ShardRouteKind kind = ShardRouteKind::kSingle;
  size_t shard = 0;  // valid when kind == kSingle
};

// Classifies a packet. Single-file messages (read/write/approve) route by
// their FileId; batched messages (ExtendRequest, Relinquish) route kSingle
// when every element lands on one shard -- the overwhelmingly common case,
// since a client's working set clusters -- and kSplit otherwise. Packets
// with no file affinity (Ping) go to shard 0.
inline ShardRoute RouteServerPacket(const Packet& packet, size_t num_shards) {
  if (num_shards <= 1) {
    return ShardRoute{ShardRouteKind::kSingle, 0};
  }
  if (const auto* read = std::get_if<ReadRequest>(&packet)) {
    return ShardRoute{ShardRouteKind::kSingle,
                      ShardIndexOf(read->file, num_shards)};
  }
  if (const auto* write = std::get_if<WriteRequest>(&packet)) {
    return ShardRoute{ShardRouteKind::kSingle,
                      ShardIndexOf(write->file, num_shards)};
  }
  if (const auto* approve = std::get_if<ApproveReply>(&packet)) {
    return ShardRoute{ShardRouteKind::kSingle,
                      ShardIndexOf(approve->file, num_shards)};
  }
  if (const auto* extend = std::get_if<ExtendRequest>(&packet)) {
    if (extend->items.empty()) {
      return ShardRoute{ShardRouteKind::kSingle, 0};
    }
    size_t first = ShardIndexOf(extend->items[0].file, num_shards);
    for (size_t i = 1; i < extend->items.size(); ++i) {
      if (ShardIndexOf(extend->items[i].file, num_shards) != first) {
        return ShardRoute{ShardRouteKind::kSplit, 0};
      }
    }
    return ShardRoute{ShardRouteKind::kSingle, first};
  }
  if (const auto* rel = std::get_if<Relinquish>(&packet)) {
    if (rel->keys.empty()) {
      return ShardRoute{ShardRouteKind::kSingle, 0};
    }
    size_t first = ShardIndexOfKey(rel->keys[0], num_shards);
    for (size_t i = 1; i < rel->keys.size(); ++i) {
      if (ShardIndexOfKey(rel->keys[i], num_shards) != first) {
        return ShardRoute{ShardRouteKind::kSplit, 0};
      }
    }
    return ShardRoute{ShardRouteKind::kSingle, first};
  }
  return ShardRoute{ShardRouteKind::kSingle, 0};
}

}  // namespace leases

#endif  // SRC_CORE_SHARD_ROUTER_H_
