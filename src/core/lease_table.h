// Server-side record of granted leases.
//
// Per cover key, the table stores each holder and the expiry of its lease on
// the *server's* clock. The paper sizes this state at "a couple of pointers"
// per lease and ~1 KB per client holding a hundred leases; ApproxBytes lets
// the tests check we stay in that regime.
//
// A key whose last holder goes keeps its map node, holder list included, for
// the next new key, so once the table has warmed up a grant and the
// relinquish that later drops it never call the allocator.
#ifndef SRC_CORE_LEASE_TABLE_H_
#define SRC_CORE_LEASE_TABLE_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"

namespace leases {

struct LeaseHolder {
  NodeId node;
  TimePoint expiry;  // on the server clock
};

class LeaseTable {
 public:
  using Holders = std::vector<LeaseHolder>;

  // Grants or extends `node`'s lease on `key` to `expiry`. An extension
  // never shortens an existing lease (the server must honour what it already
  // promised).
  void Grant(LeaseKey key, NodeId node, TimePoint expiry);

  // Drops `node`'s lease on `key` (voluntary relinquish or
  // approval-with-relinquish). No-op if absent.
  void Remove(LeaseKey key, NodeId node);
  // Drops every lease `node` holds (client evicted / decommissioned).
  void RemoveAll(NodeId node);

  // Holders whose lease is still unexpired at `now`; expired entries are
  // pruned as a side effect (this is how "the record of expired leases is
  // reclaimed" with short terms).
  std::vector<LeaseHolder> ActiveHolders(LeaseKey key, TimePoint now);

  // Like ActiveHolders, but returns a pointer to the pruned in-place list
  // (nullptr if no live holders) instead of copying it. One hash lookup
  // serves the whole write-activation path; the pointer is valid until the
  // next mutating call on this table.
  const Holders* PruneExpired(LeaseKey key, TimePoint now);

  // Latest expiry among `holders`, or `now` if the list is empty. Lets a
  // caller that already fetched the holder list (PruneExpired) compute the
  // write deadline without re-hashing the key via MaxExpiry.
  static TimePoint MaxExpiryOf(std::span<const LeaseHolder> holders,
                               TimePoint now);

  // Latest expiry among current holders of `key`, or `now` if none. This is
  // the paper's bound on how long a write can be delayed.
  TimePoint MaxExpiry(LeaseKey key, TimePoint now) const;

  // Latest expiry among every holder of every key, or `now` if none -- the
  // outstanding-grant horizon a replicated authority reports to its quorum.
  // O(records); called at renewal cadence, never on the grant hot path.
  TimePoint GlobalMaxExpiry(TimePoint now) const;

  bool Holds(LeaseKey key, NodeId node, TimePoint now) const;
  size_t ActiveHolderCount(LeaseKey key, TimePoint now) const;
  size_t KeyCount() const { return keys_.size(); }

  // Number of (key, holder) lease records currently stored, expired or not.
  size_t RecordCount() const;
  // Approximate bytes of lease state attributable to `node` -- the paper's
  // per-client storage-overhead estimate ("around one kilobyte per client").
  size_t ApproxBytesFor(NodeId node) const;

  // Drops everything (server crash: lease state is volatile).
  void Clear() { keys_.clear(); }

 private:
  using Map = std::unordered_map<LeaseKey, Holders>;

  // Drops the holders `drop` matches from `it`'s list. A key left with none
  // leaves the map, and its node goes to spare_. Returns whether it stays.
  template <typename Pred>
  bool Prune(Map::iterator it, Pred drop);

  Map keys_;
  // Nodes of dropped keys, each with an empty holder list that keeps its
  // capacity; Grant reuses one for a new key before it allocates.
  std::vector<Map::node_type> spare_;
};

}  // namespace leases

#endif  // SRC_CORE_LEASE_TABLE_H_
