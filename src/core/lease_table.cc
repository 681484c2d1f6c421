#include "src/core/lease_table.h"

#include <algorithm>

#include "src/common/check.h"

namespace leases {

void LeaseTable::Grant(LeaseKey key, NodeId node, TimePoint expiry) {
  auto it = keys_.find(key);
  if (it == keys_.end()) {
    if (spare_.empty()) {
      it = keys_.try_emplace(key).first;
    } else {
      spare_.back().key() = key;
      it = keys_.insert(std::move(spare_.back())).position;
      spare_.pop_back();
    }
  }
  Holders& holders = it->second;
  for (LeaseHolder& h : holders) {
    if (h.node == node) {
      h.expiry = std::max(h.expiry, expiry);
      return;
    }
  }
  holders.push_back(LeaseHolder{node, expiry});
}

template <typename Pred>
bool LeaseTable::Prune(Map::iterator it, Pred drop) {
  std::erase_if(it->second, drop);
  if (!it->second.empty()) {
    return true;
  }
  spare_.push_back(keys_.extract(it));
  return false;
}

void LeaseTable::Remove(LeaseKey key, NodeId node) {
  auto it = keys_.find(key);
  if (it != keys_.end()) {
    Prune(it, [node](const LeaseHolder& h) { return h.node == node; });
  }
}

void LeaseTable::RemoveAll(NodeId node) {
  for (auto it = keys_.begin(); it != keys_.end();) {
    Prune(it++, [node](const LeaseHolder& h) { return h.node == node; });
  }
}

std::vector<LeaseHolder> LeaseTable::ActiveHolders(LeaseKey key,
                                                   TimePoint now) {
  // The allocation-free counter iterates the unpruned list with the same
  // liveness predicate PruneExpired applies; they must agree.
  [[maybe_unused]] const size_t counted = ActiveHolderCount(key, now);
  const Holders* live = PruneExpired(key, now);
  if (live == nullptr) {
    LEASES_DCHECK(counted == 0);
    return {};
  }
  LEASES_DCHECK(counted == live->size());
  return {live->begin(), live->end()};
}

const LeaseTable::Holders* LeaseTable::PruneExpired(LeaseKey key,
                                                    TimePoint now) {
  auto it = keys_.find(key);
  if (it == keys_.end() ||
      !Prune(it, [now](const LeaseHolder& h) { return h.expiry <= now; })) {
    return nullptr;
  }
  return &it->second;
}

TimePoint LeaseTable::MaxExpiryOf(std::span<const LeaseHolder> holders,
                                  TimePoint now) {
  TimePoint max = now;
  for (const LeaseHolder& h : holders) {
    max = std::max(max, h.expiry);
  }
  return max;
}

TimePoint LeaseTable::MaxExpiry(LeaseKey key, TimePoint now) const {
  auto it = keys_.find(key);
  return it == keys_.end() ? now : MaxExpiryOf(it->second, now);
}

TimePoint LeaseTable::GlobalMaxExpiry(TimePoint now) const {
  TimePoint max = now;
  for (const auto& [key, holders] : keys_) {
    max = MaxExpiryOf(holders, max);
  }
  return max;
}

bool LeaseTable::Holds(LeaseKey key, NodeId node, TimePoint now) const {
  auto it = keys_.find(key);
  if (it == keys_.end()) {
    return false;
  }
  for (const LeaseHolder& h : it->second) {
    if (h.node == node && h.expiry > now) {
      return true;
    }
  }
  return false;
}

size_t LeaseTable::ActiveHolderCount(LeaseKey key, TimePoint now) const {
  auto it = keys_.find(key);
  if (it == keys_.end()) {
    return 0;
  }
  size_t n = 0;
  for (const LeaseHolder& h : it->second) {
    if (h.expiry > now) {
      ++n;
    }
  }
  return n;
}

size_t LeaseTable::RecordCount() const {
  size_t n = 0;
  for (const auto& [key, holders] : keys_) {
    n += holders.size();
  }
  return n;
}

size_t LeaseTable::ApproxBytesFor(NodeId node) const {
  size_t n = 0;
  for (const auto& [key, holders] : keys_) {
    for (const LeaseHolder& h : holders) {
      if (h.node == node) {
        // One lease record: the key reference plus holder + expiry --
        // "a couple of pointers" in the paper's estimate.
        n += sizeof(LeaseKey) + sizeof(LeaseHolder);
      }
    }
  }
  return n;
}

}  // namespace leases
