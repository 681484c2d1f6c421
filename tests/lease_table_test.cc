// Unit tests for the server-side lease table. Allocations are counted by
// replacing global operator new (tests/alloc_counter.h).
#include <gtest/gtest.h>

#include "src/core/lease_table.h"
#include "tests/alloc_counter.h"

namespace leases {
namespace {

TimePoint At(int seconds) {
  return TimePoint::Epoch() + Duration::Seconds(seconds);
}

TEST(LeaseTableTest, GrantAndActiveHolders) {
  LeaseTable table;
  table.Grant(LeaseKey(1), NodeId(10), At(10));
  table.Grant(LeaseKey(1), NodeId(11), At(20));
  auto holders = table.ActiveHolders(LeaseKey(1), At(5));
  EXPECT_EQ(holders.size(), 2u);
  EXPECT_TRUE(table.Holds(LeaseKey(1), NodeId(10), At(5)));
  EXPECT_FALSE(table.Holds(LeaseKey(2), NodeId(10), At(5)));
}

TEST(LeaseTableTest, ExtensionNeverShortens) {
  LeaseTable table;
  table.Grant(LeaseKey(1), NodeId(10), At(20));
  table.Grant(LeaseKey(1), NodeId(10), At(10));  // "shorter" re-grant
  EXPECT_EQ(table.MaxExpiry(LeaseKey(1), At(0)), At(20));
  table.Grant(LeaseKey(1), NodeId(10), At(30));
  EXPECT_EQ(table.MaxExpiry(LeaseKey(1), At(0)), At(30));
  EXPECT_EQ(table.RecordCount(), 1u);  // still one record for the holder
}

TEST(LeaseTableTest, ExpiryIsExclusiveBoundary) {
  LeaseTable table;
  table.Grant(LeaseKey(1), NodeId(10), At(10));
  EXPECT_TRUE(table.Holds(LeaseKey(1), NodeId(10), At(9)));
  // A lease is no longer valid AT its expiry instant.
  EXPECT_FALSE(table.Holds(LeaseKey(1), NodeId(10), At(10)));
  EXPECT_EQ(table.ActiveHolderCount(LeaseKey(1), At(10)), 0u);
}

TEST(LeaseTableTest, ActiveHoldersPrunesExpired) {
  LeaseTable table;
  table.Grant(LeaseKey(1), NodeId(10), At(10));
  table.Grant(LeaseKey(1), NodeId(11), At(30));
  EXPECT_EQ(table.RecordCount(), 2u);
  auto holders = table.ActiveHolders(LeaseKey(1), At(20));
  ASSERT_EQ(holders.size(), 1u);
  EXPECT_EQ(holders[0].node, NodeId(11));
  // Pruning reclaimed the expired record ("the record of expired leases
  // could be reclaimed").
  EXPECT_EQ(table.RecordCount(), 1u);
  // Fully expired key disappears.
  (void)table.ActiveHolders(LeaseKey(1), At(40));
  EXPECT_EQ(table.KeyCount(), 0u);
}

TEST(LeaseTableTest, MaxExpiryDefaultsToNow) {
  LeaseTable table;
  EXPECT_EQ(table.MaxExpiry(LeaseKey(9), At(7)), At(7));
  table.Grant(LeaseKey(9), NodeId(1), At(12));
  table.Grant(LeaseKey(9), NodeId(2), At(15));
  EXPECT_EQ(table.MaxExpiry(LeaseKey(9), At(7)), At(15));
}

TEST(LeaseTableTest, RemoveSingleAndAll) {
  LeaseTable table;
  table.Grant(LeaseKey(1), NodeId(10), At(10));
  table.Grant(LeaseKey(1), NodeId(11), At(10));
  table.Grant(LeaseKey(2), NodeId(10), At(10));
  table.Remove(LeaseKey(1), NodeId(10));
  EXPECT_FALSE(table.Holds(LeaseKey(1), NodeId(10), At(0)));
  EXPECT_TRUE(table.Holds(LeaseKey(1), NodeId(11), At(0)));
  EXPECT_TRUE(table.Holds(LeaseKey(2), NodeId(10), At(0)));
  table.RemoveAll(NodeId(10));
  EXPECT_FALSE(table.Holds(LeaseKey(2), NodeId(10), At(0)));
  EXPECT_EQ(table.RecordCount(), 1u);
  table.Remove(LeaseKey(99), NodeId(1));  // no-op on absent key
}

TEST(LeaseTableTest, ClearDropsEverything) {
  LeaseTable table;
  table.Grant(LeaseKey(1), NodeId(10), At(10));
  table.Clear();
  EXPECT_EQ(table.KeyCount(), 0u);
  EXPECT_EQ(table.RecordCount(), 0u);
}

TEST(LeaseTableTest, CountersAgreeWithActiveHolders) {
  // ActiveHolderCount and Holds iterate without pruning or allocating;
  // they must agree with the pruned list ActiveHolders materializes, at
  // every instant relative to the staggered expiries.
  LeaseTable table;
  table.Grant(LeaseKey(1), NodeId(10), At(10));
  table.Grant(LeaseKey(1), NodeId(11), At(20));
  table.Grant(LeaseKey(1), NodeId(12), At(30));
  for (int t : {0, 5, 10, 15, 20, 25, 30, 35}) {
    size_t counted = table.ActiveHolderCount(LeaseKey(1), At(t));
    size_t holds = 0;
    for (uint32_t node : {10u, 11u, 12u}) {
      holds += table.Holds(LeaseKey(1), NodeId(node), At(t)) ? 1 : 0;
    }
    auto listed = table.ActiveHolders(LeaseKey(1), At(t));
    EXPECT_EQ(counted, listed.size()) << "at t=" << t;
    EXPECT_EQ(holds, listed.size()) << "at t=" << t;
    // Re-count after pruning: still consistent.
    EXPECT_EQ(table.ActiveHolderCount(LeaseKey(1), At(t)), listed.size());
  }
  // Absent key: everything agrees on zero.
  EXPECT_EQ(table.ActiveHolderCount(LeaseKey(7), At(0)), 0u);
  EXPECT_TRUE(table.ActiveHolders(LeaseKey(7), At(0)).empty());
}

TEST(LeaseTableTest, PerClientStorageMatchesPaperEstimate) {
  // "For a client holding about one hundred leases, the total is around
  // one kilobyte per client."
  LeaseTable table;
  for (uint64_t i = 1; i <= 100; ++i) {
    table.Grant(LeaseKey(i), NodeId(1), At(10));
  }
  size_t bytes = table.ApproxBytesFor(NodeId(1));
  EXPECT_GE(bytes, 100 * 16u);   // at least two pointers' worth per lease
  EXPECT_LE(bytes, 4 * 1024u);   // and comfortably around a kilobyte
}

TEST(LeaseTableTest, SteadyStateGrantAndRemoveDoNotAllocate) {
  // A cache that evicts one lease per miss: every grant adds a key and a
  // holder, and the eviction's relinquish removes an older one. Once the
  // dropped keys' nodes cover the working set, neither calls the allocator.
  LeaseTable table;
  constexpr uint64_t kCached = 64;
  auto step = [&table](uint64_t i) {
    table.Grant(LeaseKey(i), NodeId(1 + i % 2), At(10));
    if (i >= kCached) {
      table.Remove(LeaseKey(i - kCached), NodeId(1 + i % 2));
    }
  };
  uint64_t i = 1;
  for (; i <= 4 * kCached; ++i) {  // warm: spare nodes and the bucket array
    step(i);
  }
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (; i <= 64 * kCached; ++i) {
    step(i);
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(table.KeyCount(), kCached);
  EXPECT_TRUE(table.Holds(LeaseKey(i - 1), NodeId(1 + (i - 1) % 2), At(5)));
}

}  // namespace
}  // namespace leases
