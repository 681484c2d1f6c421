// Unit tests for CacheClient features: batching, anticipatory extension,
// voluntary relinquish, open() edge cases, cache management and the
// per-key lease table.
#include <gtest/gtest.h>

#include "src/clock/sim_clock.h"
#include "src/clock/sim_timer_host.h"
#include "src/core/sim_cluster.h"
#include "src/sim/simulator.h"
#include "src/workload/v_config.h"

namespace leases {
namespace {

ClusterOptions Base(size_t clients = 2) {
  return MakeVClusterOptions(Duration::Seconds(10), clients);
}

TEST(BatchingTest, OneExtensionCoversAllCachedFiles) {
  SimCluster cluster(Base());
  std::vector<FileId> files;
  for (int i = 0; i < 5; ++i) {
    files.push_back(*cluster.store().CreatePath(
        "/f" + std::to_string(i), FileClass::kNormal, Bytes("x")));
    ASSERT_TRUE(cluster.SyncRead(0, files.back()).ok());
  }
  cluster.RunFor(Duration::Seconds(11));  // all leases lapse
  ASSERT_TRUE(cluster.SyncRead(0, files[0]).ok());
  // A single request extended every held lease...
  EXPECT_EQ(cluster.client(0).stats().extend_requests, 1u);
  EXPECT_EQ(cluster.client(0).stats().extend_items, 5u);
  // ...so the other files are local hits again without any traffic.
  uint64_t extensions = cluster.server().stats().extension_requests;
  for (FileId f : files) {
    Result<ReadResult> r = cluster.SyncRead(0, f);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->from_cache);
  }
  EXPECT_EQ(cluster.server().stats().extension_requests, extensions);
}

TEST(BatchingTest, DisabledBatchingExtendsOnlyTheReadFile) {
  ClusterOptions options = Base();
  options.client.batch_extensions = false;
  SimCluster cluster(options);
  FileId a = *cluster.store().CreatePath("/a", FileClass::kNormal, Bytes("x"));
  FileId b = *cluster.store().CreatePath("/b", FileClass::kNormal, Bytes("x"));
  ASSERT_TRUE(cluster.SyncRead(0, a).ok());
  ASSERT_TRUE(cluster.SyncRead(0, b).ok());
  cluster.RunFor(Duration::Seconds(11));
  ASSERT_TRUE(cluster.SyncRead(0, a).ok());
  EXPECT_EQ(cluster.client(0).stats().extend_items, 1u);
  // b still has no valid lease.
  EXPECT_TRUE(cluster.client(0).HasValidLease(a));
  EXPECT_FALSE(cluster.client(0).HasValidLease(b));
}

TEST(BatchingTest, ConcurrentReadsJoinOneInFlightRequest) {
  SimCluster cluster(Base());
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("x"));
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    cluster.client(0).Read(file, [&](Result<ReadResult> r) {
      ASSERT_TRUE(r.ok());
      ++done;
    });
  }
  cluster.RunFor(Duration::Seconds(1));
  EXPECT_EQ(done, 5);
  // One fetch served all five concurrent readers.
  EXPECT_EQ(cluster.client(0).stats().remote_fetches, 1u);
  EXPECT_EQ(cluster.server().stats().reads_served, 1u);
}

TEST(AnticipatoryTest, RenewalPreventsReadStalls) {
  ClusterOptions options = Base();
  options.client.anticipatory_extension = true;
  options.client.anticipation_lead = Duration::Seconds(3);
  SimCluster cluster(options);
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("x"));
  ASSERT_TRUE(cluster.SyncRead(0, file).ok());
  // Far past the original term: the background renewals kept it valid.
  cluster.RunFor(Duration::Seconds(60));
  EXPECT_TRUE(cluster.client(0).HasValidLease(file));
  Result<ReadResult> r = cluster.SyncRead(0, file);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->from_cache);
  // The cost: extensions happened with no reads at all (idle-client load).
  EXPECT_GE(cluster.client(0).stats().extend_requests, 5u);
}

TEST(RelinquishTest, IdleLeasesAreGivenUpAndWritesSpeedUp) {
  SimCluster cluster(Base(2));
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("x"));
  ASSERT_TRUE(cluster.SyncRead(1, file).ok());
  cluster.RunFor(Duration::Seconds(5));
  cluster.client(1).RelinquishIdle(Duration::Seconds(2));
  cluster.RunFor(Duration::Millis(10));
  EXPECT_EQ(cluster.client(1).stats().keys_relinquished, 1u);
  EXPECT_EQ(cluster.server().stats().relinquishes, 1u);
  EXPECT_EQ(cluster.server().ActiveLeaseCount(
                cluster.store().CoverOf(file)), 0u);
  // A write now needs no approval at all.
  ASSERT_TRUE(cluster.SyncWrite(0, file, Bytes("y")).ok());
  EXPECT_EQ(cluster.server().stats().approval_rounds, 0u);
  // Data stayed cached; the next read only needs an extension.
  EXPECT_TRUE(cluster.client(1).HasCached(file));
}

TEST(RelinquishTest, ActiveLeasesAreKept) {
  SimCluster cluster(Base());
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("x"));
  ASSERT_TRUE(cluster.SyncRead(0, file).ok());
  cluster.client(0).RelinquishIdle(Duration::Seconds(2));  // just accessed
  cluster.RunFor(Duration::Millis(10));
  EXPECT_EQ(cluster.client(0).stats().keys_relinquished, 0u);
  EXPECT_TRUE(cluster.client(0).HasValidLease(file));
}

TEST(DropCacheTest, EvictionLosesDataButNotCorrectness) {
  SimCluster cluster(Base());
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("x"));
  ASSERT_TRUE(cluster.SyncRead(0, file).ok());
  cluster.client(0).DropCache();
  EXPECT_EQ(cluster.client(0).cache_size(), 0u);
  EXPECT_EQ(cluster.client(0).lease_count(), 0u);
  Result<ReadResult> r = cluster.SyncRead(0, file);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->from_cache);
  EXPECT_EQ(cluster.oracle().violations(), 0u);
}

TEST(OpenTest, ErrorsPropagate) {
  SimCluster cluster(Base());
  EXPECT_EQ(cluster.SyncOpen(0, "no-slash").code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(cluster.SyncOpen(0, "/missing/file").code(),
            ErrorCode::kNotFound);
  Result<OpenResult> root = cluster.SyncOpen(0, "/");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->file, cluster.store().root());
  EXPECT_EQ(root->file_class, FileClass::kDirectory);
}

TEST(OpenTest, ReturnsModeAndClassFromBinding) {
  SimCluster cluster(Base());
  ASSERT_TRUE(cluster.store()
                  .CreatePath("/bin/tool", FileClass::kInstalled,
                              Bytes("t"), kModeRead)
                  .ok());
  Result<OpenResult> open = cluster.SyncOpen(0, "/bin/tool");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open->file_class, FileClass::kInstalled);
  EXPECT_EQ(open->mode, kModeRead);
}

TEST(TimeoutTest, UnreachableServerFailsReadsAfterRetries) {
  ClusterOptions options = Base();
  options.client.request_timeout = Duration::Millis(200);
  options.client.max_retries = 3;
  SimCluster cluster(options);
  FileId file = *cluster.store().CreatePath("/f", FileClass::kNormal,
                                            Bytes("x"));
  cluster.PartitionClient(0, true);
  Result<ReadResult> r = cluster.SyncRead(0, file, Duration::Seconds(10));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kTimeout);
  EXPECT_EQ(cluster.client(0).stats().retransmits, 3u);
  EXPECT_EQ(cluster.client(0).stats().timeouts, 1u);
}

// --- One client against a scripted server ---
//
// The rig plays the server by hand: it answers the client's requests with
// grants of whatever cover key a test picks, so several cached files can
// share one key (as installed files under a directory key do) without a
// server deciding it.

constexpr NodeId kServer(1);
constexpr NodeId kClient(2);

class RecordingTransport : public Transport {
 public:
  NodeId local_node() const override { return kClient; }
  void Send(NodeId, MessageClass, Packet packet) override {
    sent.push_back(std::move(packet));
  }
  void Multicast(std::span<const NodeId>, MessageClass,
                 Packet packet) override {
    sent.push_back(std::move(packet));
  }
  std::vector<Packet> sent;
};

// Counts the reads of the clock it passes through.
class CountingClock : public Clock {
 public:
  explicit CountingClock(const Clock* inner) : inner_(inner) {}
  TimePoint Now() const override {
    ++reads;
    return inner_->Now();
  }
  mutable uint64_t reads = 0;

 private:
  const Clock* inner_;
};

class ScriptedServerRig {
 public:
  explicit ScriptedServerRig(ClientParams params)
      : clock_(&sim_, ClockModel::Perfect()),
        timers_(&sim_, &clock_),
        counting_(&clock_),
        client_(kClient, kServer, FileId(1), &transport_, &counting_,
                &timers_, params, /*oracle=*/nullptr) {}

  CacheClient& client() { return client_; }
  // The client's clock reads so far.
  uint64_t clock_reads() const { return counting_.reads; }
  size_t sent() const { return transport_.sent.size(); }

  // Reads `file`, which must miss, and answers the fetch with a grant of
  // `key` for `term`.
  void Fetch(FileId file, LeaseKey key,
             Duration term = Duration::Seconds(10),
             FileClass file_class = FileClass::kNormal) {
    size_t before = transport_.sent.size();
    bool done = false;
    client_.Read(file, [&done](Result<ReadResult> r) {
      ASSERT_TRUE(r.ok());
      EXPECT_FALSE(r->from_cache);
      done = true;
    });
    ASSERT_EQ(transport_.sent.size(), before + 1);
    const auto* request = std::get_if<ReadRequest>(&transport_.sent.back());
    ASSERT_NE(request, nullptr);
    ReadReply reply;
    reply.req = request->req;
    reply.file = file;
    reply.version = 1;
    reply.file_class = file_class;
    reply.lease = LeaseGrant{key, term};
    reply.data = Bytes("x");
    client_.HandleTyped(kServer, MessageClass::kData, reply);
    EXPECT_TRUE(done);
  }

  // Reads `file`; true when the cache served it without a message.
  bool ReadsLocally(FileId file) {
    size_t before = transport_.sent.size();
    bool local = false;
    client_.Read(file, [&local](Result<ReadResult> r) {
      local = r.ok() && r->from_cache;
    });
    return local && transport_.sent.size() == before;
  }

  void Deliver(Packet packet) {
    client_.HandleTyped(kServer, MessageClass::kConsistency, packet);
  }

  // Every key the client relinquished by a Relinquish message so far.
  std::vector<LeaseKey> Relinquished() const {
    std::vector<LeaseKey> keys;
    for (const Packet& p : transport_.sent) {
      if (const auto* r = std::get_if<Relinquish>(&p)) {
        keys.insert(keys.end(), r->keys.begin(), r->keys.end());
      }
    }
    return keys;
  }

  const Packet& LastSent() const { return transport_.sent.back(); }

  void Advance(Duration d) { sim_.RunFor(d); }

 private:
  Simulator sim_;
  SimClock clock_;
  SimTimerHost timers_;
  CountingClock counting_;
  RecordingTransport transport_;
  CacheClient client_;
};

ClientParams TinyCache(size_t files) {
  ClientParams params;
  params.max_cached_files = files;
  return params;
}

TEST(CacheIndexTest, EvictsTheLeastRecentlyTouchedEntry) {
  ScriptedServerRig rig(TinyCache(3));
  for (uint64_t f = 10; f < 13; ++f) {
    rig.Fetch(FileId(f), LeaseKey(f));
    rig.Advance(Duration::Millis(1));
  }
  // A hit touches 10, so 11 is now the least recently touched.
  ASSERT_TRUE(rig.ReadsLocally(FileId(10)));
  rig.Fetch(FileId(13), LeaseKey(13));
  EXPECT_FALSE(rig.client().HasCached(FileId(11)));
  for (uint64_t f : {10, 12, 13}) {
    EXPECT_TRUE(rig.client().HasCached(FileId(f))) << f;
  }
  EXPECT_EQ(rig.Relinquished(), std::vector<LeaseKey>{LeaseKey(11)});
  // Then 12, the next least recent.
  rig.Fetch(FileId(14), LeaseKey(14));
  EXPECT_FALSE(rig.client().HasCached(FileId(12)));
  EXPECT_EQ(rig.client().stats().evictions, 2u);
}

TEST(CacheIndexTest, EvictionSkipsTheKeptOne) {
  // With one slot the entry just fetched is never the victim.
  ScriptedServerRig one(TinyCache(1));
  one.Fetch(FileId(10), LeaseKey(10));
  one.Fetch(FileId(11), LeaseKey(11));
  EXPECT_FALSE(one.client().HasCached(FileId(10)));
  EXPECT_TRUE(one.client().HasCached(FileId(11)));
}

TEST(CacheIndexTest, SharedKeyIsRelinquishedWithItsLastEntry) {
  ScriptedServerRig rig(TinyCache(2));
  const LeaseKey dir_key(100);  // one key over two installed files
  rig.Fetch(FileId(10), dir_key);
  rig.Advance(Duration::Millis(1));
  rig.Fetch(FileId(11), dir_key);
  rig.Advance(Duration::Millis(1));
  EXPECT_EQ(rig.client().lease_count(), 1u);
  // Evicts 10; 11 still uses the key.
  rig.Fetch(FileId(12), LeaseKey(12));
  rig.Advance(Duration::Millis(1));
  EXPECT_FALSE(rig.client().HasCached(FileId(10)));
  EXPECT_TRUE(rig.Relinquished().empty());
  EXPECT_TRUE(rig.client().HasValidLease(FileId(11)));
  // Evicts 11, the key's last entry.
  rig.Fetch(FileId(13), LeaseKey(13));
  EXPECT_FALSE(rig.client().HasCached(FileId(11)));
  EXPECT_EQ(rig.Relinquished(), std::vector<LeaseKey>{dir_key});
  EXPECT_EQ(rig.client().stats().keys_relinquished, 1u);
  EXPECT_EQ(rig.client().lease_count(), 2u);  // 12 and 13
}

TEST(CacheIndexTest, ApprovalRelinquishesAKeyOnlyWhenNothingElseUsesIt) {
  ScriptedServerRig rig(ClientParams{});
  const LeaseKey dir_key(100);
  rig.Fetch(FileId(10), dir_key);
  rig.Fetch(FileId(11), dir_key);
  rig.Fetch(FileId(12), LeaseKey(12));

  rig.Deliver(ApproveRequest{1, FileId(10), dir_key});
  const auto* first = std::get_if<ApproveReply>(&rig.LastSent());
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(first->relinquish_key);  // 11 still uses the key
  EXPECT_FALSE(rig.client().HasCached(FileId(10)));
  EXPECT_TRUE(rig.client().HasValidLease(FileId(11)));

  rig.Deliver(ApproveRequest{2, FileId(11), dir_key});
  const auto* second = std::get_if<ApproveReply>(&rig.LastSent());
  ASSERT_NE(second, nullptr);
  EXPECT_TRUE(second->relinquish_key);

  rig.Deliver(ApproveRequest{3, FileId(12), LeaseKey(12)});
  const auto* private_key = std::get_if<ApproveReply>(&rig.LastSent());
  ASSERT_NE(private_key, nullptr);
  EXPECT_TRUE(private_key->relinquish_key);
  EXPECT_EQ(rig.client().lease_count(), 0u);
  EXPECT_EQ(rig.client().stats().invalidations, 3u);
}

TEST(CacheIndexTest, LapsedKeyRegrantMarksOnlyItsOtherEntriesSuspect) {
  ScriptedServerRig rig(ClientParams{});
  const LeaseKey dir_key(100);
  rig.Fetch(FileId(10), dir_key, Duration::Seconds(2));
  rig.Fetch(FileId(11), dir_key, Duration::Seconds(2));
  rig.Fetch(FileId(12), LeaseKey(12), Duration::Seconds(60));
  rig.Advance(Duration::Seconds(3));  // the directory key lapses
  ASSERT_FALSE(rig.client().HasValidLease(FileId(10)));
  ASSERT_TRUE(rig.client().HasValidLease(FileId(12)));

  // A new file under the lapsed key brings a fresh grant of it.
  rig.Fetch(FileId(13), dir_key, Duration::Seconds(60));
  EXPECT_TRUE(rig.client().HasValidLease(FileId(10)));
  // The fetched file and the other key's entry serve locally...
  EXPECT_TRUE(rig.ReadsLocally(FileId(13)));
  EXPECT_TRUE(rig.ReadsLocally(FileId(12)));
  // ...but a write may have slipped into the gap, so the key's older
  // entries revalidate first.
  EXPECT_FALSE(rig.ReadsLocally(FileId(10)));
  EXPECT_FALSE(rig.ReadsLocally(FileId(11)));
}

TEST(CacheIndexTest, InstalledRenewalReachesKeysOnlyCachedEntriesUse) {
  ScriptedServerRig rig(ClientParams{});
  const LeaseKey dir_key(100);
  rig.Fetch(FileId(10), dir_key, Duration::Seconds(2));
  rig.Advance(Duration::Seconds(3));
  ASSERT_FALSE(rig.client().HasValidLease(FileId(10)));
  rig.Deliver(InstalledExtend{Duration::Seconds(60), {dir_key, LeaseKey(7)}});
  EXPECT_TRUE(rig.client().HasValidLease(FileId(10)));
  EXPECT_EQ(rig.client().stats().installed_renewals, 1u);  // not key 7
  EXPECT_EQ(rig.client().lease_count(), 1u);
}

// --- Key table lifetimes ---
//
// A cover key's KeyState lives while it holds a lease or a cached entry
// uses it; entries point at it.

TEST(KeyTableTest, ConflictErasesTheEntryButKeepsTheLease) {
  ScriptedServerRig rig(ClientParams{});
  rig.Fetch(FileId(10), LeaseKey(10));
  ErrorCode code = ErrorCode::kOk;
  rig.client().Write(FileId(10), Bytes("y"), [&code](Result<WriteResult> r) {
    code = r.code();
  });
  const auto* request = std::get_if<WriteRequest>(&rig.LastSent());
  ASSERT_NE(request, nullptr);
  rig.Deliver(WriteReply{request->req, FileId(10), ErrorCode::kConflict, 0});
  EXPECT_EQ(code, ErrorCode::kConflict);
  EXPECT_EQ(rig.client().cache_size(), 0u);
  EXPECT_EQ(rig.client().lease_count(), 1u);
  // The re-fetched entry finds the key's lease still there.
  rig.Fetch(FileId(10), LeaseKey(10));
  EXPECT_TRUE(rig.ReadsLocally(FileId(10)));
  EXPECT_EQ(rig.client().lease_count(), 1u);
}

TEST(KeyTableTest, IdleRelinquishKeepsTheEntriesForTheNextGrant) {
  ScriptedServerRig rig(ClientParams{});
  const LeaseKey dir_key(100);
  rig.Fetch(FileId(10), dir_key);
  rig.Fetch(FileId(11), dir_key);
  rig.Advance(Duration::Seconds(2));
  rig.client().RelinquishIdle(Duration::Seconds(1));
  EXPECT_EQ(rig.Relinquished(), std::vector<LeaseKey>{dir_key});
  EXPECT_EQ(rig.client().lease_count(), 0u);
  EXPECT_EQ(rig.client().cache_size(), 2u);
  EXPECT_FALSE(rig.client().HasValidLease(FileId(10)));
  // The key's entries are still counted, so the next grant of it marks
  // them suspect: the server forgot this client in between.
  rig.Fetch(FileId(12), dir_key);
  EXPECT_TRUE(rig.ReadsLocally(FileId(12)));
  EXPECT_FALSE(rig.ReadsLocally(FileId(10)));
  EXPECT_FALSE(rig.ReadsLocally(FileId(11)));
}

TEST(KeyTableTest, AnEntryMovingToANewKeyFreesTheOldKeysState) {
  ScriptedServerRig rig(ClientParams{});
  rig.Fetch(FileId(10), LeaseKey(20));
  rig.Advance(Duration::Seconds(2));
  rig.client().RelinquishIdle(Duration::Seconds(1));
  ASSERT_EQ(rig.client().lease_count(), 0u);  // key 20: one entry, no lease
  // The extension's reply moves the entry under key 21.
  rig.client().Read(FileId(10), [](Result<ReadResult>) {});
  const auto* request = std::get_if<ExtendRequest>(&rig.LastSent());
  ASSERT_NE(request, nullptr);
  ExtendReplyItem item;
  item.file = FileId(10);
  item.version = 1;
  item.lease = LeaseGrant{LeaseKey(21), Duration::Seconds(10)};
  rig.Deliver(ExtendReply{request->req, {item}});
  ASSERT_TRUE(rig.ReadsLocally(FileId(10)));
  // Key 20 has neither lease nor entry left, so a renewal no longer
  // reaches it.
  rig.Deliver(
      InstalledExtend{Duration::Seconds(60), {LeaseKey(20), LeaseKey(21)}});
  EXPECT_EQ(rig.client().stats().installed_renewals, 1u);
  EXPECT_EQ(rig.client().lease_count(), 1u);
}

// --- The synchronous hit path ---

TEST(ReadCachedTest, AHitReadsTheClockOnce) {
  ScriptedServerRig rig(ClientParams{});
  rig.Fetch(FileId(10), LeaseKey(10));
  uint64_t before = rig.clock_reads();
  ReadResult result;
  ASSERT_TRUE(rig.client().ReadCached(FileId(10), &result));
  EXPECT_EQ(rig.clock_reads() - before, 1u);
  EXPECT_EQ(result.file, FileId(10));
  EXPECT_EQ(result.version, 1u);
  EXPECT_EQ(Text(result.data), "x");
  EXPECT_TRUE(result.from_cache);
  // A callback read's hit is the same code.
  before = rig.clock_reads();
  ASSERT_TRUE(rig.ReadsLocally(FileId(10)));
  EXPECT_EQ(rig.clock_reads() - before, 1u);
}

TEST(ReadCachedTest, RefusesAndChangesNothingWithoutAServableDatum) {
  ScriptedServerRig rig(TinyCache(4));
  const LeaseKey dir_key(100);
  rig.Fetch(FileId(10), dir_key, Duration::Seconds(2));
  rig.Fetch(FileId(11), dir_key, Duration::Seconds(2));
  rig.Fetch(FileId(12), LeaseKey(12), Duration::Seconds(60));
  rig.Advance(Duration::Seconds(3));  // the directory key lapses
  auto refuses = [&rig](FileId file) {
    const ClientStats stats = rig.client().stats();
    const size_t sent = rig.sent();
    ReadResult result;
    result.version = 99;
    bool served = rig.client().ReadCached(file, &result);
    return !served && result.version == 99 && result.data.empty() &&
           !result.from_cache && rig.client().stats() == stats &&
           rig.sent() == sent;
  };
  EXPECT_TRUE(refuses(FileId(99)));  // not cached
  EXPECT_TRUE(refuses(FileId(10)));  // lease lapsed
  // A fresh grant of the lapsed key leaves 11 leased but suspect.
  rig.Fetch(FileId(13), dir_key, Duration::Seconds(60));
  ASSERT_TRUE(rig.client().HasValidLease(FileId(11)));
  EXPECT_TRUE(refuses(FileId(11)));
  // Neither refusal touched its entry: 10 is still the least recently
  // touched, so it is the one a fifth file evicts.
  rig.Fetch(FileId(14), LeaseKey(14));
  EXPECT_FALSE(rig.client().HasCached(FileId(10)));
  EXPECT_TRUE(rig.client().HasCached(FileId(11)));
}

TEST(ReadCachedTest, ServesTemporariesWithoutALease) {
  ScriptedServerRig rig(ClientParams{});
  rig.Fetch(FileId(10), LeaseKey(10), Duration::Seconds(2),
            FileClass::kTemporary);
  rig.Advance(Duration::Seconds(3));
  ASSERT_FALSE(rig.client().HasValidLease(FileId(10)));
  ReadResult result;
  ASSERT_TRUE(rig.client().ReadCached(FileId(10), &result));
  EXPECT_EQ(Text(result.data), "x");
  EXPECT_TRUE(result.from_cache);
  EXPECT_EQ(rig.client().stats().local_reads, 1u);
}

TEST(ReadCachedTest, AMissAfterARefusalReadsTheClockOnceLess) {
  // After ReadCached refuses, ReadMiss starts the extension without Read's
  // second hit check: the refusal's clock read, then the extension's own
  // two (its send time and the request's clock stamp). Read after a
  // refusal checks the cache, and reads the clock, once more.
  auto miss = [](bool full_read, ClientStats* stats) {
    ScriptedServerRig rig(ClientParams{});
    rig.Fetch(FileId(10), LeaseKey(10), Duration::Seconds(2));
    rig.Advance(Duration::Seconds(3));  // cached, but the lease lapsed
    const uint64_t before = rig.clock_reads();
    const size_t sent = rig.sent();
    ReadResult result;
    EXPECT_FALSE(rig.client().ReadCached(FileId(10), &result));
    if (full_read) {
      rig.client().Read(FileId(10), [](Result<ReadResult>) {});
    } else {
      rig.client().ReadMiss(FileId(10), [](Result<ReadResult>) {});
    }
    EXPECT_EQ(rig.sent(), sent + 1);
    EXPECT_NE(std::get_if<ExtendRequest>(&rig.LastSent()), nullptr);
    *stats = rig.client().stats();
    return rig.clock_reads() - before;
  };
  ClientStats via_read;
  ClientStats via_miss;
  const uint64_t read_clocks = miss(/*full_read=*/true, &via_read);
  const uint64_t miss_clocks = miss(/*full_read=*/false, &via_miss);
  EXPECT_EQ(miss_clocks, 3u);
  EXPECT_EQ(read_clocks, miss_clocks + 1);
  EXPECT_EQ(via_read, via_miss);
}

// Runs one sequence of reads -- hits of every kind, one beside a write in
// flight, a lapsed lease, a miss -- through Read's callbacks or, when `direct`, through ReadCached with
// ReadMiss only on a refusal (as RuntimeClient::Read does).
ClientStats ReadSequenceStats(bool direct) {
  ScriptedServerRig rig(ClientParams{});
  auto read = [&rig, direct](FileId file) {
    ReadResult result;
    if (!direct) {
      rig.client().Read(file, [](Result<ReadResult>) {});
    } else if (!rig.client().ReadCached(file, &result)) {
      rig.client().ReadMiss(file, [](Result<ReadResult>) {});
    }
  };
  rig.Fetch(FileId(10), LeaseKey(10), Duration::Seconds(2));
  rig.Fetch(FileId(11), LeaseKey(11), Duration::Seconds(60));
  rig.Fetch(FileId(12), LeaseKey(12), Duration::Seconds(2),
            FileClass::kTemporary);
  for (uint64_t f : {10, 11, 12, 10}) {
    read(FileId(f));
  }
  rig.client().Write(FileId(11), Bytes("new"), [](Result<WriteResult>) {});
  read(FileId(11));
  rig.Advance(Duration::Seconds(3));
  for (uint64_t f : {10, 11, 12, 99}) {  // 10 extends, 99 fetches
    read(FileId(f));
  }
  return rig.client().stats();
}

TEST(ReadCachedTest, CountersMatchTheCallbackPath) {
  ClientStats callbacks = ReadSequenceStats(/*direct=*/false);
  EXPECT_EQ(callbacks, ReadSequenceStats(/*direct=*/true));
  EXPECT_EQ(callbacks.reads, 3u + 9u);  // three fetches, nine reads
  EXPECT_EQ(callbacks.local_reads, 7u);
  EXPECT_EQ(callbacks.extend_requests, 1u);
  EXPECT_EQ(callbacks.remote_fetches, 4u);
}

}  // namespace
}  // namespace leases
