// Multi-server tests: two independent lease servers on one simulated
// network, a client with one cache per server, and the MountRouter
// dispatching by path prefix. Also demonstrates wiring the library's
// building blocks by hand (no SimCluster).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "src/clock/sim_clock.h"
#include "src/clock/sim_timer_host.h"
#include "src/core/lease_server.h"
#include "src/core/mount_router.h"
#include "src/core/oracle.h"
#include "src/core/swarm_cluster.h"
#include "src/core/term_policy.h"
#include "src/net/sim_network.h"

namespace leases {
namespace {

std::vector<uint8_t> B(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

// Hand-built two-server, one-client world.
struct TwoServerWorld {
  Simulator sim;
  // One oracle per primary: FileIds are scoped to their server, so a shared
  // oracle would conflate /home's file 3 with /usr's file 3.
  Oracle home_oracle{&sim};
  Oracle usr_oracle{&sim};
  SimNetwork net{&sim, NetworkParams{}};
  FixedTermPolicy policy{Duration::Seconds(10)};

  struct ServerRig {
    FileStore store;
    DurableMeta meta;
    std::unique_ptr<SimClock> clock;
    std::unique_ptr<SimTimerHost> timers;
    std::unique_ptr<LeaseServer> server;
  };
  ServerRig home;  // NodeId 1
  ServerRig usr;   // NodeId 2

  // The client (NodeId 3) runs one CacheClient per server, sharing its
  // clock and timers -- exactly how a real workstation would.
  std::unique_ptr<SimClock> client_clock;
  std::unique_ptr<SimTimerHost> client_timers;
  std::unique_ptr<CacheClient> home_cache;
  std::unique_ptr<CacheClient> usr_cache;
  MountRouter router;

  // Demultiplexes server replies to the right per-server cache.
  struct Demux : PacketHandler {
    CacheClient* from_home = nullptr;
    CacheClient* from_usr = nullptr;
    void HandleTyped(NodeId from, MessageClass cls,
                     const Packet& packet) override {
      if (from == NodeId(1)) {
        from_home->HandleTyped(from, cls, packet);
      } else if (from == NodeId(2)) {
        from_usr->HandleTyped(from, cls, packet);
      }
    }
  } demux;

  TwoServerWorld() {
    auto make_server = [this](ServerRig& rig, NodeId id, Oracle* oracle) {
      rig.clock = std::make_unique<SimClock>(&sim, ClockModel::Perfect());
      rig.timers = std::make_unique<SimTimerHost>(&sim, rig.clock.get());
      SimTransport* transport = net.AttachNode(id, nullptr);
      rig.server = std::make_unique<LeaseServer>(
          id, &rig.store, &rig.meta, transport, rig.clock.get(),
          rig.timers.get(), &policy, ServerParams{}, oracle);
      net.ReplaceHandler(id, rig.server.get());
    };
    make_server(home, NodeId(1), &home_oracle);
    make_server(usr, NodeId(2), &usr_oracle);

    client_clock = std::make_unique<SimClock>(&sim, ClockModel::Perfect());
    client_timers = std::make_unique<SimTimerHost>(&sim, client_clock.get());
    SimTransport* transport = net.AttachNode(NodeId(3), &demux);
    ClientParams params;
    params.transit_allowance = Duration::Millis(5);
    home_cache = std::make_unique<CacheClient>(
        NodeId(3), NodeId(1), home.store.root(), transport,
        client_clock.get(), client_timers.get(), params, &home_oracle);
    usr_cache = std::make_unique<CacheClient>(
        NodeId(3), NodeId(2), usr.store.root(), transport,
        client_clock.get(), client_timers.get(), params, &usr_oracle);
    demux.from_home = home_cache.get();
    demux.from_usr = usr_cache.get();

    router.Mount("/", home_cache.get());
    router.Mount("/usr", usr_cache.get());
  }
};

TEST(MountRouterTest, RoutingRules) {
  MountRouter router;
  CacheClient* a = reinterpret_cast<CacheClient*>(0x1);
  CacheClient* b = reinterpret_cast<CacheClient*>(0x2);
  router.Mount("/", a);
  router.Mount("/usr", b);

  auto root = router.Route("/etc/passwd");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->client, a);
  EXPECT_EQ(root->relative_path, "/etc/passwd");

  auto usr = router.Route("/usr/bin/cc");
  ASSERT_TRUE(usr.ok());
  EXPECT_EQ(usr->client, b);
  EXPECT_EQ(usr->relative_path, "/bin/cc");

  // Exact prefix match maps to the mount's root.
  auto usr_root = router.Route("/usr");
  ASSERT_TRUE(usr_root.ok());
  EXPECT_EQ(usr_root->client, b);
  EXPECT_EQ(usr_root->relative_path, "/");

  // "/usrx" is NOT under "/usr".
  auto usrx = router.Route("/usrx");
  ASSERT_TRUE(usrx.ok());
  EXPECT_EQ(usrx->client, a);

  EXPECT_FALSE(router.Route("relative").ok());
}

TEST(MountRouterTest, NoRootMountMeansUncoveredPathsFail) {
  MountRouter router;
  CacheClient* b = reinterpret_cast<CacheClient*>(0x2);
  router.Mount("/usr", b);
  EXPECT_TRUE(router.Route("/usr/bin").ok());
  EXPECT_EQ(router.Route("/home/me").code(), ErrorCode::kNotFound);
}

TEST(MountRouterTest, TwoServersEndToEnd) {
  TwoServerWorld world;
  ASSERT_TRUE(world.home.store
                  .CreatePath("/home/alice/notes", FileClass::kNormal,
                              B("my notes"))
                  .ok());
  ASSERT_TRUE(world.usr.store
                  .CreatePath("/bin/latex", FileClass::kInstalled,
                              B("TeX"))
                  .ok());

  // Open + read a file on each server through the router.
  std::optional<std::string> notes;
  world.router.Open("/home/alice/notes",
                    [&](Result<std::pair<MountFile, OpenResult>> r) {
                      ASSERT_TRUE(r.ok());
                      MountRouter::Read(r->first, [&](Result<ReadResult> rr) {
                        ASSERT_TRUE(rr.ok());
                        notes = std::string(rr->data.begin(), rr->data.end());
                      });
                    });
  std::optional<std::string> latex;
  std::optional<MountFile> latex_file;
  world.router.Open("/usr/bin/latex",
                    [&](Result<std::pair<MountFile, OpenResult>> r) {
                      ASSERT_TRUE(r.ok());
                      latex_file = r->first;
                      MountRouter::Read(r->first, [&](Result<ReadResult> rr) {
                        ASSERT_TRUE(rr.ok());
                        latex = std::string(rr->data.begin(), rr->data.end());
                      });
                    });
  world.sim.RunFor(Duration::Seconds(1));
  ASSERT_TRUE(notes.has_value());
  EXPECT_EQ(*notes, "my notes");
  ASSERT_TRUE(latex.has_value());
  EXPECT_EQ(*latex, "TeX");

  // Each server granted leases independently.
  EXPECT_GT(world.home.server->stats().leases_granted, 0u);
  EXPECT_GT(world.usr.server->stats().leases_granted, 0u);

  // Writes route to the right primary: update latex via the router.
  bool wrote = false;
  MountRouter::Write(*latex_file, B("TeX2"), [&](Result<WriteResult> r) {
    ASSERT_TRUE(r.ok());
    wrote = true;
  });
  world.sim.RunFor(Duration::Seconds(1));
  ASSERT_TRUE(wrote);
  const FileRecord* rec = world.usr.store.Find(latex_file->file);
  EXPECT_EQ(std::string(rec->data.begin(), rec->data.end()), "TeX2");
  // The home server never saw that write.
  EXPECT_EQ(world.home.server->stats().writes_received, 0u);
  EXPECT_EQ(world.home_oracle.violations(), 0u);
  EXPECT_EQ(world.usr_oracle.violations(), 0u);
}

TEST(MountRouterTest, MountTableEditReroutesAndUnmountFallsThrough) {
  BasicMountRouter<int> router;
  int a = 0, b = 0, c = 0;
  router.Mount("/", &a);
  router.Mount("/usr", &b);
  ASSERT_EQ(router.Route("/usr/bin/cc")->client, &b);

  // Re-mounting a mounted prefix is a mount-table edit, not a new entry:
  // covered paths move to the new endpoint, everything else stays put.
  router.Mount("/usr", &c);
  EXPECT_EQ(router.mount_count(), 2u);
  EXPECT_EQ(router.Route("/usr/bin/cc")->client, &c);
  EXPECT_EQ(router.Route("/home/me")->client, &a);

  // Unmounting falls through to the next-longest cover...
  EXPECT_TRUE(router.Unmount("/usr"));
  EXPECT_EQ(router.Route("/usr/bin/cc")->client, &a);
  EXPECT_FALSE(router.Unmount("/usr"));
  // ...and removing the root leaves the path uncovered.
  EXPECT_TRUE(router.Unmount("/"));
  EXPECT_EQ(router.Route("/usr/bin/cc").code(), ErrorCode::kNotFound);
}

TEST(MountRouterTest, RoutingIsStableAndInsertionOrderIndependent) {
  // A swarm-style shard table: /s0../s7 plus a root catch-all, built in
  // two different insertion orders. Longest-prefix resolution must not
  // depend on mount order, and repeated routes must not drift.
  int shard[8];
  int root = 0;
  BasicMountRouter<int> forward;
  BasicMountRouter<int> reverse;
  forward.Mount("/", &root);
  for (int k = 0; k < 8; ++k) {
    forward.Mount("/s" + std::to_string(k), &shard[k]);
  }
  for (int k = 7; k >= 0; --k) {
    reverse.Mount("/s" + std::to_string(k), &shard[k]);
  }
  reverse.Mount("/", &root);

  for (int k = 0; k < 8; ++k) {
    for (int j = 0; j < 4; ++j) {
      std::string path =
          "/s" + std::to_string(k) + "/swarm/f" + std::to_string(j);
      auto first = forward.Route(path);
      ASSERT_TRUE(first.ok());
      EXPECT_EQ(first->client, &shard[k]) << path;
      auto again = forward.Route(path);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again->client, first->client) << path;
      EXPECT_EQ(again->relative_path, first->relative_path) << path;
      auto mirrored = reverse.Route(path);
      ASSERT_TRUE(mirrored.ok());
      EXPECT_EQ(mirrored->client, first->client) << path;
    }
  }
  // "/s12" shares characters with "/s1" but is not under it.
  EXPECT_EQ(forward.Route("/s12/swarm/f0")->client, &root);
}

TEST(MountRouterTest, SwarmNamespaceServesEachFileFromExactlyOneServer) {
  SwarmClusterOptions options;
  options.num_members = 64;
  options.num_servers = 4;
  options.files_per_server = 4;
  SwarmCluster cluster(options);

  // Every home path resolves through the shard router to the one server
  // that actually stores the file, and no (server, file) pair repeats: a
  // datum has exactly one primary site.
  std::set<std::pair<uint32_t, uint64_t>> served_by;
  for (size_t h = 0; h < cluster.homes().size(); ++h) {
    const SwarmHome& home = cluster.homes()[h];
    auto route = cluster.shard_router().Route(cluster.home_path(h));
    ASSERT_TRUE(route.ok()) << cluster.home_path(h);
    EXPECT_EQ(route->client->server, home.server);
    Result<FileId> resolved = route->client->store->Resolve(
        route->relative_path);
    ASSERT_TRUE(resolved.ok()) << cluster.home_path(h);
    EXPECT_EQ(*resolved, home.file);
    EXPECT_TRUE(
        served_by.insert({home.server.value(), home.file.value()}).second)
        << cluster.home_path(h) << " served twice";
  }
  EXPECT_EQ(served_by.size(),
            size_t{options.num_servers} * options.files_per_server);
}

TEST(MountRouterTest, UncachedMountFailsGracefully) {
  TwoServerWorld world;
  bool failed = false;
  world.router.Open("/usr/missing",
                    [&](Result<std::pair<MountFile, OpenResult>> r) {
                      EXPECT_FALSE(r.ok());
                      EXPECT_EQ(r.code(), ErrorCode::kNotFound);
                      failed = true;
                    });
  world.sim.RunFor(Duration::Seconds(1));
  EXPECT_TRUE(failed);
}

}  // namespace
}  // namespace leases
