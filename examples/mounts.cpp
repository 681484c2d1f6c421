// Multi-server mounts: a workstation with /home on one lease server and
// /usr on another, routed by MountRouter -- the "larger numbers of hosts,
// both clients and servers" setting of Section 3.3. Each mount keeps its
// own leases with its own primary; consistency composes because every datum
// has exactly one primary site.
//
// Also shows wiring the library's building blocks by hand instead of using
// the SimCluster harness.
//
// Build & run:  ./build/examples/mounts
#include <cstdio>
#include <memory>

#include "src/clock/sim_clock.h"
#include "src/clock/sim_timer_host.h"
#include "src/core/lease_server.h"
#include "src/core/mount_router.h"
#include "src/core/term_policy.h"
#include "src/net/sim_network.h"

using namespace leases;

namespace {

std::vector<uint8_t> B(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

struct ServerRig {
  FileStore store;
  DurableMeta meta;
  std::unique_ptr<SimClock> clock;
  std::unique_ptr<SimTimerHost> timers;
  std::unique_ptr<LeaseServer> server;
};

void MakeServer(Simulator& sim, SimNetwork& net, TermPolicy& policy,
                ServerRig& rig, NodeId id) {
  rig.clock = std::make_unique<SimClock>(&sim, ClockModel::Perfect());
  rig.timers = std::make_unique<SimTimerHost>(&sim, rig.clock.get());
  SimTransport* transport = net.AttachNode(id, nullptr);
  rig.server = std::make_unique<LeaseServer>(
      id, &rig.store, &rig.meta, transport, rig.clock.get(),
      rig.timers.get(), &policy, ServerParams{}, nullptr);
  net.ReplaceHandler(id, rig.server.get());
}

// Routes replies from each server to the matching per-server cache.
struct Demux : PacketHandler {
  std::unordered_map<NodeId, CacheClient*> routes;
  void HandleTyped(NodeId from, MessageClass cls,
                   const Packet& packet) override {
    auto it = routes.find(from);
    if (it != routes.end()) {
      it->second->HandleTyped(from, cls, packet);
    }
  }
};

}  // namespace

int main() {
  Simulator sim;
  SimNetwork net(&sim, NetworkParams{});
  FixedTermPolicy policy(Duration::Seconds(10));

  ServerRig home_rig;
  ServerRig usr_rig;
  MakeServer(sim, net, policy, home_rig, NodeId(1));
  MakeServer(sim, net, policy, usr_rig, NodeId(2));
  home_rig.store.CreatePath("/home/alice/thesis.tex", FileClass::kNormal,
                            B("\\chapter{Leases}"));
  usr_rig.store.CreatePath("/bin/latex", FileClass::kInstalled, B("TeX"));

  // One workstation (NodeId 3): a cache per server, one router over both.
  SimClock clock(&sim, ClockModel::Perfect());
  SimTimerHost timers(&sim, &clock);
  Demux demux;
  SimTransport* transport = net.AttachNode(NodeId(3), &demux);
  ClientParams params;
  CacheClient home_cache(NodeId(3), NodeId(1), home_rig.store.root(),
                         transport, &clock, &timers, params, nullptr);
  CacheClient usr_cache(NodeId(3), NodeId(2), usr_rig.store.root(),
                        transport, &clock, &timers, params, nullptr);
  demux.routes[NodeId(1)] = &home_cache;
  demux.routes[NodeId(2)] = &usr_cache;

  MountRouter router;
  router.Mount("/", &home_cache);
  router.Mount("/usr", &usr_cache);

  auto read_and_print = [&](const std::string& path) {
    router.Open(path, [&, path](Result<std::pair<MountFile, OpenResult>> r) {
      if (!r.ok()) {
        std::printf("%-26s -> %s\n", path.c_str(),
                    r.error().ToString().c_str());
        return;
      }
      MountRouter::Read(r->first, [&, path](Result<ReadResult> rr) {
        std::printf("%-26s -> \"%s\" (server %s, from_cache=%d)\n",
                    path.c_str(),
                    std::string(rr->data.begin(), rr->data.end()).c_str(),
                    path.rfind("/usr", 0) == 0 ? "usr" : "home",
                    rr->from_cache);
      });
    });
  };

  std::printf("mounts: / -> home server (node 1), /usr -> usr server "
              "(node 2)\n\n");
  read_and_print("/home/alice/thesis.tex");
  read_and_print("/usr/bin/latex");
  sim.RunFor(Duration::Seconds(1));

  std::printf("\nsecond round (both leases valid, zero messages):\n");
  read_and_print("/home/alice/thesis.tex");
  read_and_print("/usr/bin/latex");
  sim.RunFor(Duration::Seconds(1));

  std::printf("\nper-server stats:\n");
  std::printf("  home: reads=%llu leases=%llu\n",
              static_cast<unsigned long long>(
                  home_rig.server->stats().reads_served),
              static_cast<unsigned long long>(
                  home_rig.server->stats().leases_granted));
  std::printf("  usr:  reads=%llu leases=%llu\n",
              static_cast<unsigned long long>(
                  usr_rig.server->stats().reads_served),
              static_cast<unsigned long long>(
                  usr_rig.server->stats().leases_granted));
  return 0;
}
