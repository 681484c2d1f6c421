// Real sockets: the identical protocol objects running over UDP on
// localhost with real timers and a real (steady) clock. Three clients share
// a file under 2-second leases; one write triggers real callback traffic.
//
// Build & run:  ./build/examples/udp_demo    (takes ~4 wall-clock seconds)
#include <chrono>
#include <span>
#include <cstdio>
#include <thread>

#include "src/runtime/node.h"

using namespace leases;

namespace {

std::vector<uint8_t> B(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string T(std::span<const uint8_t> b) {
  return std::string(b.begin(), b.end());
}

}  // namespace

int main() {
  EngineConfig config;
  config.term = Duration::Seconds(2);
  RuntimeServer server(NodeId(1), config);
  FileId file = *server.store().CreatePath("/config/flags",
                                           FileClass::kNormal,
                                           B("verbose=false"));
  if (!server.Start().ok()) {
    std::fprintf(stderr, "could not bind a UDP socket\n");
    return 1;
  }
  std::printf("server on 127.0.0.1:%u, lease term 2 s\n", server.port());

  ClientParams params;
  params.transit_allowance = Duration::Millis(50);
  params.epsilon = Duration::Millis(50);
  std::vector<std::unique_ptr<RuntimeClient>> clients;
  for (uint32_t i = 0; i < 3; ++i) {
    auto client = std::make_unique<RuntimeClient>(
        NodeId(2 + i), NodeId(1), server.store().root(), params);
    if (!client->Start(server.port()).ok()) {
      std::fprintf(stderr, "client %u failed to start\n", 2 + i);
      return 1;
    }
    server.AddPeer(NodeId(2 + i), client->port());
    clients.push_back(std::move(client));
  }

  // Everyone opens and reads; repeat reads hit the cache.
  for (size_t i = 0; i < clients.size(); ++i) {
    Result<OpenResult> open = clients[i]->Open("/config/flags");
    Result<ReadResult> read = clients[i]->Read(open->file);
    std::printf("client %zu read \"%s\" (from_cache=%d)\n", i,
                T(read->data).c_str(), read->from_cache);
  }
  for (auto& client : clients) {
    Result<ReadResult> read = client->Read(file);
    std::printf("repeat read from_cache=%d\n", read->from_cache);
  }

  // A write: the server multicasts real approval requests to the other two
  // leaseholders over UDP before committing.
  auto start = std::chrono::steady_clock::now();
  Result<WriteResult> write = clients[0]->Write(file, B("verbose=true"));
  auto took = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  std::printf("write committed v%llu in %lld us (real callback round)\n",
              static_cast<unsigned long long>(write->version),
              static_cast<long long>(took.count()));

  for (auto& client : clients) {
    Result<ReadResult> read = client->Read(file);
    std::printf("post-write read: \"%s\"\n", T(read->data).c_str());
  }

  // Let the leases lapse on the real clock; the next read re-extends.
  std::printf("sleeping 2.3 s for lease expiry...\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(2300));
  Result<ReadResult> renewed = clients[1]->Read(file);
  std::printf("after expiry: from_cache=%d, extensions so far=%llu\n",
              renewed->from_cache,
              static_cast<unsigned long long>(
                  clients[1]->stats().extend_requests));

  ServerStats stats = server.stats();
  std::printf("\nserver stats: %llu reads, %llu leases, %llu extensions, "
              "%llu approvals received\n",
              static_cast<unsigned long long>(stats.reads_served),
              static_cast<unsigned long long>(stats.leases_granted),
              static_cast<unsigned long long>(stats.extension_requests),
              static_cast<unsigned long long>(stats.approvals_received));

  for (auto& client : clients) {
    client->Stop();
  }
  server.Stop();
  return 0;
}
