#!/usr/bin/env bash
# Builds one sanitizer preset (asan or tsan) and runs the scheduler,
# network and codec tests under it. Registered as the `sanitize` ctest
# configuration:
#
#   ctest --test-dir build -C sanitize --output-on-failure
#
# or invoked directly: tools/run_sanitizer_tier.sh asan
#
# Exits 77 (ctest SKIP_RETURN_CODE) when the toolchain cannot link the
# requested sanitizer runtime, so minimal containers skip instead of fail.
set -euo pipefail

preset="${1:?usage: run_sanitizer_tier.sh <asan|tsan>}"
case "$preset" in
  asan) probe_flag="-fsanitize=address" ;;
  tsan) probe_flag="-fsanitize=thread" ;;
  *) echo "unknown preset: $preset" >&2; exit 2 ;;
esac

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

cxx="${CXX:-c++}"
probe_dir="$(mktemp -d)"
trap 'rm -rf "$probe_dir"' EXIT
echo 'int main() { return 0; }' > "$probe_dir/probe.cc"
if ! "$cxx" "$probe_flag" -o "$probe_dir/probe" "$probe_dir/probe.cc" \
    > /dev/null 2>&1; then
  echo "toolchain lacks $probe_flag support; skipping $preset tier"
  exit 77
fi

# The sanitizer-relevant surface: the allocation-free scheduler, the
# pooled packet delivery path, the codec the conformance mode leans on,
# the durable storage plane (raw-fd journal I/O plus the crash-point
# matrix, which ASan checks for leaks/overflows across injected crashes),
# and the sharded grant plane -- shard_test covers the routing/split logic,
# shard_concurrency_test hammers a sharded RuntimeServer, whose shards all
# run as its one socket loop's work, from several client threads: under
# TSan it proves the client threads and the one server loop do not race;
# its batch-sender test still merges the lock-free per-sender send
# counters stats() reads mid-storm.
# swarm_test drives the million-client swarm plane's SoA clients, multicast
# renewal and admission control through ASan for lifetime/indexing bugs.
# The replica tier (engine_test, replica_test, runtime_replica_test) covers
# the factory lifecycle, the PaxosLease authority state machine across
# crash/partition/drift soaks, and the two-socket runtime failover rig --
# real threads under TSan, serving-engine churn under ASan.
# runtime_test's RuntimeShapes drives the one RuntimeServer through the
# plain, sharded, replica and sharded replica shapes and through refused
# Starts.
# clock_health_test exercises the clock-error estimator (internally locked,
# shared across shard threads) and the drift-ramp acceptance soaks.
# fs_test, cache_client_test and timer_queue_test cover the grant path's
# index and lifetime code: the file store's id table, the client cache's
# intrusive LRU list and the KeyState* every cache entry holds into the
# per-key table (KeyTableTest moves entries between keys and drops leases
# under them, so ASan sees a state freed while an entry still points at
# it), and the runtime timer queue's slot table and closure hand-off. fs_test and dir_codec_test also drive the
# directory walker's offset arithmetic and the store's in-place datum
# edits across every byte boundary of their sample datums.
# File data is one refcounted buffer shared across layers and threads
# (SharedBytes): runtime_test's HeldReadResultKeepsItsBytesAcrossAnOverwrite
# keeps a hit's bytes on the caller's thread while the loop thread drops
# the cache entry that shared them, so ASan would see an early free and
# TSan a racy count; fs_test's EditsCopyADirectoryDatumAReplyStillHolds
# covers the copy-on-write directory edits.
targets=(scheduler_test sim_test net_test proto_test fastpath_alloc_test
         runtime_test event_loop_test timer_queue_test storage_test
         journal_crash_test shard_test shard_concurrency_test swarm_test
         engine_test replica_test runtime_replica_test clock_health_test
         fs_test dir_codec_test cache_client_test)

cmake --preset "$preset"
cmake --build --preset "$preset" -j"${LEASES_SANITIZER_JOBS:-$(nproc)}" \
  --target "${targets[@]}" leases_chaos bench_swarm
# Run the binaries directly rather than through ctest: the tier builds only
# a subset of targets, and gtest discovery would flag the rest as NOT_BUILT.
for t in "${targets[@]}"; do
  echo "=== $preset: $t ==="
  "build-$preset/tests/$t"
done
# The chaos smoke drives full clusters through duplication/reorder/burst
# faults and random plans -- the best sanitizer bait in the tree. Its
# storage pass additionally power-cuts servers with journal tail damage.
echo "=== $preset: leases_chaos --smoke ==="
"build-$preset/tools/leases_chaos" --smoke
# Drift-ramp soak: every client clock ramps slow while the server ramps
# fast, terms sized from the measured drift bound all the way down to
# zero-term degraded mode. Exercises the estimator + uncertainty decorator
# under the sanitizer at a scale the smoke's bounded pass doesn't reach.
echo "=== $preset: leases_chaos --drift-ramp ==="
"build-$preset/tools/leases_chaos" --drift-ramp 6 --clients 6 --ops 4000 \
  --rate 5 --write_fraction 0.1
# Replica-hardening soak: three replicas with live membership changes
# drawn into the random plans, durable acceptors persisting promises
# across the plans' crash/restart cycles, and standby reads serving
# through holder outages. Exercises the joint-quorum reconfig path, the
# acceptor journal and the delegated-bound read path under the sanitizer.
echo "=== $preset: leases_chaos --membership ==="
"build-$preset/tools/leases_chaos" --replicas 3 --membership \
  --durable-acceptors --standby-reads --runs 3 --seed 41 --clients 6 \
  --ops 2000
# The swarm smoke sweeps 10k simulated clients through the installed-lease
# multicast plane plus the thundering-herd backpressure scenario -- bounded
# wall time, and its acceptance checks (flat load, zero violations) double
# as a sanitizer-clean pass over the whole swarm hot path.
echo "=== $preset: bench_swarm --smoke ==="
"build-$preset/bench/bench_swarm" --smoke --json "build-$preset/BENCH_SWARM.smoke.json"
echo "$preset tier: ${#targets[@]} test binaries + chaos and swarm smokes clean"
