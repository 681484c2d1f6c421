#include "src/workload/chaos_harness.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "src/common/check.h"

namespace leases {
namespace {

// Named substreams of the chaos seed (see Rng::ForStream): the workload and
// the plan draw from independent streams, and the network's fault stream is
// derived inside SimNetwork -- so changing one knob never perturbs the
// others' draws.
constexpr uint64_t kWorkloadStream = 0x6368616f73ULL;  // "chaos"
constexpr uint64_t kPlanStream = 0x706c616eULL;        // "plan"

FaultParams BaselineFaults(const ChaosOptions& options) {
  FaultParams f;
  f.dup_prob = options.dup;
  f.reorder_prob = options.reorder;
  f.burst_enter_prob = options.burst;
  return f;
}

// One chaos soak: builds the cluster, schedules the fault plan and the
// per-client Poisson op drivers on the simulator, runs to completion and
// folds every deterministic event into an FNV-1a trace digest.
class ChaosRun {
 public:
  explicit ChaosRun(const ChaosOptions& options)
      : options_(options), rng_(Rng::ForStream(options.seed, kWorkloadStream)) {
    plan_ = options_.plan;
    if (plan_.empty() && options_.random_plan) {
      Rng plan_rng = Rng::ForStream(options_.seed, kPlanStream);
      RandomPlanOptions plan_options = options_.plan_options;
      plan_options.num_clients = options_.num_clients;
      plan_options.num_replicas = options_.num_replicas;
      plan_ = RandomFaultPlan(plan_rng, plan_options);
    }

    ClusterOptions cluster_options;
    cluster_options.num_clients = options_.num_clients;
    cluster_options.term = options_.term;
    cluster_options.client = options_.client;
    cluster_options.num_shards = std::max<size_t>(options_.num_shards, 1);
    cluster_options.replica.num_replicas = options_.num_replicas;
    cluster_options.replica.durable_acceptors = options_.durable_acceptors;
    cluster_options.replica.standby_reads = options_.standby_reads;
    cluster_options.replica_clocks = options_.replica_clocks;
    cluster_options.uncertainty_terms = options_.uncertainty_terms;
    cluster_options.uncertainty = options_.uncertainty;
    cluster_options.net.seed = options_.seed;
    cluster_options.net.loss_prob = options_.loss;
    cluster_options.net.faults = BaselineFaults(options_);
    cluster_ = std::make_unique<SimCluster>(cluster_options);

    files_.reserve(options_.num_files);
    for (size_t i = 0; i < options_.num_files; ++i) {
      Result<FileId> file = cluster_->store().CreatePath(
          "/chaos/f" + std::to_string(i), FileClass::kNormal,
          Bytes("v0-" + std::to_string(i)));
      LEASES_CHECK(file.ok());
      files_.push_back(*file);
    }
    busy_.assign(options_.num_clients, false);
    gen_.assign(options_.num_clients, 0);
    client_drift_gen_.assign(options_.num_clients, 0);
    server_drift_gen_.assign(std::max<size_t>(options_.num_replicas, 1), 0);
  }

  ChaosReport Run() {
    Simulator& sim = cluster_->sim();
    for (const FaultEvent& ev : plan_.events) {
      sim.ScheduleAfter(ev.at, [this, ev]() { Apply(ev); });
    }
    if (cluster_->num_replicas() > 1 &&
        options_.partition_holder_at > Duration::Zero()) {
      sim.ScheduleAfter(options_.partition_holder_at,
                        [this]() { IsolateHolder(); });
    }
    // Quiesce: once the plan has played out, heal everything and restore the
    // baseline so the remaining ops can drain and complete.
    Duration quiesce_at = plan_.End() + Duration::Seconds(1);
    sim.ScheduleAfter(quiesce_at, [this]() { Quiesce(); });

    for (size_t i = 0; i < options_.num_clients; ++i) {
      ScheduleNext(i);
    }

    TimePoint start = sim.Now();
    TimePoint cap = start + options_.max_sim_time;
    while (!Finished() && sim.Now() < cap) {
      if (!sim.Step()) {
        break;  // queue drained: nothing left that could complete
      }
    }

    ChaosReport report;
    report.reads = reads_;
    report.writes = writes_;
    report.ops_failed = ops_failed_;
    report.violations = cluster_->oracle().violations();
    report.violation_log = cluster_->oracle().violation_log();
    report.digest = digest_;
    report.plan_line = plan_.ToLine();
    report.trace = std::move(trace_);
    report.sim_time = sim.Now() - start;
    report.hit_time_cap = !Finished() && sim.Now() >= cap;
    if (cluster_->ServerUp()) {  // quiesce restarts it; belt and braces
      report.server = cluster_->server_stats();
    }
    for (size_t r = 0; r < cluster_->num_replicas(); ++r) {
      if (cluster_->num_replicas() > 1) {
        report.membership_epoch = std::max(
            report.membership_epoch, cluster_->replica(r).member_epoch());
      }
    }
    if (cluster_->clock_health() != nullptr) {
      report.uncertainty_capped_grants =
          cluster_->clock_health()->capped_grants();
      report.uncertainty_zero_grants =
          cluster_->clock_health()->degraded_zero_grants();
    }
    for (size_t i = 0; i < options_.num_clients; ++i) {
      if (cluster_->ClientUp(i)) {
        const ClientStats& cs = cluster_->client(i).stats();
        report.unavailable_retries += cs.unavailable_retries;
        report.extend_requests += cs.extend_requests;
      }
    }
    return report;
  }

 private:
  // --- Fault plan application (guarded: plans may be arbitrary text) ---

  void Apply(const FaultEvent& ev) {
    switch (ev.op) {
      case FaultOp::kCrashServer:
        if (cluster_->ServerUp()) {
          cluster_->CrashServer();
        }
        break;
      case FaultOp::kRestartServer:
        // Replicated: ServerUp() is "any replica running", so gate on a
        // downed replica instead; RestartServer revives every one of them.
        if (cluster_->num_replicas() > 1 ? cluster_->AnyReplicaDown()
                                         : !cluster_->ServerUp()) {
          cluster_->RestartServer();
        }
        break;
      case FaultOp::kCrashClient:
        if (ev.target < options_.num_clients &&
            cluster_->ClientUp(ev.target)) {
          cluster_->CrashClient(ev.target);
          // Outstanding-op callbacks died with the client.
          busy_[ev.target] = false;
          ++gen_[ev.target];
        }
        break;
      case FaultOp::kRestartClient:
        if (ev.target < options_.num_clients &&
            !cluster_->ClientUp(ev.target)) {
          cluster_->RestartClient(ev.target);
        }
        break;
      case FaultOp::kPartition:
        if (ev.target < options_.num_clients) {
          cluster_->PartitionClient(ev.target, ev.on);
        }
        break;
      case FaultOp::kHeal:
        for (size_t i = 0; i < options_.num_clients; ++i) {
          cluster_->PartitionClient(i, false);
        }
        break;
      case FaultOp::kRates: {
        cluster_->network().set_loss_prob(ev.loss);
        FaultParams f;
        f.dup_prob = ev.dup;
        f.reorder_prob = ev.reorder;
        f.burst_enter_prob = ev.burst;
        cluster_->network().set_faults(f);
        break;
      }
      case FaultOp::kDrift:
        if (ev.target < options_.num_clients) {
          cluster_->client_clock(ev.target)
              .SetModel(ClockModel::Drifting(ev.rate));
          uint32_t target = ev.target;
          // The generation guard keeps this restore from clobbering a drift
          // that started after us (ramp plans overlap excursions on one
          // target by design; only the newest owns the restore).
          uint64_t gen = ++client_drift_gen_[target];
          cluster_->sim().ScheduleAfter(ev.span, [this, target, gen]() {
            if (client_drift_gen_[target] != gen) {
              return;
            }
            cluster_->client_clock(target).SetModel(ClockModel::Perfect());
            Note("drift-end", target, 0, 0);
          });
        }
        break;
      case FaultOp::kDriftServer: {
        bool replicated = cluster_->num_replicas() > 1;
        if (replicated && ev.target >= cluster_->num_replicas()) {
          break;
        }
        uint32_t target = replicated ? ev.target : 0;
        if (replicated) {
          cluster_->replica_clock(target).SetModel(
              ClockModel::Drifting(ev.rate));
        } else {
          cluster_->server_clock().SetModel(ClockModel::Drifting(ev.rate));
        }
        uint64_t gen = ++server_drift_gen_[target];
        cluster_->sim().ScheduleAfter(
            ev.span, [this, target, gen, replicated]() {
              if (server_drift_gen_[target] != gen) {
                return;
              }
              if (replicated) {
                cluster_->replica_clock(target).SetModel(
                    ClockModel::Perfect());
              } else {
                cluster_->server_clock().SetModel(ClockModel::Perfect());
              }
              Note("drift-server-end", target, 0, 0);
            });
        break;
      }
      case FaultOp::kStorage:
        // Power cut: the server process dies AND the storage plane takes
        // tail damage that the restart's replay must repair. Damage only
        // ever lands on the un-acknowledged tail, so the oracle still
        // demands zero violations through these.
        if (cluster_->ServerUp()) {
          cluster_->CrashServer(ev.mode == 1   ? TailDamage::kTorn
                                : ev.mode == 2 ? TailDamage::kCorrupt
                                               : TailDamage::kClean);
        }
        break;
      case FaultOp::kAddReplica:
        // Returns -1 with no confirmed holder or a reconfig already in
        // flight -- skipped the same way a double crash is.
        if (cluster_->num_replicas() > 1 && cluster_->AddReplica() >= 0) {
          server_drift_gen_.push_back(0);  // keep drift targets in range
        }
        break;
      case FaultOp::kRemoveReplica: {
        if (cluster_->num_replicas() <= 1 ||
            ev.target >= cluster_->num_replicas()) {
          break;
        }
        int holder = cluster_->holder_index();
        // Keep at least two committed members mid-soak so a single later
        // crash can never strand the run quorumless (shrink-to-one is
        // unit-tested, not soaked). Rejections from the holder -- target
        // already removed, reconfig in flight -- are expected and ignored.
        if (holder < 0 ||
            cluster_->replica(static_cast<size_t>(holder))
                    .member_addrs()
                    .size() <= 2) {
          break;
        }
        (void)cluster_->RemoveReplica(ev.target);
        break;
      }
    }
    Note("fault", static_cast<uint64_t>(ev.op), ev.target,
         static_cast<uint64_t>(ev.at.ToMicros()));
  }

  // Replicated runs only: partition whichever replica holds the authority
  // lease away from its peers. Its outstanding grants stay live at clients
  // until it steps down -- the window deferred inheritance must cover.
  void IsolateHolder() {
    int holder = cluster_->holder_index();
    if (holder < 0) {
      return;  // mid-election; the crash/partition already in flight wins
    }
    size_t target = static_cast<size_t>(holder);
    cluster_->PartitionReplica(target, true);
    Note("isolate-holder", target, 0, 0);
    cluster_->sim().ScheduleAfter(options_.partition_holder_span,
                                  [this, target]() {
                                    cluster_->PartitionReplica(target, false);
                                    Note("heal-holder", target, 0, 0);
                                  });
  }

  void Quiesce() {
    for (size_t i = 0; i < options_.num_clients; ++i) {
      cluster_->PartitionClient(i, false);
      cluster_->client_clock(i).SetModel(ClockModel::Perfect());
      ++client_drift_gen_[i];  // void pending restores; we just restored
      if (!cluster_->ClientUp(i)) {
        cluster_->RestartClient(i);
      }
    }
    for (uint64_t& gen : server_drift_gen_) {
      ++gen;
    }
    if (cluster_->num_replicas() > 1) {
      for (size_t r = 0; r < cluster_->num_replicas(); ++r) {
        cluster_->PartitionReplica(r, false);
        cluster_->replica_clock(r).SetModel(ClockModel::Perfect());
      }
      if (cluster_->AnyReplicaDown()) {
        cluster_->RestartServer();
      }
    } else {
      cluster_->server_clock().SetModel(ClockModel::Perfect());
      if (!cluster_->ServerUp()) {
        cluster_->RestartServer();
      }
    }
    cluster_->network().set_loss_prob(options_.loss);
    cluster_->network().set_faults(BaselineFaults(options_));
    Note("quiesce", 0, 0, 0);
  }

  // --- Workload driver ---

  void ScheduleNext(size_t i) {
    Duration gap = rng_.NextExponentialDuration(options_.ops_per_sec);
    cluster_->sim().ScheduleAfter(gap, [this, i]() { IssueOp(i); });
  }

  void IssueOp(size_t i) {
    if (issued_ >= options_.total_ops) {
      return;  // the driver chain for this client ends here
    }
    if (!cluster_->ClientUp(i) || busy_[i]) {
      ScheduleNext(i);  // crashed or still waiting: try again later
      return;
    }
    ++issued_;
    busy_[i] = true;
    uint64_t gen = gen_[i];
    FileId file = files_[rng_.NextBounded(files_.size())];
    if (rng_.NextDouble() < options_.write_fraction) {
      std::string payload =
          "w" + std::to_string(issued_) + "-c" + std::to_string(i);
      cluster_->client(i).Write(
          file, Bytes(payload), [this, i, gen, file](Result<WriteResult> r) {
            OnDone(i, gen, file, /*is_write=*/true,
                   r.ok() ? r->version : 0,
                   r.ok() ? 0 : static_cast<uint64_t>(r.error().code));
          });
    } else {
      cluster_->client(i).Read(
          file, [this, i, gen, file](Result<ReadResult> r) {
            OnDone(i, gen, file, /*is_write=*/false,
                   r.ok() ? r->version : 0,
                   r.ok() ? 0 : static_cast<uint64_t>(r.error().code));
          });
    }
    ScheduleNext(i);
  }

  void OnDone(size_t i, uint64_t gen, FileId file, bool is_write,
              uint64_t version, uint64_t error) {
    if (gen != gen_[i]) {
      return;  // a previous incarnation's op; its slot was already freed
    }
    busy_[i] = false;
    if (error != 0) {
      ++ops_failed_;
    } else if (is_write) {
      ++writes_;
    } else {
      ++reads_;
    }
    Mix(is_write ? 2 : 1);
    Mix(i);
    Mix(file.value());
    Mix(version);
    Mix(error);
    Mix(static_cast<uint64_t>(cluster_->sim().Now().ToMicros()));
    if (options_.collect_trace) {
      char line[160];
      std::snprintf(line, sizeof(line), "t=%.6f c%zu %s f=%llu v=%llu err=%llu",
                    cluster_->sim().Now().ToSeconds(), i,
                    is_write ? "write" : "read",
                    (unsigned long long)file.value(),
                    (unsigned long long)version, (unsigned long long)error);
      trace_.emplace_back(line);
    }
  }

  bool Finished() const {
    if (issued_ < options_.total_ops) {
      return false;
    }
    for (bool b : busy_) {
      if (b) {
        return false;
      }
    }
    return true;
  }

  // --- Trace digest ---

  void Mix(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      digest_ ^= (v >> (8 * b)) & 0xff;
      digest_ *= 1099511628211ULL;  // FNV-1a 64
    }
  }

  void Note(const char* what, uint64_t a, uint64_t b, uint64_t c) {
    Mix(0xf0);
    Mix(a);
    Mix(b);
    Mix(c);
    Mix(static_cast<uint64_t>(cluster_->sim().Now().ToMicros()));
    if (options_.collect_trace) {
      char line[160];
      std::snprintf(line, sizeof(line), "t=%.6f %s %llu %llu %llu",
                    cluster_->sim().Now().ToSeconds(), what,
                    (unsigned long long)a, (unsigned long long)b,
                    (unsigned long long)c);
      trace_.emplace_back(line);
    }
  }

  ChaosOptions options_;
  Rng rng_;
  FaultPlan plan_;
  std::unique_ptr<SimCluster> cluster_;
  std::vector<FileId> files_;

  std::vector<bool> busy_;
  std::vector<uint64_t> gen_;
  // Per-target drift generations: a scheduled restore only fires if no newer
  // excursion (or quiesce) superseded it.
  std::vector<uint64_t> client_drift_gen_;
  std::vector<uint64_t> server_drift_gen_;
  uint64_t issued_ = 0;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t ops_failed_ = 0;

  uint64_t digest_ = 1469598103934665603ULL;  // FNV-1a offset basis
  std::vector<std::string> trace_;
};

}  // namespace

ChaosReport RunChaos(const ChaosOptions& options) {
  ChaosRun run(options);
  return run.Run();
}

FaultPlan MinimizePlan(const ChaosOptions& options, const FaultPlan& failing,
                       int max_runs) {
  FaultPlan best = failing;
  int runs = 0;
  bool improved = true;
  while (improved && runs < max_runs) {
    improved = false;
    for (size_t i = 0; i < best.events.size() && runs < max_runs; ++i) {
      FaultPlan candidate = best;
      candidate.events.erase(candidate.events.begin() +
                             static_cast<ptrdiff_t>(i));
      ChaosOptions sub = options;
      sub.plan = candidate;
      sub.random_plan = false;
      sub.collect_trace = false;
      ++runs;
      if (RunChaos(sub).violations > 0) {
        best = candidate;  // still failing without this event: keep it out
        improved = true;
        break;
      }
    }
  }
  return best;
}

}  // namespace leases
