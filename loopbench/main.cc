// loopbench: loopback end-to-end benchmark of the lease runtime.
//
//   loopbench --workload <read-hit|grant-miss|write-share> --seed <n>
//             --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--trace-out <file>]
//
// With --trace 0 it sets the workload up repeatedly (setup_s is the median),
// measures the last set-up for --seconds and prints the end-to-end metrics
// over the whole window (see EndToEnd), with every time scaled to a nominal
// host by a reference round trip timed beside it (reference.h); the report
// prints the unscaled figures next to them.
// With --trace 1 it runs the workload once untraced and once on the traced
// hosts, and prints the per-layer ledger and the tracing overhead. The last
// line of standard output is one JSON object: correct, attempted, failed and
// the metrics with their units. Run it through loopbench/run.py, which builds
// it first.
//
// The process pins itself to one CPU before it starts any host. The shared
// hosts this runs on give about one core of real parallelism, and letting
// the scheduler spread the hosts' threads over the vCPUs made whole runs
// land in different placements (throughput swinging by 2x between runs);
// on one CPU the numbers are single-core per-operation costs. The reference
// round trip runs on that CPU too, in pauses of the load.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "probe.h"
#include "trace.h"

namespace loopbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: loopbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] "
               "[--trace-out <file>]\nworkloads:");
  for (const WorkloadSpec& spec : AllWorkloads()) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool Parse(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      o->trace = value == "1";
    } else if (flag == "--work-dir") {
      o->work_dir = value;
    } else if (flag == "--trace-out") {
      o->trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0;
}

double Us(const std::vector<uint32_t>& ns, double q) {
  return Quantile(ns, q) / 1e3;
}

// Every figure covers every load segment of the window in full, so slow
// periods and stalls count: the rate is operations completed over the
// segments' length, the latencies are quantiles of every operation completed
// in them, and the per-operation costs are totals over the operations
// completed. Times are scaled to the nominal host (reference.h); `raw` gives
// them as measured (report text).
std::vector<LayerMetric> EndToEnd(const Measurement& m, bool raw = false) {
  const double ops = static_cast<double>(m.completed());
  return {
      {"setup_s", Median(raw ? m.setup_s : m.setup_scaled_s), "s"},
      {"ops_per_s", ops / (raw ? m.seconds : m.scaled_seconds), "1/s"},
      {"read_p50_us", Us(raw ? m.read_ns : m.read_scaled_ns, 0.50), "us"},
      {"read_p99_us", Us(raw ? m.read_ns : m.read_scaled_ns, 0.99), "us"},
      {"write_p50_us", Us(raw ? m.write_ns : m.write_scaled_ns, 0.50), "us"},
      {"write_p99_us", Us(raw ? m.write_ns : m.write_scaled_ns, 0.99), "us"},
      {"msgs_per_op", static_cast<double>(m.messages) / ops, "msgs"},
      {"cpu_us_per_op", (raw ? m.cpu_s : m.scaled_cpu_s) * 1e6 / ops, "us"},
      {"peak_rss_mb", m.peak_rss_mb, "MB"},
  };
}

// Every latency metric needs samples: a window that completed no read or no
// write fails the run rather than report a latency of 0.
bool HasLatencies(const char* label, const Measurement& m) {
  if (!m.read_ns.empty() && !m.write_ns.empty()) {
    return true;
  }
  std::fprintf(stderr,
               "loopbench: the %s window completed %zu reads and %zu writes; "
               "the latency metrics need both\n",
               label, m.read_ns.size(), m.write_ns.size());
  return false;
}

void PrintRun(const char* label, const Measurement& m) {
  std::printf("%s: setups=%zu setup_s min=%.4f median=%.4f max=%.4f\n", label,
              m.setup_s.size(),
              *std::min_element(m.setup_s.begin(), m.setup_s.end()),
              Median(m.setup_s),
              *std::max_element(m.setup_s.begin(), m.setup_s.end()));
  std::printf(
      "%s: window=%.3f s completed=%llu (reads=%zu writes=%zu latency "
      "samples)\n",
      label, m.seconds, static_cast<unsigned long long>(m.completed()),
      m.read_ns.size(), m.write_ns.size());
  std::printf(
      "%s: error_rate=%.6f (%llu failed of %llu attempted) stale_reads=%llu "
      "(checked %llu reads, %llu unverified) ring_drops=%llu "
      "retransmits=%llu\n",
      label,
      m.attempted > 0 ? static_cast<double>(m.failed) /
                            static_cast<double>(m.attempted)
                      : 0.0,
      static_cast<unsigned long long>(m.failed),
      static_cast<unsigned long long>(m.attempted),
      static_cast<unsigned long long>(m.stale_reads),
      static_cast<unsigned long long>(m.checked_reads),
      static_cast<unsigned long long>(m.unverified_reads),
      static_cast<unsigned long long>(m.ring_drops),
      static_cast<unsigned long long>(m.client.retransmits));
  std::vector<double> rates;
  std::vector<double> refs;
  for (const Segment& s : m.segments) {
    rates.push_back(static_cast<double>(s.completed) / s.seconds);
    refs.push_back(s.ref_ns);
  }
  std::sort(rates.begin(), rates.end());
  std::sort(refs.begin(), refs.end());
  std::printf(
      "%s: %zu segments, raw ops_per_s min=%.0f median=%.0f max=%.0f, "
      "reference round trip min=%.0f median=%.0f max=%.0f ns (nominal %.0f)\n",
      label, rates.size(), rates.front(), Median(rates), rates.back(),
      refs.front(), Median(refs), refs.back(), kNominalRoundTripNs);
  const std::vector<LayerMetric> raw = EndToEnd(m, /*raw=*/true);
  const std::vector<LayerMetric> scaled = EndToEnd(m);
  std::printf("%s: %-14s %14s %14s\n", label, "metric", "raw", "scaled");
  for (size_t i = 0; i < scaled.size(); ++i) {
    std::printf("%s: %-14s %14.4f %14.4f %s\n", label, scaled[i].name.c_str(),
                raw[i].value, scaled[i].value, scaled[i].unit.c_str());
  }
}

// Restricts the process (every thread created from here on) to the last CPU
// it may run on; returns that CPU, or -1 when affinity is unavailable.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return -1;
  }
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      cpu = c;
    }
  }
  if (cpu < 0) {
    return -1;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<LayerMetric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace loopbench

int main(int argc, char** argv) {
  using namespace loopbench;  // NOLINT
  Options options;
  if (!Parse(argc, argv, &options)) {
    return Usage();
  }
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) {
    return Usage();
  }
  std::printf("loopbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              spec->name, static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  std::printf("workload: %s\n", spec->why);
  ParallelismProbe probe = ProbeParallelism();
  int cpu = PinToOneCpu();
  std::printf(
      "host: hardware_concurrency=%u effective_parallelism=%.2f pinned_cpu=%d\n",
      probe.hardware_threads, probe.effective, cpu);
  std::fflush(stdout);

  trace::Reset(false);
  Measurement untraced =
      RunWorkload(*spec, options, PublicHosts(), /*measure_setup=*/!options.trace);
  PrintRun("untraced", untraced);
  if (!HasLatencies("untraced", untraced)) {
    return 1;
  }
  bool correct = untraced.stale_reads == 0 && untraced.checked_reads > 0;
  uint64_t attempted = untraced.attempted;
  uint64_t failed = untraced.failed;
  std::vector<LayerMetric> metrics;
  if (!options.trace) {
    metrics = EndToEnd(untraced);
  } else {
    trace::Reset(true);
    Measurement traced =
        RunWorkload(*spec, options, TracedHosts(), /*measure_setup=*/false);
    trace::g_on.store(false);
    PrintRun("traced", traced);
    if (!HasLatencies("traced", traced)) {
      return 1;
    }
    metrics = ReportTrace(*spec, options, traced, untraced, probe);
    trace::Reset(false);
    correct = correct && traced.stale_reads == 0 && traced.checked_reads > 0;
    attempted += traced.attempted;
    failed += traced.failed;
  }
  std::printf("check: %s\n", correct ? "passed (no stale reads)"
                                     : "FAILED (stale reads or none checked)");
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
