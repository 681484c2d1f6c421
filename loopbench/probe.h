// Effective-parallelism probe.
//
// std::thread::hardware_concurrency reports the CPUs the kernel exposes,
// not how many of them a process actually gets: a container can report 4
// while four spinning threads take four times as long as one. The probe
// times a calibrated spin on 1..N threads and reports the best speedup seen,
// i.e. how many cores' worth of work this run could really do at once.
#ifndef LOOPBENCH_PROBE_H_
#define LOOPBENCH_PROBE_H_

namespace loopbench {

struct ParallelismProbe {
  unsigned hardware_threads = 0;
  double effective = 0;  // best of k * t(1) / t(k) over k = 1..N
};

ParallelismProbe ProbeParallelism();

}  // namespace loopbench

#endif  // LOOPBENCH_PROBE_H_
