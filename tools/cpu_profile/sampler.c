// CPU sampler, loaded into a program with LD_PRELOAD (see profile.py).
//
// At load it arms ITIMER_PROF, which raises SIGPROF after every
// kIntervalUs of CPU time the process consumes. The handler records the
// interrupted call stack with backtrace() into a static buffer: no
// allocation and no lock, so it is safe whichever thread the signal lands
// on. At exit the samples and a copy of /proc/self/maps are written to
// cpu_profile.<pid> in the working directory, one sample per line: the
// sampled thread's id, then its frames in hex, innermost first.
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdio.h>
#include <string.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <unistd.h>

enum {
  kIntervalUs = 1000,
  kMaxSamples = 1 << 16,
  kMaxFrames = 32,
  // backtrace() from the handler starts with the handler itself and the
  // kernel's signal trampoline; the interrupted code follows.
  kSkipFrames = 2,
};

typedef struct {
  int tid;
  int depth;
  void* frames[kMaxFrames];
} Sample;

static Sample samples[kMaxSamples];
static atomic_int next_sample;
static atomic_int dropped;

static void OnProf(int sig) {
  (void)sig;
  int saved_errno = errno;
  int slot = atomic_fetch_add(&next_sample, 1);
  if (slot >= kMaxSamples) {
    atomic_fetch_add(&dropped, 1);
  } else {
    void* frames[kMaxFrames + kSkipFrames];
    int n = backtrace(frames, kMaxFrames + kSkipFrames);
    Sample* s = &samples[slot];
    s->tid = (int)syscall(SYS_gettid);
    s->depth = n > kSkipFrames ? n - kSkipFrames : 0;
    memcpy(s->frames, frames + kSkipFrames, sizeof(void*) * (size_t)s->depth);
  }
  errno = saved_errno;
}

__attribute__((constructor)) static void Start(void) {
  // The first backtrace() loads the unwinder, which allocates; do it here,
  // not in the handler.
  void* warm[4];
  backtrace(warm, 4);
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnProf;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval timer = {{0, kIntervalUs}, {0, kIntervalUs}};
  setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((destructor)) static void Dump(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  char path[64];
  snprintf(path, sizeof(path), "cpu_profile.%d", (int)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) {
    perror("cpu_profile: open dump");
    return;
  }
  int n = atomic_load(&next_sample);
  if (n > kMaxSamples) {
    n = kMaxSamples;
  }
  fprintf(out, "interval_us %d samples %d dropped %d\n", kIntervalUs, n,
          atomic_load(&dropped));
  for (int i = 0; i < n; ++i) {
    fprintf(out, "%d", samples[i].tid);
    for (int f = 0; f < samples[i].depth; ++f) {
      fprintf(out, " %p", samples[i].frames[f]);
    }
    fputc('\n', out);
  }
  fputs("maps\n", out);
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof(line), maps) != NULL) {
      fputs(line, out);
    }
    fclose(maps);
  }
  fclose(out);
}
