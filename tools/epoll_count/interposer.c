// epoll_wait counter, loaded into a program with LD_PRELOAD (see
// tools/ctx_switches.py --epoll).
//
// Every epoll_wait call is counted under a key of four parts: the epoll fd,
// whether the timeout was zero, whether any event came back, and the call
// site (the return address into the caller). The table is fixed and
// lock-free: a slot is claimed once with a compare-and-swap, then counted
// with an atomic add, so the counter adds no lock to the loops it watches.
// An fd closed and reused by a later epoll instance shares its keys. At exit
// the counts and a copy of /proc/self/maps are written to
// epoll_count.<pid> in the working directory, one key per line: fd, zero
// timeout (0/1), non-empty result (0/1), call site in hex, count.
#define _GNU_SOURCE
#include <dlfcn.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <sys/epoll.h>
#include <unistd.h>

enum { kSlots = 1024 };

typedef struct {
  atomic_int state;  // 0 free, 1 being keyed, 2 keyed
  int fd;
  int zero_timeout;
  int non_empty;
  uintptr_t site;
  atomic_ulong count;
} Slot;

typedef int (*EpollWaitFn)(int, struct epoll_event*, int, int);

static Slot slots[kSlots];
static atomic_ulong overflow;
static EpollWaitFn real_epoll_wait;

static int SameKey(const Slot* s, int fd, int zero, int non_empty,
                   uintptr_t site) {
  return s->fd == fd && s->zero_timeout == zero &&
         s->non_empty == non_empty && s->site == site;
}

static void Count(int fd, int zero, int non_empty, uintptr_t site) {
  uint64_t hash = ((uint64_t)site * 0x9e3779b97f4a7c15ULL) ^
                  (uint64_t)(fd * 4 + zero * 2 + non_empty);
  for (int probe = 0; probe < kSlots; ++probe) {
    Slot* s = &slots[(hash + (uint64_t)probe) % kSlots];
    int state = atomic_load_explicit(&s->state, memory_order_acquire);
    if (state == 0) {
      int expected = 0;
      if (atomic_compare_exchange_strong(&s->state, &expected, 1)) {
        s->fd = fd;
        s->zero_timeout = zero;
        s->non_empty = non_empty;
        s->site = site;
        atomic_store_explicit(&s->state, 2, memory_order_release);
        atomic_fetch_add_explicit(&s->count, 1, memory_order_relaxed);
        return;
      }
      state = expected;
    }
    while (state == 1) {  // another thread is writing this slot's key
      state = atomic_load_explicit(&s->state, memory_order_acquire);
    }
    if (SameKey(s, fd, zero, non_empty, site)) {
      atomic_fetch_add_explicit(&s->count, 1, memory_order_relaxed);
      return;
    }
  }
  atomic_fetch_add_explicit(&overflow, 1, memory_order_relaxed);
}

int epoll_wait(int epfd, struct epoll_event* events, int maxevents,
               int timeout) {
  uintptr_t site = (uintptr_t)__builtin_return_address(0);
  if (real_epoll_wait == NULL) {
    real_epoll_wait = (EpollWaitFn)dlsym(RTLD_NEXT, "epoll_wait");
  }
  int n = real_epoll_wait(epfd, events, maxevents, timeout);
  Count(epfd, timeout == 0, n > 0, site);
  return n;
}

__attribute__((destructor)) static void Dump(void) {
  char path[64];
  snprintf(path, sizeof(path), "epoll_count.%d", (int)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) {
    perror("epoll_count: open dump");
    return;
  }
  fprintf(out, "epoll_count overflow %lu\n",
          atomic_load_explicit(&overflow, memory_order_relaxed));
  for (int i = 0; i < kSlots; ++i) {
    if (atomic_load_explicit(&slots[i].state, memory_order_acquire) == 2) {
      fprintf(out, "%d %d %d %p %lu\n", slots[i].fd, slots[i].zero_timeout,
              slots[i].non_empty, (void*)slots[i].site,
              atomic_load_explicit(&slots[i].count, memory_order_relaxed));
    }
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
