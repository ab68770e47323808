// Per-process and per-thread statistics read from outside the program:
// getrusage, /proc/self/task/<tid>/{schedstat,status} and /proc/self/status.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <vector>

namespace perfbench {

pid_t current_tid();

// Thread ids of this process, ascending.
std::vector<pid_t> list_tids();
// Elements of `after` that are not in `before` (both ascending).
std::vector<pid_t> new_tids(const std::vector<pid_t>& before,
                            const std::vector<pid_t>& after);

struct ThreadSample {
  uint64_t cpu_ns = 0;        // schedstat field 1: time on CPU
  uint64_t runq_wait_ns = 0;  // schedstat field 2: runnable, not running
  uint64_t vcsw = 0;          // voluntary context switches
  bool ok = false;
};
ThreadSample sample_thread(pid_t tid);

// User + system CPU of the whole process (all threads, live and exited).
uint64_t process_cpu_ns();
// Host-wide CPU time from the first line of /proc/stat, in clock ticks:
// all states, and time stolen by the hypervisor for other guests.
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostCpu host_cpu();

// Peak resident set size (VmHWM) in bytes; 0 when unreadable.
uint64_t peak_rss_bytes();

}  // namespace perfbench
