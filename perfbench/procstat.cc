#include "procstat.h"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>

namespace perfbench {

namespace {

// Value of a "Key:   123 ..." line in a /proc status file, or 0.
uint64_t status_field(const char* path, const char* key) {
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) return 0;
  char line[256];
  const size_t klen = std::strlen(key);
  uint64_t value = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, klen) == 0 && line[klen] == ':') {
      value = std::strtoull(line + klen + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

}  // namespace

pid_t current_tid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

std::vector<pid_t> list_tids() {
  std::vector<pid_t> tids;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    tids.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
  }
  ::closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::vector<pid_t> new_tids(const std::vector<pid_t>& before,
                            const std::vector<pid_t>& after) {
  std::vector<pid_t> out;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(out));
  return out;
}

ThreadSample sample_thread(pid_t tid) {
  ThreadSample s;
  const std::string base = "/proc/self/task/" + std::to_string(tid);
  FILE* f = std::fopen((base + "/schedstat").c_str(), "r");
  if (f == nullptr) return s;
  unsigned long long cpu = 0, wait = 0;
  const int n = std::fscanf(f, "%llu %llu", &cpu, &wait);
  std::fclose(f);
  if (n != 2) return s;
  s.cpu_ns = cpu;
  s.runq_wait_ns = wait;
  s.vcsw = status_field((base + "/status").c_str(), "voluntary_ctxt_switches");
  s.ok = true;
  return s;
}

uint64_t process_cpu_ns() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ULL +
           static_cast<uint64_t>(tv.tv_usec) * 1'000ULL;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

HostCpu host_cpu() {
  HostCpu h;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return h;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return h;
  for (unsigned long long x : v) h.total += x;
  h.steal = v[7];
  return h;
}

uint64_t peak_rss_bytes() {
  return status_field("/proc/self/status", "VmHWM") * 1024;
}

}  // namespace perfbench
