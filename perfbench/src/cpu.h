#ifndef PERFBENCH_CPU_H_
#define PERFBENCH_CPU_H_

#include <pthread.h>
#include <sched.h>

#include <cstddef>
#include <vector>

namespace perfbench {

/// The CPUs this process may run on: its affinity mask at first call,
/// which main() makes before any thread is pinned.
inline const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
      }
    }
    if (out.empty()) out.push_back(0);
    return out;
  }();
  return cpus;
}

/// Pins the calling thread, and the threads it creates afterwards (they
/// inherit the mask), to allowed CPU number `slot` (modulo their count).
/// Virtual CPUs of one machine can differ in speed for as long as a
/// process lives; placing work by slot instead of leaving it where the
/// scheduler first put it makes runs comparable.
inline void PinToCpu(size_t slot) {
  const std::vector<int>& cpus = AllowedCpus();
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot % cpus.size()], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Lets the calling thread run on every allowed CPU again.
inline void UnpinThread() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : AllowedCpus()) CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace perfbench

#endif  // PERFBENCH_CPU_H_
