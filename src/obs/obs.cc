#include "obs/obs.h"

#include <chrono>

namespace sqm::obs {

#ifndef SQM_OBS_DISABLED
namespace internal {
std::atomic<bool> g_enabled{true};
}  // namespace internal
#endif

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace sqm::obs
