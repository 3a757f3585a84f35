#ifndef SQM_OBS_OBS_H_
#define SQM_OBS_OBS_H_

#include <atomic>
#include <cstdint>

/// Observability kill switch. Two layers:
///
///   * Compile time: configuring with -DSQM_OBS=OFF defines
///     SQM_OBS_DISABLED, which pins Enabled() to a constant false so every
///     instrumentation site (spans, instants, ledger forwarding) folds
///     away to nothing — the zero-instrumentation build.
///   * Run time: obs::SetEnabled(false) turns collection off in an
///     instrumented build; the residual cost at each site is one relaxed
///     atomic load and a predictable branch.
///
/// Everything in src/obs/ funnels through Enabled(), so call sites never
/// need their own #ifdefs.
namespace sqm::obs {

#ifdef SQM_OBS_DISABLED

inline constexpr bool kCompiledIn = false;
inline constexpr bool Enabled() { return false; }
inline void SetEnabled(bool) {}

#else

inline constexpr bool kCompiledIn = true;

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
inline void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

#endif  // SQM_OBS_DISABLED

/// Microseconds on the steady clock (CLOCK_MONOTONIC on Linux), with no
/// per-process epoch. Every process on a host reads the same clock, so the
/// spans, trace events and ledger timestamps of all local processes lie on
/// one timeline and a merge of their traces needs no offset.
uint64_t NowMicros();

}  // namespace sqm::obs

#endif  // SQM_OBS_OBS_H_
