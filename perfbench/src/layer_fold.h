#ifndef PERFBENCH_LAYER_FOLD_H_
#define PERFBENCH_LAYER_FOLD_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Track of the benchmark's main thread. Below the TCP reader tracks (100+)
/// and the anonymous ones (1000+), so it groups with the party tracks.
inline constexpr int32_t kMainTrack = 90;

/// First event every thread that does release work emits after the tracer
/// is cleared. Tracer::Collect returns each thread's buffer contiguously,
/// so the marker opens that thread's run of events; the run ends at the
/// next marker or at the first event on a reader/anonymous track.
inline constexpr const char* kBeginMarker = "bench.begin";

/// SqmTiming values of one report, for the buckets defined by timing
/// rather than by spans (core.quantize_s, sampling.skellam_s,
/// core.noise_probe_s).
struct ReportTiming {
  double quantize_s = 0.0;
  double sampling_s = 0.0;
  double probe_s = 0.0;  ///< noise_injection_seconds - noise_sampling_seconds.
};

/// One release split into layers.
struct ReleaseLayers {
  /// Layer name -> seconds along the release's critical path: the thread
  /// whose return ended the release (the driver thread, or the party that
  /// returned last), plus the serial work of the main thread. Each second
  /// of that path counts once, so core.unattributed_s = wall - every other
  /// layer is what no span covers (barrier wake-up, benchmark overhead).
  std::map<std::string, double> seconds;
  /// (party, peer) -> seconds the party waited in Receive from the peer,
  /// for every party.
  std::map<std::pair<int32_t, int64_t>, double> recv_wait;
  /// Span time folded on the critical path over the release wall time.
  /// The spans lie inside the release, so this stays <= 1 up to the
  /// microsecond clock.
  double covered_frac = 0.0;
  /// Spans that overlapped another span of their thread without nesting
  /// (0 for a sane trace).
  size_t misnested = 0;
  std::set<std::string> unknown_spans;
};

/// Splits one traced release. `critical` is the track of the thread that
/// ended the release (a party id, or kMainTrack for the single-threaded
/// driver) and `timing` its report's timing; `wall_s` is the release time
/// as the benchmark measured it.
ReleaseLayers FoldRelease(const std::vector<sqm::obs::TraceEvent>& events,
                          int32_t critical, const ReportTiming& timing,
                          double wall_s);

/// Every layer FoldRelease can report, in output order.
const std::vector<std::string>& LayerNames();

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_FOLD_H_
