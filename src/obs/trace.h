#ifndef SQM_OBS_TRACE_H_
#define SQM_OBS_TRACE_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/sync.h"
#include "obs/obs.h"

namespace sqm::obs {

/// One trace record. Name/category are `const char*` and must point at
/// string literals (or other process-lifetime storage): events are buffered
/// raw and only stringified at export time, keeping the hot path
/// allocation-free.
struct TraceEvent {
  enum class Type : uint8_t {
    kComplete,    ///< A span: [ts, ts+dur).
    kInstant,     ///< A point event (fault injected, checkpoint resume, ...).
    kFlowStart,   ///< Start of a cross-track/cross-process arrow (ph "s").
    kFlowFinish,  ///< End of the arrow with the same flow_id (ph "f").
  };

  struct Arg {
    const char* key = nullptr;
    int64_t value = 0;
  };
  static constexpr int kMaxArgs = 4;

  const char* name = "";
  const char* category = "sqm";
  uint64_t ts_micros = 0;
  uint64_t dur_micros = 0;
  /// Flow-binding id for kFlowStart/kFlowFinish pairs; Perfetto draws an
  /// arrow between the two events carrying the same id. TcpTransport uses
  /// the sender's net.send span id, propagated in the frame header, so the
  /// arrow crosses process boundaries.
  uint64_t flow_id = 0;
  int32_t track = 0;
  Type type = Type::kComplete;
  uint8_t num_args = 0;
  Arg args[kMaxArgs] = {};

  void AddArg(const char* key, int64_t value) {
    if (num_args < kMaxArgs) args[num_args++] = {key, value};
  }
};

/// Collects trace events into per-thread buffers and exports them as a
/// Chrome trace-event JSON document (loadable in Perfetto or
/// chrome://tracing — see docs/OBSERVABILITY.md).
///
/// Each thread appends to its own buffer under that buffer's mutex, so
/// concurrent parties never contend; Collect() walks all buffers. Tracks
/// map to Chrome thread ids: party threads call SetCurrentTrack(party) (or
/// use TrackScope) so each party renders as its own named row.
class Tracer {
 public:
  static Tracer& Global();

  /// Appends to the calling thread's buffer. No-op when the kill switch is
  /// off. Per-buffer capacity is bounded; overflow drops the event and
  /// counts it (see dropped_events).
  void Emit(const TraceEvent& event);

  /// Convenience: a point event on the current track, stamped now, with
  /// up to TraceEvent::kMaxArgs integer arguments.
  void Instant(const char* name, const char* category = "sqm",
               std::initializer_list<TraceEvent::Arg> args = {});

  /// Convenience: flow-arrow endpoints on the current track, stamped now.
  /// A kFlowStart and a kFlowFinish with the same `flow_id` render as one
  /// causal arrow, including across merged per-process documents.
  void FlowStart(const char* name, const char* category, uint64_t flow_id);
  void FlowFinish(const char* name, const char* category, uint64_t flow_id);

  /// Span-id allocation. Ids are drawn from a process-wide namespace that
  /// SetSpanIdNamespace rebases: sqm-party seeds it from
  /// (run_id, party, incarnation), so ids stay globally unique across the
  /// fleet AND across supervised restarts of the same party (a respawned
  /// incarnation must never reuse a pre-crash id — merged traces key flow
  /// arrows by id).
  static uint64_t NextSpanId();
  static void SetSpanIdNamespace(uint64_t base);

  /// Trace id for this process's run, carried in outgoing frame headers.
  /// 0 (default) means "no trace": frames go out without context.
  static void SetTraceId(uint64_t trace_id);
  static uint64_t TraceId();

  /// The innermost live Span on the calling thread (0 when none). This is
  /// what a `net.send` frame stamps as its span id.
  static uint64_t CurrentSpanId();
  /// Span maintains the thread-local span stack through these.
  static void PushSpan(uint64_t span_id);
  static void PopSpan();

  /// Names a track ("party 0", "driver") in the exported trace.
  void SetTrackName(int32_t track, const std::string& name);

  /// The calling thread's default track. Unset threads get a unique track
  /// id >= kFirstAnonymousTrack.
  static void SetCurrentTrack(int32_t track);
  static int32_t CurrentTrack();
  static constexpr int32_t kFirstAnonymousTrack = 1000;

  /// Snapshot of all buffered events across threads, in buffer order.
  std::vector<TraceEvent> Collect() const;
  size_t num_events() const;
  uint64_t dropped_events() const;

  /// Drops all buffered events (track names are kept).
  void Clear();

  /// Chrome trace-event JSON of everything collected so far:
  /// {"traceEvents":[...],"displayTimeUnit":"ms"}.
  std::string ToChromeTraceJson() const;

  /// Writes ToChromeTraceJson() to a file through WriteFileAtomically, so
  /// a concurrent reader never sees a torn document; false on I/O failure.
  bool WriteChromeTraceFile(const std::string& path) const;

  /// Where the fatal-path flush writes the active trace (default
  /// "sqm_crash_trace.json" in the working directory).
  void SetCrashDumpPath(std::string path);

  /// Flushes the active trace to the crash dump path if any events are
  /// buffered. Installed as a Logger fatal hook so SQM_CHECK failures and
  /// SQM_LOG(kFatal) leave a readable trace behind.
  void FlushForCrash() const;

 private:
  struct ThreadBuffer {
    Mutex mu;
    std::vector<TraceEvent> events SQM_GUARDED_BY(mu);
    uint64_t dropped SQM_GUARDED_BY(mu) = 0;
  };
  static constexpr size_t kMaxEventsPerBuffer = 1 << 18;

  Tracer();
  ThreadBuffer& BufferForThisThread();

  mutable Mutex mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_ SQM_GUARDED_BY(mu_);
  std::map<int32_t, std::string> track_names_ SQM_GUARDED_BY(mu_);
  std::string crash_dump_path_ SQM_GUARDED_BY(mu_) = "sqm_crash_trace.json";
};

/// One per-process trace document for MergeChromeTraces: the Chrome JSON
/// text, the label for its process group, and the pid to merge under. Two
/// documents may share a pid: a party's pre- and post-crash incarnations
/// merge onto ONE party track, so a restart reads as a gap, not a new
/// process.
struct TraceDoc {
  std::string name;
  std::string json;
  uint64_t pid = 0;  ///< 0: assigned from the document's index + 1.
};

/// Merges Chrome trace-event documents from processes on one host (each as
/// produced by ToChromeTraceJson / WriteChromeTraceFile) into one
/// timeline: document i's events are rewritten to its TraceDoc pid, a
/// process_name metadata record labels the pid, and the event lists are
/// concatenated. Timestamps are kept as they are: every local process
/// stamps them on the same steady clock (NowMicros). The multi-process
/// coordinator uses this to fold the sqm-party trace files into one file a
/// single Perfetto tab can read, with one labeled process group per party.
Result<std::string> MergeChromeTraces(const std::vector<TraceDoc>& traces);

/// RAII span: measures construction-to-destruction on the current track.
/// Free (no clock read, no buffer touch) when the kill switch is off.
///
///   obs::Span span("bgw.mul", "mpc");
///   span.AddArg("round", round);
class Span {
 public:
  explicit Span(const char* name, const char* category = "sqm")
      : active_(Enabled()) {
    if (active_) {
      event_.name = name;
      event_.category = category;
      event_.track = Tracer::CurrentTrack();
      event_.ts_micros = NowMicros();
      id_ = Tracer::NextSpanId();
      Tracer::PushSpan(id_);
    }
  }

  /// Pins the span to an explicit track — how driver-mode protocol code
  /// (one thread simulating all parties) attributes work to party rows.
  Span(const char* name, const char* category, int32_t track)
      : active_(Enabled()) {
    if (active_) {
      event_.name = name;
      event_.category = category;
      event_.track = track;
      event_.ts_micros = NowMicros();
      id_ = Tracer::NextSpanId();
      Tracer::PushSpan(id_);
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void AddArg(const char* key, int64_t value) {
    if (active_) event_.AddArg(key, value);
  }

  /// This span's process-unique id (0 when the kill switch is off). The
  /// transport stamps it into outgoing frame headers so the receiver can
  /// link its net.recv span back here.
  uint64_t id() const { return id_; }

  ~Span() {
    if (active_) {
      Tracer::PopSpan();
      event_.dur_micros = NowMicros() - event_.ts_micros;
      Tracer::Global().Emit(event_);
    }
  }

 private:
  TraceEvent event_;
  uint64_t id_ = 0;
  bool active_;
};

/// RAII current-track override for a thread (party threads use this so
/// their spans land on the party's row).
class TrackScope {
 public:
  explicit TrackScope(int32_t track) : previous_(Tracer::CurrentTrack()) {
    Tracer::SetCurrentTrack(track);
  }
  TrackScope(const TrackScope&) = delete;
  TrackScope& operator=(const TrackScope&) = delete;
  ~TrackScope() { Tracer::SetCurrentTrack(previous_); }

 private:
  int32_t previous_;
};

}  // namespace sqm::obs

#endif  // SQM_OBS_TRACE_H_
