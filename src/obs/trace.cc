#include "obs/trace.h"

#include <atomic>
#include <set>

#include "core/atomic_file.h"
#include "core/json.h"
#include "core/logging.h"

namespace sqm::obs {
namespace {

thread_local int32_t tl_track = -1;  // -1: not yet assigned.
std::atomic<int32_t> g_next_anonymous_track{Tracer::kFirstAnonymousTrack};

// Span ids start at 1 so 0 stays the "no span" sentinel on the wire;
// SetSpanIdNamespace rebases the counter per process incarnation.
std::atomic<uint64_t> g_next_span_id{1};
std::atomic<uint64_t> g_trace_id{0};

// The calling thread's stack of live Span ids (innermost last). Spans are
// strictly nested RAII scopes, so a bounded array suffices; overflow just
// stops tracking depth (ids keep flowing, CurrentSpanId degrades to the
// deepest tracked ancestor).
constexpr size_t kMaxSpanDepth = 64;
thread_local uint64_t tl_span_stack[kMaxSpanDepth];
thread_local size_t tl_span_depth = 0;

const char* PhaseLetter(TraceEvent::Type type) {
  switch (type) {
    case TraceEvent::Type::kComplete:
      return "X";
    case TraceEvent::Type::kInstant:
      return "i";
    case TraceEvent::Type::kFlowStart:
      return "s";
    case TraceEvent::Type::kFlowFinish:
      return "f";
  }
  return "X";
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // Never destroyed: party threads
  return *tracer;  // may still emit while the process winds down.
}

Tracer::Tracer() {
  // SQM_CHECK failures and SQM_LOG(kFatal) flush the active trace so a
  // crashed run still leaves a loadable timeline behind.
  Logger::AddFatalHook([] { Tracer::Global().FlushForCrash(); });
}

Tracer::ThreadBuffer& Tracer::BufferForThisThread() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [this] {
    auto fresh = std::make_shared<ThreadBuffer>();
    MutexLock lock(mu_);
    buffers_.push_back(fresh);
    return fresh;
  }();
  return *buffer;
}

void Tracer::Emit(const TraceEvent& event) {
  if (!Enabled()) return;
  ThreadBuffer& buffer = BufferForThisThread();
  MutexLock lock(buffer.mu);
  if (buffer.events.size() >= kMaxEventsPerBuffer) {
    ++buffer.dropped;
    return;
  }
  buffer.events.push_back(event);
}

void Tracer::Instant(const char* name, const char* category,
                     std::initializer_list<TraceEvent::Arg> args) {
  if (!Enabled()) return;
  TraceEvent event;
  event.name = name;
  event.category = category;
  for (const TraceEvent::Arg& arg : args) event.AddArg(arg.key, arg.value);
  event.type = TraceEvent::Type::kInstant;
  event.track = CurrentTrack();
  event.ts_micros = NowMicros();
  Emit(event);
}

void Tracer::FlowStart(const char* name, const char* category,
                       uint64_t flow_id) {
  if (!Enabled() || flow_id == 0) return;
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.type = TraceEvent::Type::kFlowStart;
  event.flow_id = flow_id;
  event.track = CurrentTrack();
  event.ts_micros = NowMicros();
  Emit(event);
}

void Tracer::FlowFinish(const char* name, const char* category,
                        uint64_t flow_id) {
  if (!Enabled() || flow_id == 0) return;
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.type = TraceEvent::Type::kFlowFinish;
  event.flow_id = flow_id;
  event.track = CurrentTrack();
  event.ts_micros = NowMicros();
  Emit(event);
}

uint64_t Tracer::NextSpanId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::SetSpanIdNamespace(uint64_t base) {
  // Keep 0 reserved as the "no span" sentinel even for a zero base.
  g_next_span_id.store(base == 0 ? 1 : base, std::memory_order_relaxed);
}

void Tracer::SetTraceId(uint64_t trace_id) {
  g_trace_id.store(trace_id, std::memory_order_relaxed);
}

uint64_t Tracer::TraceId() {
  return g_trace_id.load(std::memory_order_relaxed);
}

uint64_t Tracer::CurrentSpanId() {
  return tl_span_depth == 0
             ? 0
             : tl_span_stack[tl_span_depth <= kMaxSpanDepth
                                 ? tl_span_depth - 1
                                 : kMaxSpanDepth - 1];
}

void Tracer::PushSpan(uint64_t span_id) {
  if (tl_span_depth < kMaxSpanDepth) tl_span_stack[tl_span_depth] = span_id;
  ++tl_span_depth;
}

void Tracer::PopSpan() {
  if (tl_span_depth > 0) --tl_span_depth;
}

void Tracer::SetTrackName(int32_t track, const std::string& name) {
  MutexLock lock(mu_);
  track_names_[track] = name;
}

void Tracer::SetCurrentTrack(int32_t track) { tl_track = track; }

int32_t Tracer::CurrentTrack() {
  if (tl_track < 0) {
    tl_track = g_next_anonymous_track.fetch_add(1,
                                                std::memory_order_relaxed);
  }
  return tl_track;
}

std::vector<TraceEvent> Tracer::Collect() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    MutexLock lock(mu_);
    buffers = buffers_;
  }
  std::vector<TraceEvent> events;
  for (const auto& buffer : buffers) {
    MutexLock lock(buffer->mu);
    events.insert(events.end(), buffer->events.begin(),
                  buffer->events.end());
  }
  return events;
}

size_t Tracer::num_events() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    MutexLock lock(mu_);
    buffers = buffers_;
  }
  size_t total = 0;
  for (const auto& buffer : buffers) {
    MutexLock lock(buffer->mu);
    total += buffer->events.size();
  }
  return total;
}

uint64_t Tracer::dropped_events() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    MutexLock lock(mu_);
    buffers = buffers_;
  }
  uint64_t total = 0;
  for (const auto& buffer : buffers) {
    MutexLock lock(buffer->mu);
    total += buffer->dropped;
  }
  return total;
}

void Tracer::Clear() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    MutexLock lock(mu_);
    buffers = buffers_;
  }
  for (const auto& buffer : buffers) {
    MutexLock lock(buffer->mu);
    buffer->events.clear();
    buffer->dropped = 0;
  }
}

std::string Tracer::ToChromeTraceJson() const {
  const std::vector<TraceEvent> events = Collect();
  std::map<int32_t, std::string> track_names;
  {
    MutexLock lock(mu_);
    track_names = track_names_;
  }

  JsonWriter writer;
  writer.BeginObject();
  writer.BeginArray("traceEvents");
  // Metadata first: one thread_name record per named track, so Perfetto
  // labels the party rows.
  for (const auto& [track, name] : track_names) {
    writer.BeginObject()
        .Field("name", "thread_name")
        .Field("ph", "M")
        .Field("pid", uint64_t{1})
        .Field("tid", static_cast<int64_t>(track));
    writer.Key("args").BeginObject().Field("name", name).EndObject();
    writer.EndObject();
  }
  for (const TraceEvent& event : events) {
    writer.BeginObject()
        .Field("name", event.name)
        .Field("cat", event.category)
        .Field("ph", PhaseLetter(event.type))
        .Field("ts", event.ts_micros)
        .Field("pid", uint64_t{1})
        .Field("tid", static_cast<int64_t>(event.track));
    if (event.type == TraceEvent::Type::kComplete) {
      writer.Field("dur", event.dur_micros);
    }
    if (event.type == TraceEvent::Type::kInstant) {
      writer.Field("s", "t");  // Thread-scoped instant.
    }
    if (event.type == TraceEvent::Type::kFlowStart ||
        event.type == TraceEvent::Type::kFlowFinish) {
      writer.Field("id", event.flow_id);
      if (event.type == TraceEvent::Type::kFlowFinish) {
        // Bind the arrowhead to the enclosing slice ("bp":"e"), the form
        // Perfetto renders as an arrow into the receiving span.
        writer.Field("bp", "e");
      }
    }
    if (event.num_args > 0) {
      writer.Key("args").BeginObject();
      for (int i = 0; i < event.num_args; ++i) {
        writer.Field(event.args[i].key, event.args[i].value);
      }
      writer.EndObject();
    }
    writer.EndObject();
  }
  writer.EndArray();
  writer.Field("displayTimeUnit", "ms");
  writer.EndObject();
  return writer.str();
}

bool Tracer::WriteChromeTraceFile(const std::string& path) const {
  const std::string json = ToChromeTraceJson();
  return WriteFileAtomically(path, json.data(), json.size()).ok();
}

void Tracer::SetCrashDumpPath(std::string path) {
  MutexLock lock(mu_);
  crash_dump_path_ = std::move(path);
}

void Tracer::FlushForCrash() const {
  if (num_events() == 0) return;
  std::string path;
  {
    MutexLock lock(mu_);
    path = crash_dump_path_;
  }
  WriteChromeTraceFile(path);
}

namespace {

/// Re-emits a parsed JSON value verbatim. Exact integers go out through
/// the integer path so u64 timestamps survive the round trip.
void EmitJsonValue(JsonWriter& writer, const JsonValue& value) {
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      // The writer has no null; our own traces never contain one, and a
      // foreign null degrades to false rather than corrupting the doc.
      writer.Value(false);
      break;
    case JsonValue::Kind::kBool:
      writer.Value(value.bool_value);
      break;
    case JsonValue::Kind::kNumber:
      if (value.is_integer && !value.is_negative) {
        writer.Value(value.uint_value);
      } else if (value.is_integer) {
        writer.Value(value.int_value);
      } else {
        writer.Value(value.number);
      }
      break;
    case JsonValue::Kind::kString:
      writer.Value(value.string_value);
      break;
    case JsonValue::Kind::kArray:
      writer.BeginArray();
      for (const JsonValue& item : value.items) {
        EmitJsonValue(writer, item);
      }
      writer.EndArray();
      break;
    case JsonValue::Kind::kObject:
      writer.BeginObject();
      for (const auto& [key, member] : value.members) {
        writer.Key(key);
        EmitJsonValue(writer, member);
      }
      writer.EndObject();
      break;
  }
}

}  // namespace

Result<std::string> MergeChromeTraces(const std::vector<TraceDoc>& traces) {
  // Parse every document first and collect the flow-start ids: a crashed
  // process can lose its in-memory `ph:"s"` events while the receivers'
  // durably-written `ph:"f"` halves survive, and a finish without a start
  // is unrenderable — such orphans are pruned from the merged timeline.
  std::vector<JsonValue> docs;
  docs.reserve(traces.size());
  std::set<uint64_t> flow_start_ids;
  for (const TraceDoc& trace : traces) {
    SQM_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(trace.json));
    const JsonValue* events = doc.Find("traceEvents");
    if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
      return Status::InvalidArgument(
          "trace \"" + trace.name +
          "\" has no traceEvents array (not a Chrome trace document)");
    }
    for (const JsonValue& event : events->items) {
      if (event.kind != JsonValue::Kind::kObject) {
        return Status::InvalidArgument("trace \"" + trace.name +
                                       "\" has a non-object trace event");
      }
      const JsonValue* ph = event.Find("ph");
      const JsonValue* id = event.Find("id");
      if (ph != nullptr && ph->string_value == "s" && id != nullptr) {
        flow_start_ids.insert(id->uint_value);
      }
    }
    docs.push_back(std::move(doc));
  }

  JsonWriter writer;
  writer.BeginObject();
  writer.BeginArray("traceEvents");
  std::set<uint64_t> labeled_pids;
  for (size_t i = 0; i < traces.size(); ++i) {
    const uint64_t pid =
        traces[i].pid != 0 ? traces[i].pid : static_cast<uint64_t>(i) + 1;
    // Label the process group so Perfetto shows "party 0", "coordinator"
    // instead of bare pids. A pid shared by several documents (one party's
    // successive incarnations) is labeled once, by its first document.
    if (labeled_pids.insert(pid).second) {
      writer.BeginObject()
          .Field("name", "process_name")
          .Field("ph", "M")
          .Field("pid", pid)
          .Field("tid", uint64_t{0});
      writer.Key("args").BeginObject().Field("name", traces[i].name);
      writer.EndObject().EndObject();
    }

    const JsonValue* events = docs[i].Find("traceEvents");
    for (const JsonValue& event : events->items) {
      const JsonValue* ph = event.Find("ph");
      if (ph != nullptr && ph->string_value == "f") {
        const JsonValue* id = event.Find("id");
        if (id == nullptr || flow_start_ids.count(id->uint_value) == 0) {
          continue;  // Orphaned finish: its start died with the sender.
        }
      }
      writer.BeginObject();
      for (const auto& [key, member] : event.members) {
        if (key == "pid") {
          writer.Field("pid", pid);
          continue;
        }
        writer.Key(key);
        EmitJsonValue(writer, member);
      }
      writer.EndObject();
    }
  }
  writer.EndArray();
  writer.Field("displayTimeUnit", "ms");
  writer.EndObject();
  return writer.str();
}

}  // namespace sqm::obs
