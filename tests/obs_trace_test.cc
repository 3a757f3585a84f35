#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "core/json.h"
#include "obs/obs.h"

namespace sqm::obs {
namespace {

/// The tracer is process-global; every test starts from an empty buffer
/// with observability enabled and the default track restored.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    Tracer::Global().Clear();
  }
};

/// Events with the given name in the collected buffer.
std::vector<TraceEvent> EventsNamed(const std::string& name) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& event : Tracer::Global().Collect()) {
    if (name == event.name) out.push_back(event);
  }
  return out;
}

TEST_F(TraceTest, SpanRecordsCompleteEvent) {
  {
    Span span("test.span", "test");
    span.AddArg("answer", 42);
  }
  const auto events = EventsNamed("test.span");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, TraceEvent::Type::kComplete);
  EXPECT_STREQ(events[0].category, "test");
  ASSERT_EQ(events[0].num_args, 1);
  EXPECT_STREQ(events[0].args[0].key, "answer");
  EXPECT_EQ(events[0].args[0].value, 42);
}

TEST_F(TraceTest, NestedSpansBothRecorded) {
  {
    Span outer("test.outer", "test");
    {
      Span inner("test.inner", "test");
    }
  }
  EXPECT_EQ(EventsNamed("test.outer").size(), 1u);
  EXPECT_EQ(EventsNamed("test.inner").size(), 1u);
  // The inner span closed first, so its end is <= the outer's end.
  const TraceEvent outer = EventsNamed("test.outer")[0];
  const TraceEvent inner = EventsNamed("test.inner")[0];
  EXPECT_GE(inner.ts_micros, outer.ts_micros);
  EXPECT_LE(inner.ts_micros + inner.dur_micros,
            outer.ts_micros + outer.dur_micros);
}

TEST_F(TraceTest, ExplicitTrackPinsSpanToPartyRow) {
  {
    Span span("test.party_span", "test", /*track=*/3);
  }
  const auto events = EventsNamed("test.party_span");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].track, 3);
}

TEST_F(TraceTest, TrackScopeSetsAndRestoresCurrentTrack) {
  const int32_t before = Tracer::CurrentTrack();
  {
    TrackScope track(7);
    EXPECT_EQ(Tracer::CurrentTrack(), 7);
    Span span("test.tracked", "test");
  }
  EXPECT_EQ(Tracer::CurrentTrack(), before);
  ASSERT_EQ(EventsNamed("test.tracked").size(), 1u);
  EXPECT_EQ(EventsNamed("test.tracked")[0].track, 7);
}

TEST_F(TraceTest, DisabledSpanEmitsNothing) {
  SetEnabled(false);
  {
    Span span("test.disabled", "test");
  }
  SetEnabled(true);
  EXPECT_TRUE(EventsNamed("test.disabled").empty());
}

TEST_F(TraceTest, InstantEventRecorded) {
  Tracer::Global().Instant("test.instant", "test");
  const auto events = EventsNamed("test.instant");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, TraceEvent::Type::kInstant);
}

TEST_F(TraceTest, ArgsBeyondCapacityAreDropped) {
  TraceEvent event;
  for (int i = 0; i < TraceEvent::kMaxArgs + 3; ++i) {
    event.AddArg("k", i);
  }
  EXPECT_EQ(event.num_args, TraceEvent::kMaxArgs);
}

TEST_F(TraceTest, ChromeTraceJsonIsWellFormed) {
  Tracer::Global().SetTrackName(0, "party 0");
  {
    TrackScope track(0);
    Span span("test.json_span", "test");
    span.AddArg("n", 5);
  }
  Tracer::Global().Instant("test.json_instant", "test");

  const std::string json = Tracer::Global().ToChromeTraceJson();
  const JsonValue root = ParseJson(json).ValueOrDie();
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);

  bool found_metadata = false;
  bool found_span = false;
  bool found_instant = false;
  for (const JsonValue& event : events->items) {
    const std::string name = event.Find("name")->string_value;
    const std::string ph = event.Find("ph")->string_value;
    if (ph == "M" && name == "thread_name") {
      found_metadata = true;
      EXPECT_EQ(event.Find("args")->Find("name")->string_value, "party 0");
    }
    if (name == "test.json_span") {
      found_span = true;
      EXPECT_EQ(ph, "X");
      EXPECT_EQ(event.Find("tid")->int_value, 0);
      ASSERT_NE(event.Find("dur"), nullptr);
      EXPECT_EQ(event.Find("args")->Find("n")->int_value, 5);
    }
    if (name == "test.json_instant") {
      found_instant = true;
      EXPECT_EQ(ph, "i");
      EXPECT_EQ(event.Find("s")->string_value, "t");
    }
  }
  EXPECT_TRUE(found_metadata);
  EXPECT_TRUE(found_span);
  EXPECT_TRUE(found_instant);
  EXPECT_EQ(root.Find("displayTimeUnit")->string_value, "ms");
}

TEST_F(TraceTest, CollectSeesEventsFromOtherThreads) {
  std::thread worker([] {
    TrackScope track(11);
    Span span("test.worker_span", "test");
  });
  worker.join();
  const auto events = EventsNamed("test.worker_span");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].track, 11);
}

TEST_F(TraceTest, ClearDropsBufferedEvents) {
  {
    Span span("test.cleared", "test");
  }
  ASSERT_EQ(EventsNamed("test.cleared").size(), 1u);
  Tracer::Global().Clear();
  EXPECT_EQ(Tracer::Global().num_events(), 0u);
}

TEST_F(TraceTest, FlowEventsExportAsChromeArrows) {
  Tracer::Global().FlowStart("net.link", "net", 4242);
  Tracer::Global().FlowFinish("net.link", "net", 4242);
  const std::string json = Tracer::Global().ToChromeTraceJson();
  const JsonValue root = ParseJson(json).ValueOrDie();
  bool found_start = false;
  bool found_finish = false;
  for (const JsonValue& event : root.Find("traceEvents")->items) {
    const JsonValue* ph = event.Find("ph");
    if (ph == nullptr) continue;
    if (ph->string_value == "s") {
      found_start = true;
      EXPECT_EQ(event.Find("id")->uint_value, 4242u);
      EXPECT_EQ(event.Find("name")->string_value, "net.link");
    }
    if (ph->string_value == "f") {
      found_finish = true;
      EXPECT_EQ(event.Find("id")->uint_value, 4242u);
      // Binding point "enclosing slice": the arrow attaches to the span
      // that was live when the finish was recorded.
      ASSERT_NE(event.Find("bp"), nullptr);
      EXPECT_EQ(event.Find("bp")->string_value, "e");
    }
  }
  EXPECT_TRUE(found_start);
  EXPECT_TRUE(found_finish);
}

TEST_F(TraceTest, SpanIdNamespaceKeepsIncarnationsCollisionFree) {
  // The sqm-party slab layout: ((party+1) << 48) | (incarnation << 40) | 1.
  // Ids drawn after a rebase live in the new slab, so a respawned
  // incarnation can never mint an id its pre-crash self already used.
  Tracer::SetSpanIdNamespace((uint64_t{3} << 48) | (uint64_t{0} << 40) | 1);
  std::vector<uint64_t> first;
  for (int i = 0; i < 100; ++i) first.push_back(Tracer::NextSpanId());
  Tracer::SetSpanIdNamespace((uint64_t{3} << 48) | (uint64_t{1} << 40) | 1);
  for (int i = 0; i < 100; ++i) {
    const uint64_t id = Tracer::NextSpanId();
    EXPECT_EQ(id >> 40, (uint64_t{3} << 8) | 1);
    for (const uint64_t old : first) EXPECT_NE(id, old);
  }
  // Restore the default namespace for the other suites.
  Tracer::SetSpanIdNamespace(1);
}

TEST_F(TraceTest, MergeSharesPidAcrossIncarnations) {
  // Two incarnations of "party 2", each a tiny single-span document.
  {
    Span span("test.pre_crash", "test");
  }
  const std::string pre = Tracer::Global().ToChromeTraceJson();
  Tracer::Global().Clear();
  {
    Span span("test.post_crash", "test");
  }
  const std::string post = Tracer::Global().ToChromeTraceJson();

  std::vector<TraceDoc> docs(2);
  docs[0].name = "party 2";
  docs[0].json = pre;
  docs[0].pid = 3;
  docs[1].name = "party 2";
  docs[1].json = post;
  docs[1].pid = 3;
  const Result<std::string> merged = MergeChromeTraces(docs);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  const JsonValue root = ParseJson(merged.ValueOrDie()).ValueOrDie();

  int process_names_for_pid3 = 0;
  bool found_pre = false;
  bool found_post = false;
  for (const JsonValue& event : root.Find("traceEvents")->items) {
    const JsonValue* name = event.Find("name");
    if (name == nullptr) continue;
    if (name->string_value == "process_name" &&
        event.Find("pid")->uint_value == 3u) {
      ++process_names_for_pid3;
    }
    if (name->string_value == "test.pre_crash") {
      found_pre = true;
      EXPECT_EQ(event.Find("pid")->uint_value, 3u);
    }
    if (name->string_value == "test.post_crash") {
      found_post = true;
      EXPECT_EQ(event.Find("pid")->uint_value, 3u);
    }
  }
  // One process label per pid, even with two documents merged onto it.
  EXPECT_EQ(process_names_for_pid3, 1);
  EXPECT_TRUE(found_pre);
  EXPECT_TRUE(found_post);
}

TEST_F(TraceTest, MergePrunesFlowFinishesWhoseStartDiedWithTheSender) {
  // Sender document: one linked send (flow 71) — the send for flow 72 was
  // lost with a crash, so no "s" exists for it anywhere.
  {
    Span span("test.send", "test");
    Tracer::Global().FlowStart("net.link", "net", 71);
  }
  const std::string sender = Tracer::Global().ToChromeTraceJson();
  Tracer::Global().Clear();
  // Receiver document: finishes for both flows.
  {
    Span span("test.recv", "test");
    Tracer::Global().FlowFinish("net.link", "net", 71);
    Tracer::Global().FlowFinish("net.link", "net", 72);
  }
  const std::string receiver = Tracer::Global().ToChromeTraceJson();

  std::vector<TraceDoc> inputs(2);
  inputs[0].name = "party 0";
  inputs[0].json = sender;
  inputs[1].name = "party 1";
  inputs[1].json = receiver;
  const Result<std::string> merged = MergeChromeTraces(inputs);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  const JsonValue root = ParseJson(merged.ValueOrDie()).ValueOrDie();

  std::set<uint64_t> starts;
  std::set<uint64_t> finishes;
  for (const JsonValue& event : root.Find("traceEvents")->items) {
    const JsonValue* ph = event.Find("ph");
    if (ph == nullptr) continue;
    if (ph->string_value == "s") starts.insert(event.Find("id")->uint_value);
    if (ph->string_value == "f") {
      finishes.insert(event.Find("id")->uint_value);
    }
  }
  // The matched arrow survives whole; the orphaned finish is pruned so the
  // merged artifact never carries an unrenderable half-link.
  EXPECT_EQ(starts, (std::set<uint64_t>{71}));
  EXPECT_EQ(finishes, (std::set<uint64_t>{71}));
}

TEST_F(TraceTest, WriteChromeTraceFileRoundTrips) {
  {
    Span span("test.file_span", "test");
  }
  const std::string path = ::testing::TempDir() + "/obs_trace_test.json";
  ASSERT_TRUE(Tracer::Global().WriteChromeTraceFile(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue root = ParseJson(buffer.str()).ValueOrDie();
  ASSERT_NE(root.Find("traceEvents"), nullptr);
  std::remove(path.c_str());
}

TEST_F(TraceTest, ReaderNeverSeesATornTraceFileWhileItIsRewritten) {
  // sqm-party rewrites its durable trace while the coordinator may read
  // it (or a crash may cut the write short): every read must parse.
  for (int i = 0; i < 20000; ++i) Tracer::Global().Instant("test.filler");
  const std::string path = ::testing::TempDir() + "/obs_trace_rewrite.json";
  ASSERT_TRUE(Tracer::Global().WriteChromeTraceFile(path));
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 30; ++i) {
      EXPECT_TRUE(Tracer::Global().WriteChromeTraceFile(path));
    }
    done.store(true);
  });
  size_t reads = 0;
  size_t torn = 0;
  while (!done.load()) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    if (!ParseJson(buffer.str()).ok()) ++torn;
    ++reads;
  }
  writer.join();
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(torn, 0u) << "of " << reads << " reads";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sqm::obs
