// The distributed observability plane, end to end: a 5-process networked
// run must yield (a) one merged, clock-aligned Perfetto timeline whose
// net.link flow arrows connect a sender's net.send span to the receiver's
// net.recv span ACROSS process boundaries, (b) a fleet_metrics.json whose
// per-party byte counters reconcile exactly with each party's own
// transport accounting, and (c) — with the runtime kill switch off — a
// bit-identical release with no telemetry artifacts at all (the
// telemetry-never-changes-results invariant).
//
// The supervised-restart suite SIGKILLs party 2 mid-Mul and checks the
// trace side of recovery: the pre-crash incarnation's spans survive (the
// telemetry tick rewrites the trace file durably), both incarnations merge
// onto ONE party track, and the respawn's span-id namespace shares no ids
// with its pre-crash self.

#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/json.h"
#include "core/report_io.h"
#include "core/sqm.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define SQM_DEPLOY_TEST_SUPPORTED 1
#endif

namespace {

#ifdef SQM_DEPLOY_TEST_SUPPORTED

using sqm::JsonValue;
using sqm::ParseJson;

/// 5-party roster, quorum 3, one restart — deploy_chaos_test's recovery
/// shape plus the observability knobs: a fast telemetry tick (0.05 s) so
/// the durable trace rewrite certainly lands before a mid-Mul SIGKILL.
std::string DeployConfig(uint64_t run_id, bool obs_enabled) {
  std::ostringstream out;
  out << "{\n"
      << "  \"run_id\": " << run_id << ", \"session_key\": 6060,\n"
      << "  \"parties\": ["
      << "{\"host\":\"127.0.0.1\",\"port\":0},"
      << "{\"host\":\"127.0.0.1\",\"port\":0},"
      << "{\"host\":\"127.0.0.1\",\"port\":0},"
      << "{\"host\":\"127.0.0.1\",\"port\":0},"
      << "{\"host\":\"127.0.0.1\",\"port\":0}],\n"
      << "  \"rows\": 6, \"cols\": 5, \"data_seed\": 9,\n"
      << "  \"polynomial\": \"x0*x1; x2*x3; x3*x4\",\n"
      << "  \"gamma\": 32, \"mu\": 4, \"seed\": 1234,\n"
      << "  \"dropout_policy\": \"degrade\",\n"
      << "  \"bgw_threshold\": 1, \"dp_delta\": 1e-5,\n"
      << "  \"mpc_max_attempts\": 8,\n"
      << "  \"receive_timeout_seconds\": 1.0,\n"
      << "  \"max_reconnect_attempts\": 2,\n"
      << "  \"reconnect_backoff_seconds\": 0.05,\n"
      << "  \"max_restarts\": 1,\n"
      << "  \"restart_backoff_seconds\": 0.25,\n"
      << "  \"recovery_deadline_seconds\": 20.0,\n"
      << "  \"obs_enabled\": " << (obs_enabled ? "true" : "false") << ",\n"
      << "  \"telemetry_snapshot_interval_seconds\": 0.05\n"
      << "}\n";
  return out.str();
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return in ? buffer.str() : std::string();
}

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return static_cast<bool>(in);
}

struct RunResult {
  std::string dir;
  std::string coordinator_json;
};

RunResult RunCoordinator(const std::string& name,
                         const std::string& config_text,
                         const std::string& extra_flags) {
  RunResult result;
  result.dir = testing::TempDir() + "/obsdist_" + name + "_" +
               std::to_string(::getpid());
  EXPECT_EQ(std::system(("mkdir -p " + result.dir).c_str()), 0);
  {
    std::ofstream config(result.dir + "/deploy.json", std::ios::trunc);
    config << config_text;
    EXPECT_TRUE(config.good());
  }
  const std::string command =
      std::string(SQM_COORDINATOR_BIN) + " --config=" + result.dir +
      "/deploy.json --out-dir=" + result.dir + " " + extra_flags +
      " --timeout-seconds=240 > " + result.dir + "/coordinator.log 2>&1";
  const int rc = std::system(command.c_str());
  EXPECT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 0)
      << "coordinator log:\n"
      << ReadFileOrEmpty(result.dir + "/coordinator.log");
  result.coordinator_json = ReadFileOrEmpty(result.dir + "/coordinator.json");
  return result;
}

/// Flow-arrow ids of the given phase ("s" or "f") with the pid that
/// recorded each, keyed by id.
std::map<uint64_t, std::set<uint64_t>> FlowPidsByPhase(
    const JsonValue& trace, const std::string& phase) {
  std::map<uint64_t, std::set<uint64_t>> out;
  for (const JsonValue& event : trace.Find("traceEvents")->items) {
    const JsonValue* ph = event.Find("ph");
    if (ph == nullptr || ph->string_value != phase) continue;
    out[event.Find("id")->uint_value].insert(
        event.Find("pid")->uint_value);
  }
  return out;
}

TEST(ObsDistributed, FleetTelemetryAndMergedTraceEndToEnd) {
  const RunResult result =
      RunCoordinator("fleet", DeployConfig(201, /*obs_enabled=*/true),
                     "--compare-lockstep --stats-interval=0.1");
  EXPECT_NE(result.coordinator_json.find("\"lockstep_match\":true"),
            std::string::npos);
  EXPECT_NE(result.coordinator_json.find("\"telemetry_reconciles\":true"),
            std::string::npos)
      << result.coordinator_json;

  // fleet_metrics.json reconciles EXACTLY with every party's own frozen
  // transport totals — the fleet view is the parties' accounting, not an
  // approximation of it.
  const std::string fleet_text =
      ReadFileOrEmpty(result.dir + "/fleet_metrics.json");
  ASSERT_FALSE(fleet_text.empty());
  const JsonValue fleet = ParseJson(fleet_text).ValueOrDie();
  const JsonValue* parties = fleet.Find("parties");
  ASSERT_NE(parties, nullptr);
  ASSERT_EQ(parties->items.size(), 5u);
  for (const JsonValue& entry : parties->items) {
    const uint64_t j = entry.Find("party")->uint_value;
    EXPECT_TRUE(entry.Find("final")->bool_value)
        << "party " << j << " never shipped its final snapshot";
    const sqm::SqmReport report =
        sqm::SqmReportFromJson(
            ReadFileOrEmpty(result.dir + "/party_" + std::to_string(j) +
                            ".json"))
            .ValueOrDie();
    const JsonValue* net = entry.Find("net");
    ASSERT_NE(net, nullptr);
    EXPECT_EQ(net->Find("wire_bytes")->uint_value,
              report.transport.totals.wire_bytes);
    EXPECT_EQ(net->Find("messages")->uint_value,
              report.transport.totals.messages);
    EXPECT_EQ(net->Find("field_elements")->uint_value,
              report.transport.totals.field_elements);
    EXPECT_EQ(net->Find("rounds")->uint_value,
              report.transport.totals.rounds);
    // The phase and clock-offset state rode along.
    EXPECT_NE(entry.Find("phase"), nullptr);
    EXPECT_NE(entry.Find("clock_offset_micros"), nullptr);
  }

  // The merged timeline links sends to receives across processes: at
  // least one net.link flow id must have its start ("s") and finish
  // ("f") recorded by DIFFERENT pids.
  const std::string merged_text =
      ReadFileOrEmpty(result.dir + "/merged_trace.json");
  ASSERT_FALSE(merged_text.empty());
  const JsonValue merged = ParseJson(merged_text).ValueOrDie();
  const auto starts = FlowPidsByPhase(merged, "s");
  const auto finishes = FlowPidsByPhase(merged, "f");
  EXPECT_FALSE(starts.empty());
  size_t cross_process_links = 0;
  for (const auto& [id, finish_pids] : finishes) {
    const auto start = starts.find(id);
    if (start == starts.end()) continue;
    for (const uint64_t finish_pid : finish_pids) {
      if (start->second.count(finish_pid) == 0) ++cross_process_links;
    }
  }
  EXPECT_GT(cross_process_links, 0u)
      << "no flow arrow crosses a process boundary";

  // The coordinator's own validator accepts the merged document
  // (monotone, properly nested span intervals; no dangling flows).
  const int rc = std::system(
      (std::string(SQM_COORDINATOR_BIN) + " --trace-validate=" +
       result.dir + "/merged_trace.json > /dev/null 2>&1")
          .c_str());
  EXPECT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 0)
      << "trace-validate rejected the merged trace";
}

TEST(ObsDistributed, RestartKeepsOnePartyTrackWithFreshSpanIds) {
  const RunResult result = RunCoordinator(
      "restart", DeployConfig(202, /*obs_enabled=*/true),
      "--compare-lockstep --crash-party=2 --crash-at-mul-level=1");
  EXPECT_NE(result.coordinator_json.find("\"restarts\":1"),
            std::string::npos)
      << result.coordinator_json;

  // The pre-crash incarnation's trace survived the SIGKILL (the telemetry
  // tick rewrites it durably), and the respawn wrote its own file.
  const std::string pre_text =
      ReadFileOrEmpty(result.dir + "/party_2.inc0.trace.json");
  const std::string post_text =
      ReadFileOrEmpty(result.dir + "/party_2.inc1.trace.json");
  ASSERT_FALSE(pre_text.empty()) << "pre-crash trace lost";
  ASSERT_FALSE(post_text.empty()) << "post-crash trace missing";

  // That durable trace is the black box: it holds the killed
  // incarnation's link-state events, a net.link_up instant for every peer.
  const JsonValue pre_doc = ParseJson(pre_text).ValueOrDie();
  std::set<int64_t> linked_peers;
  for (const JsonValue& event : pre_doc.Find("traceEvents")->items) {
    const JsonValue* name = event.Find("name");
    const JsonValue* ph = event.Find("ph");
    const JsonValue* args = event.Find("args");
    if (name == nullptr || name->string_value != "net.link_up" ||
        ph == nullptr || ph->string_value != "i" || args == nullptr ||
        args->Find("peer") == nullptr) {
      continue;
    }
    linked_peers.insert(args->Find("peer")->int_value);
  }
  EXPECT_EQ(linked_peers, (std::set<int64_t>{0, 1, 3, 4}));

  // No span-id collisions across the crash: the respawn draws from an
  // incarnation-keyed namespace, so the flow ids (net.send span ids) of
  // the two incarnations are disjoint.
  auto flow_ids = [](const std::string& text) {
    std::set<uint64_t> ids;
    const JsonValue doc = ParseJson(text).ValueOrDie();
    for (const JsonValue& event : doc.Find("traceEvents")->items) {
      const JsonValue* ph = event.Find("ph");
      if (ph != nullptr &&
          (ph->string_value == "s" || ph->string_value == "f")) {
        ids.insert(event.Find("id")->uint_value);
      }
    }
    return ids;
  };
  const std::set<uint64_t> pre_ids = flow_ids(pre_text);
  const std::set<uint64_t> post_ids = flow_ids(post_text);
  EXPECT_FALSE(post_ids.empty());
  for (const uint64_t id : post_ids) {
    EXPECT_EQ(pre_ids.count(id), 0u)
        << "span id " << id << " reused across incarnations";
  }

  // Both incarnations merged onto ONE party track: exactly one
  // process_name record for party 2's pid (pid = party + 1 = 3), with
  // span events from both documents under it.
  const JsonValue merged =
      ParseJson(ReadFileOrEmpty(result.dir + "/merged_trace.json"))
          .ValueOrDie();
  int labels_for_pid3 = 0;
  bool pid3_has_spans = false;
  for (const JsonValue& event : merged.Find("traceEvents")->items) {
    const JsonValue* name = event.Find("name");
    const JsonValue* pid = event.Find("pid");
    if (name == nullptr || pid == nullptr || pid->uint_value != 3u) {
      continue;
    }
    if (name->string_value == "process_name") ++labels_for_pid3;
    const JsonValue* ph = event.Find("ph");
    if (ph != nullptr && ph->string_value == "X") pid3_has_spans = true;
  }
  EXPECT_EQ(labels_for_pid3, 1);
  EXPECT_TRUE(pid3_has_spans);
}

TEST(ObsDistributed, KillSwitchLeavesNoArtifactsAndIdenticalRelease) {
  // Runtime kill switch off: --compare-lockstep still passes (the
  // coordinator's exit code asserts the bit-identical release), and NO
  // observability artifact exists — no telemetry channel, no fleet view,
  // no trace files, no merged timeline.
  const RunResult result =
      RunCoordinator("dark", DeployConfig(203, /*obs_enabled=*/false),
                     "--compare-lockstep");
  EXPECT_NE(result.coordinator_json.find("\"lockstep_match\":true"),
            std::string::npos);
  EXPECT_NE(result.coordinator_json.find("\"telemetry_enabled\":false"),
            std::string::npos)
      << result.coordinator_json;
  EXPECT_FALSE(FileExists(result.dir + "/fleet_metrics.json"));
  EXPECT_FALSE(FileExists(result.dir + "/merged_trace.json"));
  for (int j = 0; j < 5; ++j) {
    EXPECT_FALSE(FileExists(result.dir + "/party_" + std::to_string(j) +
                            ".inc0.trace.json"));
  }
}

#else  // !SQM_DEPLOY_TEST_SUPPORTED

TEST(ObsDistributed, SkippedWithoutForkExec) {
  GTEST_SKIP() << "multi-process observability tests need POSIX fork/exec";
}

#endif

}  // namespace
