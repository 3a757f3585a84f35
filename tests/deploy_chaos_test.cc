// Socket-level chaos + supervised recovery: the coordinator launches a
// 5-party networked run as real OS processes with a restart budget, one
// party is SIGKILLed mid-Mul (and, in the chaos variant, the transport
// additionally injects seeded connection resets, torn writes, stalls and
// an asymmetric partition), and the run must STILL release values
// bit-identical to an in-process lockstep replay — full quorum, empty
// dropout, the configured epsilon.
//
// This is the proof obligation of the recovery subsystem: durable
// checkpoints + incarnation rejoin + resume barriers turn `kill -9` from
// a permanent dropout (PR 2's degrade path) into a transparent blip. The
// third suite exhausts the restart budget on purpose and checks the
// fallback to that degrade path still reports the configured epsilon.

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/report_io.h"
#include "core/sqm.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>

#include "scratch_dir.h"
#define SQM_DEPLOY_TEST_SUPPORTED 1
#endif

namespace {

#ifdef SQM_DEPLOY_TEST_SUPPORTED

/// Same 5-party roster and query as deploy_resilience_test (bgw_threshold
/// 1 → quorum 3, so losing one party for good is survivable), plus the
/// recovery knobs: one restart, and a 20-second resume-barrier budget —
/// generous because every party must outwait the slowest peer's failed
/// level (receive timeout + census timeout) before it reaches its own
/// barrier, and sanitizer builds stretch every step.
std::string DeployConfig(uint64_t run_id, bool chaos) {
  std::ostringstream out;
  out << "{\n"
      << "  \"run_id\": " << run_id << ", \"session_key\": 5555,\n"
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
      << "  \"recovery_deadline_seconds\": 20.0";
  if (chaos) {
    // Seeded fault storm confined to the mul phase: every lost or severed
    // frame costs one full-quorum level failure + resume barrier, so the
    // event cap (3 per party) and mpc_max_attempts (8) bound the run.
    out << ",\n"
        << "  \"chaos_seed\": 777,\n"
        << "  \"chaos_phase\": \"mul\",\n"
        << "  \"chaos_max_events\": 3,\n"
        << "  \"chaos_reset_probability\": 0.2,\n"
        << "  \"chaos_partial_write_probability\": 0.15,\n"
        << "  \"chaos_stall_probability\": 0.1,\n"
        << "  \"chaos_stall_seconds\": 0.05,\n"
        << "  \"chaos_partition_peer\": 3,\n"
        << "  \"chaos_partition_sends\": 2";
  }
  out << "\n}\n";
  return out.str();
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return in ? buffer.str() : std::string();
}

struct RunResult {
  sqm::SqmReport report;        ///< Party 0's report.
  std::string coordinator_json;
  std::string dir;
};

/// Runs the coordinator on `config` with party 2 crashing at Mul level 1
/// and returns party 0's report; `expect_ok` is the required coordinator
/// exit status. Fails the test on any setup error.
RunResult RunScenario(const std::string& dir,
                      const std::string& config_text,
                      const std::string& extra_flags, bool expect_ok) {
  RunResult result;
  result.dir = dir;
  {
    std::ofstream config(result.dir + "/deploy.json", std::ios::trunc);
    config << config_text;
    EXPECT_TRUE(config.good());
  }

  const std::string command =
      std::string(SQM_COORDINATOR_BIN) + " --config=" + result.dir +
      "/deploy.json --out-dir=" + result.dir +
      " --crash-party=2 --crash-at-mul-level=1 " + extra_flags +
      " --timeout-seconds=240 > " + result.dir + "/coordinator.log 2>&1";
  const int rc = std::system(command.c_str());
  EXPECT_TRUE(WIFEXITED(rc)) << "coordinator did not exit normally";
  EXPECT_EQ(WEXITSTATUS(rc), expect_ok ? 0 : 1)
      << "coordinator log:\n" << ReadFileOrEmpty(result.dir + "/coordinator.log");

  const std::string report_json =
      ReadFileOrEmpty(result.dir + "/party_0.json");
  EXPECT_FALSE(report_json.empty()) << "party 0 wrote no report";
  sqm::Result<sqm::SqmReport> report = sqm::SqmReportFromJson(report_json);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) result.report = report.ValueOrDie();
  result.coordinator_json = ReadFileOrEmpty(result.dir + "/coordinator.json");
  return result;
}

TEST(DeployChaos, KillMidMulRecoversFullQuorumBitIdentical) {
  // --compare-lockstep makes the coordinator itself require the networked
  // release to be bit-identical to the in-process lockstep run; its exit
  // code carries that assertion.
  const sqm::testing::ScratchDir dir("chaos_recover");
  const RunResult result = RunScenario(
      dir.path(), DeployConfig(91, /*chaos=*/false), "--compare-lockstep",
      /*expect_ok=*/true);
  const sqm::DropoutReport& dropout = result.report.dropout;

  // The SIGKILLed party was restarted and rejoined: nobody dropped, so the
  // ledger shows the CONFIGURED guarantee — no degradation.
  EXPECT_EQ(dropout.num_parties, 5u);
  EXPECT_EQ(dropout.num_dropped, 0u);
  EXPECT_EQ(dropout.survivors.size(), 5u);
  EXPECT_DOUBLE_EQ(dropout.configured_mu, 4.0);
  EXPECT_DOUBLE_EQ(dropout.realized_mu, 4.0);
  EXPECT_DOUBLE_EQ(dropout.realized_epsilon, dropout.configured_epsilon);

  // The supervisor consumed exactly one restart for party 2, whose second
  // incarnation finished cleanly (exit_code 0 in the same record).
  EXPECT_NE(result.coordinator_json.find("\"restarts\":1"),
            std::string::npos)
      << result.coordinator_json;
  EXPECT_NE(result.coordinator_json.find("\"lockstep_match\":true"),
            std::string::npos);

  // The rejoin ran off a durable checkpoint, not a lucky in-memory state.
  EXPECT_FALSE(
      ReadFileOrEmpty(result.dir + "/ckpt_2/checkpoint.bin").empty());
}

TEST(DeployChaos, SocketChaosPlusKillStillBitIdentical) {
  // kill -9 AND seeded resets / torn writes / stalls AND a 2-send
  // asymmetric partition toward party 3 — recovery must shrug all of it
  // off: every lost frame fails its level for everyone (full-quorum
  // census), the barrier resynchronizes, the redo retransmits.
  const sqm::testing::ScratchDir dir("chaos_storm");
  const RunResult result = RunScenario(
      dir.path(), DeployConfig(92, /*chaos=*/true), "--compare-lockstep",
      /*expect_ok=*/true);
  const sqm::DropoutReport& dropout = result.report.dropout;

  EXPECT_EQ(dropout.num_dropped, 0u);
  EXPECT_EQ(dropout.survivors.size(), 5u);
  EXPECT_DOUBLE_EQ(dropout.realized_mu, 4.0);
  EXPECT_DOUBLE_EQ(dropout.realized_epsilon, dropout.configured_epsilon);
  EXPECT_NE(result.coordinator_json.find("\"lockstep_match\":true"),
            std::string::npos);
}

TEST(DeployChaos, ExhaustedRestartsFallBackToDegrade) {
  // --crash-every-incarnation re-arms the SIGKILL on the respawn, so the
  // single restart is spent and party 2 stays dead. The survivors must
  // then positively declare it dead (reconnect + rejoin window) and fall
  // back to the degrade path. Party 2 dealt its noise share before the
  // first kill, so the release keeps the configured mu and epsilon.
  const sqm::testing::ScratchDir dir("chaos_exhaust");
  const RunResult result = RunScenario(
      dir.path(), DeployConfig(93, /*chaos=*/false),
      "--crash-every-incarnation", /*expect_ok=*/true);
  const sqm::DropoutReport& dropout = result.report.dropout;

  EXPECT_EQ(dropout.policy, sqm::DropoutPolicy::kDegrade);
  EXPECT_EQ(dropout.num_dropped, 1u);
  ASSERT_EQ(dropout.survivors.size(), 4u);
  for (size_t survivor : dropout.survivors) {
    EXPECT_NE(survivor, 2u) << "the twice-killed party cannot survive";
  }
  EXPECT_DOUBLE_EQ(dropout.realized_mu, 4.0);
  EXPECT_DOUBLE_EQ(dropout.realized_epsilon, dropout.configured_epsilon);
  ASSERT_EQ(result.report.ledger.size(), 1u);
  EXPECT_EQ(result.report.ledger[0].mechanism, "skellam");
  EXPECT_DOUBLE_EQ(result.report.ledger[0].mu, 4.0);
}

#else  // !SQM_DEPLOY_TEST_SUPPORTED

TEST(DeployChaos, SkippedWithoutForkExec) {
  GTEST_SKIP() << "multi-process chaos tests need POSIX fork/exec";
}

#endif

}  // namespace
