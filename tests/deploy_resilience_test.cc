// Multi-process resilience: the coordinator launches a 5-party networked
// run as real OS processes, one party is SIGKILLed mid-Mul (no goodbye
// frame, sub-shares half-sent), and the survivors must finish with the
// configured privacy guarantee instead of hanging.
//
// This is the one suite that exercises the deployment path end-to-end —
// fork/exec, pre-bound listeners, TCP framing, crash detection via
// reconnect-window expiry, the census round, and the dropout ledger — so
// it spawns the real sqm-coordinator binary (path baked in via
// SQM_COORDINATOR_BIN) rather than simulating any layer.

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

/// 5-party roster on loopback, port 0 everywhere (the coordinator binds
/// real ports and rewrites the roster before forking). bgw_threshold = 1
/// gives quorum 2t+1 = 3, so one crash among five parties is tolerable;
/// the default threshold (n-1)/2 would make the quorum n and turn any
/// crash into an abort.
std::string DeployConfig(const std::string& policy) {
  std::ostringstream out;
  out << "{\n"
      << "  \"run_id\": 88, \"session_key\": 5555,\n"
      << "  \"parties\": ["
      << "{\"host\":\"127.0.0.1\",\"port\":0},"
      << "{\"host\":\"127.0.0.1\",\"port\":0},"
      << "{\"host\":\"127.0.0.1\",\"port\":0},"
      << "{\"host\":\"127.0.0.1\",\"port\":0},"
      << "{\"host\":\"127.0.0.1\",\"port\":0}],\n"
      << "  \"rows\": 6, \"cols\": 5, \"data_seed\": 9,\n"
      << "  \"polynomial\": \"x0*x1; x2*x3; x3*x4\",\n"
      << "  \"gamma\": 32, \"mu\": 4, \"seed\": 1234,\n"
      << "  \"dropout_policy\": \"" << policy << "\",\n"
      << "  \"bgw_threshold\": 1, \"dp_delta\": 1e-5,\n"
      << "  \"receive_timeout_seconds\": 1.0,\n"
      << "  \"max_reconnect_attempts\": 2,\n"
      << "  \"reconnect_backoff_seconds\": 0.05\n"
      << "}\n";
  return out.str();
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return in ? buffer.str() : std::string();
}

/// Runs the coordinator for `policy` in `dir` with party 2 crashing at
/// Mul level 1 and returns party 0's report. Fails the test on any setup
/// error.
sqm::SqmReport RunCrashScenario(const std::string& dir,
                                const std::string& policy) {
  {
    std::ofstream config(dir + "/deploy.json", std::ios::trunc);
    config << DeployConfig(policy);
    EXPECT_TRUE(config.good());
  }

  const std::string command = std::string(SQM_COORDINATOR_BIN) +
                              " --config=" + dir + "/deploy.json" +
                              " --out-dir=" + dir +
                              " --crash-party=2 --crash-at-mul-level=1" +
                              " --timeout-seconds=90 > " + dir +
                              "/coordinator.log 2>&1";
  const int rc = std::system(command.c_str());
  EXPECT_TRUE(WIFEXITED(rc)) << "coordinator did not exit normally";
  EXPECT_EQ(WEXITSTATUS(rc), 0)
      << "coordinator failed; log:\n" << ReadFileOrEmpty(dir + "/coordinator.log");

  const std::string report_json = ReadFileOrEmpty(dir + "/party_0.json");
  EXPECT_FALSE(report_json.empty()) << "party 0 wrote no report";
  sqm::Result<sqm::SqmReport> report = sqm::SqmReportFromJson(report_json);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? report.ValueOrDie() : sqm::SqmReport();
}

TEST(DeployResilience, KillMidMulUnderDegradeReaccountsEpsilon) {
  const sqm::testing::ScratchDir scratch("deploy_degrade");
  const sqm::SqmReport report = RunCrashScenario(scratch.path(), "degrade");
  const sqm::DropoutReport& dropout = report.dropout;

  EXPECT_EQ(dropout.policy, sqm::DropoutPolicy::kDegrade);
  EXPECT_EQ(dropout.num_parties, 5u);
  EXPECT_EQ(dropout.num_dropped, 1u);
  ASSERT_EQ(dropout.survivors.size(), 4u);
  for (size_t survivor : dropout.survivors) {
    EXPECT_NE(survivor, 2u) << "the killed party cannot be a survivor";
  }

  // Party 2 dealt its Sk(mu/n) share in its input round, before the kill,
  // so the release carries the full Sk(4): the configured mu and epsilon,
  // charged as one Skellam spend.
  EXPECT_DOUBLE_EQ(dropout.configured_mu, 4.0);
  EXPECT_DOUBLE_EQ(dropout.realized_mu, 4.0);
  EXPECT_DOUBLE_EQ(dropout.realized_epsilon, dropout.configured_epsilon);
  EXPECT_GT(dropout.configured_epsilon, 0.0);
  ASSERT_EQ(report.ledger.size(), 1u);
  EXPECT_EQ(report.ledger[0].mechanism, "skellam");
  EXPECT_DOUBLE_EQ(report.ledger[0].mu, 4.0);
}

TEST(DeployResilience, RetiredTopupPolicyIsRefusedBeforeAnyFork) {
  const sqm::testing::ScratchDir scratch("deploy_retired");
  const std::string& dir = scratch.path();
  {
    std::ofstream config(dir + "/deploy.json", std::ios::trunc);
    config << DeployConfig("topup");
    ASSERT_TRUE(config.good());
  }
  const std::string command = std::string(SQM_COORDINATOR_BIN) +
                              " --config=" + dir + "/deploy.json" +
                              " --out-dir=" + dir + " > " + dir +
                              "/coordinator.log 2>&1";
  const int rc = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_NE(WEXITSTATUS(rc), 0);
  const std::string log = ReadFileOrEmpty(dir + "/coordinator.log");
  EXPECT_NE(log.find("abort"), std::string::npos) << log;
  EXPECT_NE(log.find("degrade"), std::string::npos) << log;
  // The resolved roster is written just before the first fork.
  EXPECT_TRUE(ReadFileOrEmpty(dir + "/deploy_resolved.json").empty());
  EXPECT_TRUE(ReadFileOrEmpty(dir + "/party_0.json").empty());
}

TEST(DeployResilience, MalformedNumericFlagPrintsUsageAndExitsTwo) {
  // Flag values must parse whole and fit their range: a malformed number
  // prints usage and exits 2 before any config is read (the config path
  // does not exist).
  const sqm::testing::ScratchDir scratch("deploy_flags");
  const std::string& dir = scratch.path();
  const std::string config = " --config=" + dir + "/missing.json";
  const std::string commands[] = {
      std::string(SQM_COORDINATOR_BIN) + config + " --timeout-seconds=soon",
      std::string(SQM_COORDINATOR_BIN) + config + " --crash-party=1x",
      std::string(SQM_PARTY_BIN) + config + " --party=abc",
      std::string(SQM_PARTY_BIN) + config + " --party=1x",
      // Out of range for the u32 restart generation: a narrowing cast
      // would wrap it to 0.
      std::string(SQM_PARTY_BIN) + config +
          " --party=0 --incarnation=4294967296",
  };
  for (const std::string& command : commands) {
    const std::string log = dir + "/flags.log";
    const int rc = std::system((command + " > " + log + " 2>&1").c_str());
    ASSERT_TRUE(WIFEXITED(rc)) << command;
    EXPECT_EQ(WEXITSTATUS(rc), 2) << command;
    EXPECT_NE(ReadFileOrEmpty(log).find("usage"), std::string::npos)
        << command;
  }
}

#else  // !SQM_DEPLOY_TEST_SUPPORTED

TEST(DeployResilience, SkippedWithoutForkExec) {
  GTEST_SKIP() << "multi-process deployment tests need POSIX fork/exec";
}

#endif

}  // namespace
