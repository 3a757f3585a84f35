// The per-party execution path (a BgwEngine hosting one PartyProtocol,
// RunPartySqm) must be a bit-exact mirror of the driver path (a BgwEngine
// hosting all n, SqmEvaluator): same seed, same config, same released
// values — down to the last bit — even though one runs n processes over
// TCP and the other runs single-threaded over the lockstep transport. These tests run the
// per-party side as three threads with real loopback sockets in one
// process, which keeps the suite hermetic while exercising the identical
// code the sqm-party daemon runs.

#include <functional>
#include <latch>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/party_sqm.h"
#include "core/sqm.h"
#include "mpc/bgw.h"
#include "net/liveness.h"
#include "net/lockstep.h"
#include "net/tcp/party_config.h"
#include "net/tcp/socket.h"
#include "loopback_mesh.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "poly/parser.h"
#include "testing/transcript.h"

namespace {

using sqm::net::TcpSupported;

sqm::DeploymentConfig BaseConfig(size_t n) {
  sqm::DeploymentConfig config;
  config.run_id = 17;
  config.session_key = 0xc0ffee;
  config.parties.assign(n, {"127.0.0.1", 0});
  config.rows = 8;
  config.cols = n;
  config.data_seed = 7;
  config.polynomial = "x0*x1; x1*x2";
  config.gamma = 64;
  config.seed = 42;
  config.dp_delta = 1e-5;
  config.receive_timeout_seconds = 1.0;
  config.connect_timeout_seconds = 10.0;
  return config;
}

/// Runs every party of `config` as a thread over a real loopback mesh and
/// returns the n reports (all asserted ok).
std::vector<sqm::SqmReport> RunNetworked(const sqm::DeploymentConfig& config) {
  std::vector<sqm::SqmReport> reports(config.parties.size());
  const std::vector<sqm::testing::LoopbackParty> parties =
      sqm::testing::RunOnLoopback(
          sqm::TcpOptionsFromDeployment(config, 0, -1),
          [&](size_t me, sqm::Transport* transport) -> sqm::Status {
            SQM_ASSIGN_OR_RETURN(reports[me],
                                 sqm::RunPartySqm(config, me, transport));
            return sqm::Status::OK();
          });
  for (size_t i = 0; i < parties.size(); ++i) {
    EXPECT_TRUE(parties[i].status.ok())
        << "party " << i << ": " << parties[i].status.ToString();
  }
  return reports;
}

/// The driver-side reference for the same config.
sqm::SqmReport RunLockstep(const sqm::DeploymentConfig& config) {
  sqm::Result<sqm::SqmOptions> options =
      sqm::SqmOptionsFromDeployment(config);
  EXPECT_TRUE(options.ok()) << options.status().ToString();
  const sqm::Matrix x = sqm::GenerateDeploymentMatrix(
      config.rows, sqm::DeploymentCols(config), config.data_seed);
  sqm::Result<sqm::PolynomialVector> f =
      sqm::ParsePolynomialVector(config.polynomial);
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  sqm::SqmEvaluator evaluator(options.ValueOrDie());
  sqm::Result<sqm::SqmReport> report =
      evaluator.Evaluate(f.ValueOrDie(), x);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? report.ValueOrDie() : sqm::SqmReport();
}

/// A config with the supervised-recovery knobs set to sensible values, as
/// the chaos suite deploys them. Serializing and re-parsing it is how the
/// coordinator actually hands configs to daemons, so the validation tests
/// below go through that exact path.
sqm::DeploymentConfig RecoveryConfig() {
  sqm::DeploymentConfig config = BaseConfig(3);
  config.max_restarts = 2;
  config.restart_backoff_seconds = 0.25;
  config.recovery_deadline_seconds = 20.0;
  return config;
}

TEST(DeploymentConfigJson, RecoveryAndChaosKnobsRoundTrip) {
  sqm::DeploymentConfig config = RecoveryConfig();
  config.chaos_seed = 777;
  config.chaos_phase = "mul";
  config.chaos_max_events = 3;
  config.chaos_reset_probability = 0.2;
  config.chaos_partial_write_probability = 0.15;
  config.chaos_stall_probability = 0.1;
  config.chaos_stall_seconds = 0.05;
  config.chaos_partition_peer = 3;
  config.chaos_partition_sends = 2;
  sqm::Result<sqm::DeploymentConfig> parsed =
      sqm::ParseDeploymentConfig(sqm::DeploymentConfigToJson(config));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const sqm::DeploymentConfig& got = parsed.ValueOrDie();
  EXPECT_EQ(got.max_restarts, 2u);
  EXPECT_EQ(got.restart_backoff_seconds, 0.25);
  EXPECT_EQ(got.recovery_deadline_seconds, 20.0);
  EXPECT_EQ(got.chaos_seed, 777u);
  EXPECT_EQ(got.chaos_phase, "mul");
  EXPECT_EQ(got.chaos_max_events, 3u);
  EXPECT_EQ(got.chaos_reset_probability, 0.2);
  EXPECT_EQ(got.chaos_partial_write_probability, 0.15);
  EXPECT_EQ(got.chaos_stall_probability, 0.1);
  EXPECT_EQ(got.chaos_stall_seconds, 0.05);
  EXPECT_EQ(got.chaos_partition_peer, 3u);
  EXPECT_EQ(got.chaos_partition_sends, 2u);
}

TEST(DeploymentConfigJson, SixtyFourBitIdsAndSeedsRoundTripExactly) {
  // Values above 2^53 have no exact double: the parser's integer path is
  // what keeps the session key and the seeds of a deployment intact.
  sqm::DeploymentConfig config = BaseConfig(3);
  config.run_id = (uint64_t{1} << 53) + 1;
  config.session_key = 0xfedcba9876543211ULL;
  config.seed = 0xffffffffffffffffULL;
  config.data_seed = 0x9e3779b97f4a7c15ULL;
  sqm::Result<sqm::DeploymentConfig> parsed =
      sqm::ParseDeploymentConfig(sqm::DeploymentConfigToJson(config));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const sqm::DeploymentConfig& got = parsed.ValueOrDie();
  EXPECT_EQ(got.run_id, config.run_id);
  EXPECT_EQ(got.session_key, config.session_key);
  EXPECT_EQ(got.seed, config.seed);
  EXPECT_EQ(got.data_seed, config.data_seed);
}

TEST(DeploymentConfigJson, NegativeMaxRestartsIsRejected) {
  std::string json = sqm::DeploymentConfigToJson(RecoveryConfig());
  const std::string key = "\"max_restarts\":2";
  const size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos) << json;
  json.replace(at, key.size(), "\"max_restarts\":-1");
  sqm::Result<sqm::DeploymentConfig> parsed =
      sqm::ParseDeploymentConfig(json);
  EXPECT_EQ(parsed.status().code(), sqm::StatusCode::kInvalidArgument)
      << parsed.status().ToString();
}

TEST(DeploymentConfigJson, RestartsWithoutRecoveryDeadlineIsRejected) {
  sqm::DeploymentConfig config = RecoveryConfig();
  config.recovery_deadline_seconds = 0.0;  // Restarts could never rejoin.
  sqm::Result<sqm::DeploymentConfig> parsed =
      sqm::ParseDeploymentConfig(sqm::DeploymentConfigToJson(config));
  EXPECT_EQ(parsed.status().code(), sqm::StatusCode::kInvalidArgument)
      << parsed.status().ToString();
}

TEST(DeploymentConfigJson, NegativeRecoveryKnobsAreRejected) {
  sqm::DeploymentConfig config = RecoveryConfig();
  config.restart_backoff_seconds = -0.5;
  sqm::Result<sqm::DeploymentConfig> parsed =
      sqm::ParseDeploymentConfig(sqm::DeploymentConfigToJson(config));
  EXPECT_EQ(parsed.status().code(), sqm::StatusCode::kInvalidArgument)
      << parsed.status().ToString();

  config = RecoveryConfig();
  config.max_restarts = 0;
  config.recovery_deadline_seconds = -1.0;
  parsed = sqm::ParseDeploymentConfig(sqm::DeploymentConfigToJson(config));
  EXPECT_EQ(parsed.status().code(), sqm::StatusCode::kInvalidArgument)
      << parsed.status().ToString();
}

TEST(DeploymentConfigJson, ChaosProbabilityOutOfRangeIsRejected) {
  sqm::DeploymentConfig config = RecoveryConfig();
  config.chaos_reset_probability = 1.5;
  sqm::Result<sqm::DeploymentConfig> parsed =
      sqm::ParseDeploymentConfig(sqm::DeploymentConfigToJson(config));
  EXPECT_EQ(parsed.status().code(), sqm::StatusCode::kInvalidArgument)
      << parsed.status().ToString();

  config = RecoveryConfig();
  config.chaos_stall_probability = -0.1;
  parsed = sqm::ParseDeploymentConfig(sqm::DeploymentConfigToJson(config));
  EXPECT_EQ(parsed.status().code(), sqm::StatusCode::kInvalidArgument)
      << parsed.status().ToString();
}

TEST(DeploymentConfigJson, NegativeChaosStallSecondsIsRejected) {
  sqm::DeploymentConfig config = RecoveryConfig();
  config.chaos_stall_seconds = -0.05;
  sqm::Result<sqm::DeploymentConfig> parsed =
      sqm::ParseDeploymentConfig(sqm::DeploymentConfigToJson(config));
  EXPECT_EQ(parsed.status().code(), sqm::StatusCode::kInvalidArgument)
      << parsed.status().ToString();
}

TEST(DeploymentConfigJson, RetiredTopupPolicyIsRejected) {
  std::string json = sqm::DeploymentConfigToJson(RecoveryConfig());
  const std::string key = "\"dropout_policy\":\"abort\"";
  const size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos) << json;
  json.replace(at, key.size(), "\"dropout_policy\":\"topup\"");
  sqm::Result<sqm::DeploymentConfig> parsed =
      sqm::ParseDeploymentConfig(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // The policy name is checked where options are built, which every party
  // and the coordinator do before any traffic.
  const sqm::Result<sqm::SqmOptions> options =
      sqm::SqmOptionsFromDeployment(parsed.ValueOrDie());
  EXPECT_EQ(options.status().code(), sqm::StatusCode::kInvalidArgument);
  EXPECT_NE(options.status().message().find("abort"), std::string::npos)
      << options.status().ToString();
  EXPECT_NE(options.status().message().find("degrade"), std::string::npos)
      << options.status().ToString();
}

TEST(PartyProtocol, FullQuorumFailurePrintsCensusMasksInHex) {
  if (!TcpSupported()) GTEST_SKIP() << "no POSIX sockets on this platform";
  // Five parties on a loopback mesh in recovery mode, each with its own
  // tracker. Parties 0-3 multiply two public constants (no input rounds);
  // party 4 stays connected and silent until they return, never dealing
  // or voting. Its missing batch times out without killing it (recovery
  // mode), so every multiplier's census agrees on dealers 0-3 against
  // five alive parties.
  constexpr size_t kParties = 5;
  std::latch multipliers_done(kParties - 1);
  std::vector<sqm::Status> results(kParties);
  const std::vector<sqm::testing::LoopbackParty> parties =
      sqm::testing::RunOnLoopback(
          sqm::testing::LoopbackOptions(kParties, 0.5),
          [&](size_t me, sqm::Transport* transport) -> sqm::Status {
            if (me == 4) {
              multipliers_done.wait();
              return sqm::Status::OK();
            }
            sqm::LivenessTracker tracker(kParties);
            sqm::BgwEngine engine(sqm::ShamirScheme(kParties, 2), transport,
                                  99, me);
            engine.set_liveness(&tracker);
            engine.set_recovery_mode(true);
            sqm::Circuit circuit;
            circuit.MarkOutput(circuit.AddMul(circuit.AddConstant(1),
                                              circuit.AddConstant(3)));
            results[me] = engine.EvaluateToShares(circuit, {{}}).status();
            multipliers_done.count_down();
            return sqm::Status::OK();
          });
  for (size_t me = 0; me < kParties; ++me) {
    ASSERT_TRUE(parties[me].status.ok()) << parties[me].status.ToString();
  }
  for (size_t me = 0; me < 4; ++me) {
    EXPECT_EQ(results[me].code(), sqm::StatusCode::kUnavailable)
        << results[me].ToString();
    EXPECT_NE(results[me].message().find("agreed 0xf "), std::string::npos)
        << results[me].message();
    EXPECT_NE(results[me].message().find("expected 0x1f,"), std::string::npos)
        << results[me].message();
  }
}

TEST(PartyProtocol, NoiselessTcpRunMatchesLockstepBitForBit) {
  if (!TcpSupported()) GTEST_SKIP() << "no POSIX sockets on this platform";
  const sqm::DeploymentConfig config = BaseConfig(3);
  const std::vector<sqm::SqmReport> reports = RunNetworked(config);
  ASSERT_EQ(reports.size(), 3u);
  // Every party releases the same values...
  for (size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].raw, reports[0].raw) << "party " << i << " differs";
  }
  // ...and they are the driver's values, bit for bit.
  const sqm::SqmReport reference = RunLockstep(config);
  ASSERT_FALSE(reference.raw.empty());
  EXPECT_EQ(reports[0].raw, reference.raw);
}

TEST(PartyProtocol, NoisyQuantizedRunMatchesLockstepBitForBit) {
  if (!TcpSupported()) GTEST_SKIP() << "no POSIX sockets on this platform";
  sqm::DeploymentConfig config = BaseConfig(3);
  config.run_id = 18;
  config.mu = 4.0;
  config.quantize_coefficients = true;
  config.polynomial = "x0*x1 + x2; x2*x2";
  const std::vector<sqm::SqmReport> reports = RunNetworked(config);
  ASSERT_EQ(reports.size(), 3u);
  for (size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].raw, reports[0].raw) << "party " << i << " differs";
  }
  const sqm::SqmReport reference = RunLockstep(config);
  ASSERT_FALSE(reference.raw.empty());
  EXPECT_EQ(reports[0].raw, reference.raw);
  // The DP ledger is recomputed from public inputs on both sides; it must
  // agree exactly as well.
  EXPECT_EQ(reports[0].dropout.realized_mu, reference.dropout.realized_mu);
  EXPECT_EQ(reports[0].dropout.realized_epsilon,
            reference.dropout.realized_epsilon);
}

TEST(PartyProtocol, FourPartiesWithThresholdOne) {
  if (!TcpSupported()) GTEST_SKIP() << "no POSIX sockets on this platform";
  sqm::DeploymentConfig config = BaseConfig(4);
  config.run_id = 19;
  config.bgw_threshold = 1;
  config.mu = 2.0;
  config.dropout_policy = "degrade";
  config.polynomial = "x0*x1; x2*x3";
  const std::vector<sqm::SqmReport> reports = RunNetworked(config);
  ASSERT_EQ(reports.size(), 4u);
  for (size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].raw, reports[0].raw) << "party " << i << " differs";
  }
  const sqm::SqmReport reference = RunLockstep(config);
  EXPECT_EQ(reports[0].raw, reference.raw);
  // Nothing dropped: full noise, full quorum.
  EXPECT_EQ(reports[0].dropout.num_dropped, 0u);
}

/// Both modes build one SqmPlan, so they reject the same configs with the
/// same StatusCode — before any traffic.
TEST(SqmPlanParity, DriverAndPartyRejectTheSameConfigs) {
  struct Case {
    const char* name;
    std::function<void(sqm::DeploymentConfig*)> mutate;
    sqm::StatusCode expected;
  };
  const std::vector<Case> cases = {
      {"rows = 0", [](sqm::DeploymentConfig* c) { c->rows = 0; },
       sqm::StatusCode::kInvalidArgument},
      // Deployment text cannot spell a zero-output polynomial: the parser
      // rejects it, and the driver gets the empty PolynomialVector.
      {"no outputs", [](sqm::DeploymentConfig* c) { c->polynomial = ""; },
       sqm::StatusCode::kInvalidArgument},
      {"arity > cols",
       [](sqm::DeploymentConfig* c) { c->polynomial = "x0*x5"; },
       sqm::StatusCode::kInvalidArgument},
      {"clients > cols",
       [](sqm::DeploymentConfig* c) {
         c->parties.assign(4, {"127.0.0.1", 0});
       },
       sqm::StatusCode::kInvalidArgument},
      {"< 3 clients",
       [](sqm::DeploymentConfig* c) {
         c->parties.assign(2, {"127.0.0.1", 0});
         c->cols = 2;
         c->polynomial = "x0*x1";
       },
       sqm::StatusCode::kInvalidArgument},
      {"gamma < 1", [](sqm::DeploymentConfig* c) { c->gamma = 0.5; },
       sqm::StatusCode::kInvalidArgument},
      {"mu < 0", [](sqm::DeploymentConfig* c) { c->mu = -1.0; },
       sqm::StatusCode::kInvalidArgument},
      {"non-integer coefficient",
       [](sqm::DeploymentConfig* c) {
         c->quantize_coefficients = false;
         c->polynomial = "0.5*x0*x1; x1*x2";
       },
       sqm::StatusCode::kInvalidArgument},
      {"capacity overflow", [](sqm::DeploymentConfig* c) { c->gamma = 1e9; },
       sqm::StatusCode::kOutOfRange},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    sqm::DeploymentConfig config = BaseConfig(3);
    c.mutate(&config);

    const sqm::Result<sqm::SqmOptions> options =
        sqm::SqmOptionsFromDeployment(config);
    ASSERT_TRUE(options.ok()) << options.status().ToString();
    ASSERT_EQ(options.ValueOrDie().backend, sqm::MpcBackend::kBgw);
    const sqm::Matrix x = sqm::GenerateDeploymentMatrix(
        config.rows, sqm::DeploymentCols(config), config.data_seed);
    sqm::Result<sqm::PolynomialVector> f =
        sqm::ParsePolynomialVector(config.polynomial);
    const sqm::PolynomialVector polynomial =
        f.ok() ? f.ValueOrDie() : sqm::PolynomialVector();
    const sqm::Status driver =
        sqm::SqmEvaluator(options.ValueOrDie()).Evaluate(polynomial, x).status();

    sqm::LockstepTransport transport(config.parties.size(), 0.0, 8);
    const sqm::Status party =
        sqm::RunPartySqm(config, 0, &transport).status();
    EXPECT_EQ(driver.code(), c.expected) << driver.ToString();
    EXPECT_EQ(party.code(), c.expected) << party.ToString();
    EXPECT_EQ(transport.stats().messages, 0u) << "rejected after traffic";
  }
}

/// The field-capacity guard has no off switch. A config written while it
/// had one may still carry `"check_capacity": false`; the parser skips the
/// key, so a gamma that could wrap the field is refused in both modes
/// before any traffic.
TEST(SqmPlanParity, RetiredCapacitySwitchCannotTurnTheGuardOff) {
  sqm::DeploymentConfig base = BaseConfig(3);
  base.gamma = 1e9;
  const std::string json = sqm::DeploymentConfigToJson(base);
  ASSERT_EQ(json.front(), '{') << json;
  const sqm::Result<sqm::DeploymentConfig> parsed =
      sqm::ParseDeploymentConfig("{\"check_capacity\":false," +
                                 json.substr(1));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const sqm::DeploymentConfig& config = parsed.ValueOrDie();

  sqm::Result<sqm::SqmOptions> options =
      sqm::SqmOptionsFromDeployment(config);
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  sqm::testing::TranscriptRecorder recorder;
  options.ValueOrDie().interceptor = &recorder;
  const sqm::Matrix x = sqm::GenerateDeploymentMatrix(
      config.rows, sqm::DeploymentCols(config), config.data_seed);
  const sqm::PolynomialVector f =
      sqm::ParsePolynomialVector(config.polynomial).ValueOrDie();
  const sqm::Status driver =
      sqm::SqmEvaluator(options.ValueOrDie()).Evaluate(f, x).status();
  EXPECT_EQ(driver.code(), sqm::StatusCode::kOutOfRange) << driver.ToString();
  EXPECT_EQ(recorder.size(), 0u) << "driver rejected after traffic";

  sqm::LockstepTransport transport(config.parties.size(), 0.0, 8);
  const sqm::Status party = sqm::RunPartySqm(config, 0, &transport).status();
  EXPECT_EQ(party.code(), sqm::StatusCode::kOutOfRange) << party.ToString();
  EXPECT_EQ(transport.stats().messages, 0u) << "party rejected after traffic";
}

/// Census votes are one 64-bit dealer mask, so tracked (degrade) runs are
/// refused above 64 clients before any traffic; abort runs run no census
/// and take any client count.
TEST(SqmPlanParity, CensusLimitRefusesOnlyTrackedRunsAbove64Clients) {
  constexpr size_t kClients = 65;
  sqm::DeploymentConfig config = BaseConfig(kClients);
  config.rows = 2;
  config.polynomial = "x0*x1; x63*x64";
  const sqm::Matrix x = sqm::GenerateDeploymentMatrix(
      config.rows, sqm::DeploymentCols(config), config.data_seed);
  const sqm::PolynomialVector f =
      sqm::ParsePolynomialVector(config.polynomial).ValueOrDie();

  sqm::SqmOptions options = sqm::SqmOptionsFromDeployment(config).ValueOrDie();
  const sqm::Result<sqm::SqmReport> abort_run =
      sqm::SqmEvaluator(options).Evaluate(f, x);
  ASSERT_TRUE(abort_run.ok()) << abort_run.status().ToString();
  sqm::SqmOptions plaintext = options;
  plaintext.backend = sqm::MpcBackend::kPlaintext;
  EXPECT_EQ(abort_run.ValueOrDie().raw,
            sqm::SqmEvaluator(plaintext).Evaluate(f, x).ValueOrDie().raw);

  config.dropout_policy = "degrade";
  options = sqm::SqmOptionsFromDeployment(config).ValueOrDie();
  const sqm::Status driver = sqm::SqmEvaluator(options).Evaluate(f, x).status();
  EXPECT_EQ(driver.code(), sqm::StatusCode::kInvalidArgument)
      << driver.ToString();
  EXPECT_NE(driver.message().find("at most 64 clients"), std::string::npos)
      << driver.ToString();
  sqm::LockstepTransport transport(kClients, 0.0, 8);
  const sqm::Status party = sqm::RunPartySqm(config, 0, &transport).status();
  EXPECT_EQ(party.code(), sqm::StatusCode::kInvalidArgument)
      << party.ToString();
  EXPECT_EQ(transport.stats().messages, 0u) << "rejected after traffic";
}

/// noise_injection_seconds is the sampling time plus the time spent
/// dealing the noise inputs inside the real input round — measured with
/// steady_clock, so it is there with observability off too.
TEST(PartyProtocol, NoiseInjectionTimesTheRealNoiseDealingWithObsOff) {
  if (!TcpSupported()) GTEST_SKIP() << "no POSIX sockets on this platform";
  sqm::obs::SetEnabled(false);
  sqm::DeploymentConfig config = BaseConfig(3);
  config.run_id = 23;
  config.mu = 30.0;
  const sqm::SqmReport driver = RunLockstep(config);
  const std::vector<sqm::SqmReport> reports = RunNetworked(config);
  sqm::obs::SetEnabled(true);
  EXPECT_GT(driver.timing.noise_injection_seconds,
            driver.timing.noise_sampling_seconds);
  for (const sqm::SqmReport& report : reports) {
    EXPECT_GT(report.timing.noise_injection_seconds,
              report.timing.noise_sampling_seconds);
  }
}

/// In a traced run every party track carries its noise dealing as a
/// bgw.share.noise span nested inside its bgw.share, in driver and party
/// mode alike, and nothing re-shares the noise afterwards.
TEST(PartyProtocol, NoiseDealingSpanNestsInsideShareOnEveryPartyTrack) {
  if (!TcpSupported()) GTEST_SKIP() << "no POSIX sockets on this platform";
  sqm::obs::SetEnabled(true);
  if (!sqm::obs::Enabled()) GTEST_SKIP() << "observability compiled out";
  sqm::DeploymentConfig config = BaseConfig(3);
  config.run_id = 29;
  config.mu = 30.0;
  const auto check_trace = [&](const char* mode) {
    SCOPED_TRACE(mode);
    const std::vector<sqm::obs::TraceEvent> events =
        sqm::obs::Tracer::Global().Collect();
    for (size_t j = 0; j < config.parties.size(); ++j) {
      const auto track = static_cast<int32_t>(j);
      bool nested = false;
      for (const sqm::obs::TraceEvent& deal : events) {
        if (std::string(deal.name) != "bgw.share.noise" ||
            deal.track != track) {
          continue;
        }
        for (const sqm::obs::TraceEvent& share : events) {
          nested = nested ||
                   (std::string(share.name) == "bgw.share" &&
                    share.track == track && share.ts_micros <= deal.ts_micros &&
                    deal.ts_micros + deal.dur_micros <=
                        share.ts_micros + share.dur_micros);
        }
      }
      EXPECT_TRUE(nested) << "no nested noise dealing on party " << j;
    }
    for (const sqm::obs::TraceEvent& event : events) {
      EXPECT_NE(std::string(event.name), "sqm.noise_probe");
    }
  };
  sqm::obs::Tracer::Global().Clear();
  RunLockstep(config);
  check_trace("driver");
  sqm::obs::Tracer::Global().Clear();
  RunNetworked(config);
  check_trace("party");
}

}  // namespace
