// Differential-equivalence harness for the batched hot path: every batched
// kernel (Field *Vec, Shamir ShareBatch/ReconstructBatch) must be
// bit-identical to the element-at-a-time reference it replaced, and one
// release must come out bit-identical across both transports (lockstep
// and TCP) and both dropout paths under identical seeds.
// These are not statistical comparisons — a single differing bit anywhere
// is a failure, because every recorded transcript, golden pin, and
// published experiment depends on exact reproducibility.
//
// docs/TESTING.md "Differential equivalence" describes the tier; the
// companion pins live in golden_stream_test.cc.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/party_sqm.h"
#include "core/sqm.h"
#include "core/sqm_plan.h"
#include "mpc/bgw.h"
#include "mpc/field.h"
#include "mpc/shamir.h"
#include "net/liveness.h"
#include "net/lockstep.h"
#include "net/tcp/party_config.h"
#include "net/tcp/socket.h"
#include "loopback_mesh.h"
#include "poly/parser.h"
#include "sampling/rng.h"

namespace {

using sqm::Field;
using sqm::Rng;
using sqm::ShamirScheme;
using sqm::net::TcpSupported;

// Adversarial operands for the branchless kernels: the canonical boundary
// (0, 1, p-2, p-1), values straddling the conditional-subtract edge, and a
// seeded random fill. The scalar ops are the ground truth.
std::vector<Field::Element> AdversarialOperands(uint64_t seed) {
  std::vector<Field::Element> v = {
      0,
      1,
      2,
      Field::kModulus - 1,
      Field::kModulus - 2,
      (Field::kModulus - 1) / 2,
      (Field::kModulus + 1) / 2,
      uint64_t{1} << 60,
      (uint64_t{1} << 60) - 1,
  };
  Rng rng(seed);
  for (size_t i = 0; i < 64; ++i) v.push_back(rng.NextBounded(Field::kModulus));
  return v;
}

TEST(FieldVecEquivalence, AddSubMulScaleMatchScalarBitForBit) {
  const std::vector<Field::Element> a = AdversarialOperands(101);
  const std::vector<Field::Element> b = AdversarialOperands(202);
  const size_t n = a.size();
  std::vector<Field::Element> got(n);

  Field::AddVec(a.data(), b.data(), got.data(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i], Field::Add(a[i], b[i])) << "AddVec at " << i;
  }
  Field::SubVec(a.data(), b.data(), got.data(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i], Field::Sub(a[i], b[i])) << "SubVec at " << i;
  }
  Field::MulVec(a.data(), b.data(), got.data(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i], Field::Mul(a[i], b[i])) << "MulVec at " << i;
  }
  const Field::Element c = Field::kModulus - 3;
  Field::ScaleVec(a.data(), c, got.data(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i], Field::Mul(a[i], c)) << "ScaleVec at " << i;
  }
}

// Scalar ground truth for Field::LinearCombination: a Field::Add /
// Field::Mul chain reduced after every term.
std::vector<Field::Element> ScalarLinearCombination(
    const std::vector<std::vector<Field::Element>>& rows,
    const std::vector<Field::Element>& weights, size_t n) {
  std::vector<Field::Element> out(n, 0);
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = Field::Add(out[i], Field::Mul(weights[r], rows[r][i]));
    }
  }
  return out;
}

std::vector<const Field::Element*> RowPointers(
    const std::vector<std::vector<Field::Element>>& rows) {
  std::vector<const Field::Element*> pointers;
  for (const std::vector<Field::Element>& row : rows) {
    pointers.push_back(row.data());
  }
  return pointers;
}

TEST(FieldVecEquivalence, LinearCombinationMatchesScalarAccumulation) {
  // Row counts straddle the kernel's 64-term fold boundary.
  const size_t n = AdversarialOperands(0).size();
  for (const size_t num_rows : {0, 1, 3, 5, 64, 65, 200}) {
    std::vector<std::vector<Field::Element>> rows;
    for (size_t r = 0; r < num_rows; ++r) {
      rows.push_back(AdversarialOperands(303 + r));
    }
    std::vector<Field::Element> weights = AdversarialOperands(404);
    while (weights.size() < num_rows) weights.push_back(weights.size() * 7919);
    std::vector<Field::Element> got(n, 12345);
    const std::vector<const Field::Element*> pointers = RowPointers(rows);
    Field::LinearCombination(pointers.data(), weights.data(), num_rows,
                             got.data(), n);
    EXPECT_EQ(got, ScalarLinearCombination(rows, weights, n))
        << num_rows << " rows";
  }
}

TEST(FieldVecEquivalence, LinearCombinationWorstCaseOperands) {
  // Every element and weight at p-1 maximizes each unreduced product, so
  // 200 rows overflow 128 bits unless the accumulator folds in time.
  const size_t n = 17;
  for (const size_t num_rows : {1, 64, 65, 200}) {
    const std::vector<std::vector<Field::Element>> rows(
        num_rows, std::vector<Field::Element>(n, Field::kModulus - 1));
    const std::vector<Field::Element> weights(num_rows, Field::kModulus - 1);
    std::vector<Field::Element> got(n);
    const std::vector<const Field::Element*> pointers = RowPointers(rows);
    Field::LinearCombination(pointers.data(), weights.data(), num_rows,
                             got.data(), n);
    // (p-1)^2 == 1 (mod p): the sum is num_rows.
    EXPECT_EQ(got, std::vector<Field::Element>(n, num_rows))
        << num_rows << " rows";
    EXPECT_EQ(got, ScalarLinearCombination(rows, weights, n));
  }
}

TEST(FieldVecEquivalence, LinearCombinationOutputMayAliasFirstRow) {
  std::vector<std::vector<Field::Element>> rows;
  for (uint64_t seed : {505, 606, 707}) {
    rows.push_back(AdversarialOperands(seed));
  }
  const std::vector<Field::Element> weights = {Field::kModulus - 1, 3,
                                               (Field::kModulus - 1) / 3};
  const size_t n = rows[0].size();
  const std::vector<Field::Element> expected =
      ScalarLinearCombination(rows, weights, n);
  const std::vector<const Field::Element*> pointers = RowPointers(rows);
  Field::LinearCombination(pointers.data(), weights.data(), rows.size(),
                           rows[0].data(), n);
  EXPECT_EQ(rows[0], expected);
}

TEST(FieldVecEquivalence, ReduceVecMatchesScalarReduceAboveModulus) {
  // Raw 64-bit inputs deliberately above p (the lazy-reduction range),
  // including the top of the uint64 range and exact multiples of p.
  std::vector<uint64_t> raw = {
      0,
      Field::kModulus,
      Field::kModulus + 1,
      2 * Field::kModulus,
      2 * Field::kModulus + 5,
      ~uint64_t{0},
      ~uint64_t{0} - 1,
      uint64_t{1} << 61,
      (uint64_t{1} << 62) | 12345,
  };
  Rng rng(505);
  for (size_t i = 0; i < 64; ++i) raw.push_back(rng.NextUint64());
  std::vector<Field::Element> got(raw.size());
  Field::ReduceVec(raw.data(), got.data(), raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(got[i], Field::Reduce(raw[i])) << "ReduceVec at " << i;
    EXPECT_LT(got[i], Field::kModulus);
  }
}

TEST(FieldVecEquivalence, SumVecMatchesScalarFold) {
  const std::vector<Field::Element> v = AdversarialOperands(606);
  Field::Element ref = 0;
  for (const Field::Element e : v) ref = Field::Add(ref, e);
  EXPECT_EQ(Field::SumVec(v.data(), v.size()), ref);
  EXPECT_EQ(Field::SumVec(v.data(), 0), 0u);
}

// ShareBatch must draw randomness in exactly the order d scalar Share
// calls would, produce the identical share matrix, and leave the RNG at
// the identical cursor — this is what lets the protocol swap one for the
// other without invalidating any recorded transcript.
TEST(ShamirBatchEquivalence, ShareBatchMatchesScalarShareStream) {
  const ShamirScheme scheme(5, 2);
  const std::vector<Field::Element> secrets = {
      Field::Encode(42),  Field::Encode(-7), 0, Field::kModulus - 1,
      Field::Encode(123),
  };
  Rng scalar_rng(2024);
  Rng batch_rng(2024);

  std::vector<std::vector<Field::Element>> expected(
      scheme.num_parties(), std::vector<Field::Element>(secrets.size()));
  for (size_t i = 0; i < secrets.size(); ++i) {
    const std::vector<Field::Element> shares =
        scheme.Share(secrets[i], scalar_rng);
    for (size_t j = 0; j < scheme.num_parties(); ++j) {
      expected[j][i] = shares[j];
    }
  }
  const std::vector<std::vector<Field::Element>> got =
      scheme.ShareBatch(secrets, batch_rng);
  EXPECT_EQ(got, expected);
  // Cursor equality: the next draws from both streams must agree.
  EXPECT_EQ(batch_rng.NextUint64(), scalar_rng.NextUint64());
  EXPECT_EQ(batch_rng.NextUint64(), scalar_rng.NextUint64());
}

TEST(ShamirBatchEquivalence, ReconstructBatchMatchesScalar) {
  const ShamirScheme scheme(7, 3);
  Rng rng(99);
  const std::vector<Field::Element> secrets = {
      Field::Encode(1), Field::Encode(-1000), Field::kModulus - 1, 0,
  };
  const std::vector<std::vector<Field::Element>> rows =
      scheme.ShareBatch(secrets, rng);
  const std::vector<Field::Element> opened = scheme.ReconstructBatch(rows);
  ASSERT_EQ(opened.size(), secrets.size());
  std::vector<Field::Element> column(scheme.num_parties());
  for (size_t i = 0; i < secrets.size(); ++i) {
    for (size_t j = 0; j < scheme.num_parties(); ++j) column[j] = rows[j][i];
    EXPECT_EQ(opened[i], scheme.Reconstruct(column)) << "element " << i;
    EXPECT_EQ(opened[i], secrets[i]) << "element " << i;
  }
}

TEST(ShamirBatchEquivalence, ReconstructBatchFromSurvivorsMatchesScalar) {
  const ShamirScheme scheme(5, 2);
  Rng rng(4242);
  const std::vector<Field::Element> secrets = {
      Field::Encode(5), Field::Encode(-5), Field::Encode(1 << 20),
  };
  std::vector<std::vector<Field::Element>> rows =
      scheme.ShareBatch(secrets, rng);
  // Parties 1 and 3 dropped: their rows are stale/empty.
  const std::vector<size_t> survivors = {0, 2, 4};
  rows[1].clear();
  rows[3].assign(1, 777);  // Wrong length too — must never be touched.
  const sqm::Result<std::vector<Field::Element>> batch =
      scheme.ReconstructBatchFromSurvivors(rows, survivors,
                                           scheme.threshold());
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  std::vector<Field::Element> column(scheme.num_parties(), 0);
  for (size_t i = 0; i < secrets.size(); ++i) {
    for (const size_t j : survivors) column[j] = rows[j][i];
    const sqm::Result<Field::Element> scalar =
        scheme.ReconstructFromSurvivors(column, survivors,
                                        scheme.threshold());
    ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
    EXPECT_EQ(batch.ValueOrDie()[i], scalar.ValueOrDie()) << "element " << i;
    EXPECT_EQ(batch.ValueOrDie()[i], secrets[i]) << "element " << i;
  }
}

TEST(ShamirBatchEquivalence, SurvivorShortfallFailsLikeScalar) {
  const ShamirScheme scheme(5, 2);
  Rng rng(7);
  const std::vector<std::vector<Field::Element>> rows =
      scheme.ShareBatch({Field::Encode(9)}, rng);
  const std::vector<size_t> survivors = {0, 4};  // Need t+1 = 3.
  const sqm::Result<std::vector<Field::Element>> batch =
      scheme.ReconstructBatchFromSurvivors(rows, survivors,
                                           scheme.threshold());
  EXPECT_EQ(batch.status().code(), sqm::StatusCode::kFailedPrecondition)
      << batch.status().ToString();
}

// ---------------------------------------------------------------------------
// One release across execution modes. The MPC is exact — the release is a
// deterministic function of the quantized inputs and the externally
// sampled noise — so neither the transport, the dropout path nor the
// process layout may move a single bit of it.

constexpr char kPolynomial[] = "x0*x1 + x2; x2*x2";

sqm::SqmOptions DriverOptions() {
  sqm::SqmOptions options;
  options.backend = sqm::MpcBackend::kBgw;
  options.gamma = 64.0;
  options.mu = 4.0;
  options.seed = 42;
  return options;
}

sqm::Result<sqm::SqmReport> RunDriver(const sqm::SqmOptions& options) {
  sqm::Result<sqm::PolynomialVector> f =
      sqm::ParsePolynomialVector(kPolynomial);
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  const sqm::Matrix x = sqm::GenerateDeploymentMatrix(8, 3, 7);
  sqm::SqmEvaluator evaluator(options);
  return evaluator.Evaluate(f.ValueOrDie(), x);
}

TEST(ExecutionModeEquivalence, QuorumPathReleaseEqualsAbort) {
  // Degrade policy with no crashes: the quorum machinery runs but every
  // party survives, so the release must equal the kAbort run bit for bit.
  sqm::SqmOptions degrade_options = DriverOptions();
  degrade_options.dropout_policy = sqm::DropoutPolicy::kDegrade;
  const sqm::Result<sqm::SqmReport> degrade = RunDriver(degrade_options);
  ASSERT_TRUE(degrade.ok()) << degrade.status().ToString();
  const sqm::Result<sqm::SqmReport> abort_run =
      RunDriver(DriverOptions());
  ASSERT_TRUE(abort_run.ok()) << abort_run.status().ToString();
  EXPECT_EQ(degrade.ValueOrDie().raw, abort_run.ValueOrDie().raw);
}

// ---------------------------------------------------------------------------
// Real loopback TCP: every party its own thread with real sockets, exactly
// as the sqm-party daemon runs (tests/loopback_mesh.h).

sqm::DeploymentConfig TcpConfig(uint64_t run_id) {
  sqm::DeploymentConfig config;
  config.run_id = run_id;
  config.session_key = 0xbea7e5;
  config.parties.assign(3, {"127.0.0.1", 0});
  config.rows = 8;
  config.cols = 3;
  config.data_seed = 7;
  config.polynomial = kPolynomial;
  config.gamma = 64;
  config.mu = 4.0;
  config.seed = 42;
  config.receive_timeout_seconds = 1.0;
  config.connect_timeout_seconds = 10.0;
  return config;
}

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

TEST(ExecutionModeEquivalence, TcpReleasesMatchDriverBitForBit) {
  if (!TcpSupported()) GTEST_SKIP() << "no POSIX sockets on this platform";
  const sqm::Result<sqm::SqmReport> reference =
      RunDriver(DriverOptions());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  const std::vector<sqm::SqmReport> parties = RunNetworked(TcpConfig(31));
  ASSERT_EQ(parties.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(parties[i].raw, reference.ValueOrDie().raw)
        << "party " << i << " differs from driver";
  }
}

TEST(ExecutionModeEquivalence, LeftoverRetiredKeysLeaveTheConfigAlone) {
  // Configs written while the multiplication backend was selectable, while
  // the telemetry stream shipped periodic snapshots, or while the capacity
  // guard could be switched off may still carry those keys. Whatever they
  // hold, the parser skips them, so the parties run exactly the config
  // TcpReleasesMatchDriverBitForBit runs.
  const std::string json = sqm::DeploymentConfigToJson(TcpConfig(31));
  ASSERT_EQ(json.front(), '{') << json;
  sqm::Result<sqm::DeploymentConfig> parsed = sqm::ParseDeploymentConfig(
      "{\"mul_backend\":\"preprocessed\","
      "\"telemetry_snapshot_interval_seconds\":0.05,"
      "\"check_capacity\":false," +
      json.substr(1));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(sqm::DeploymentConfigToJson(parsed.ValueOrDie()), json);
}

TEST(ExecutionModeEquivalence, QuorumCensusCostsOneRoundPerMulLevelOnTcp) {
  if (!TcpSupported()) GTEST_SKIP() << "no POSIX sockets on this platform";
  // On the quorum path every Mul level adds one census round to the
  // sub-share round; nothing else about the run changes.
  sqm::Result<sqm::PolynomialVector> f =
      sqm::ParsePolynomialVector(kPolynomial);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  sqm::Result<sqm::SqmPlan> plan = sqm::SqmPlan::Create(
      f.ValueOrDie(), DriverOptions(), 8, 3);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const size_t mul_levels =
      plan.ValueOrDie().BuildCircuit().MultiplicativeDepth();
  ASSERT_GT(mul_levels, 0u);

  const std::vector<sqm::SqmReport> abort_run = RunNetworked(TcpConfig(33));
  ASSERT_EQ(abort_run.size(), 3u);
  sqm::DeploymentConfig degrade_config = TcpConfig(34);
  degrade_config.dropout_policy = "degrade";
  const std::vector<sqm::SqmReport> degrade = RunNetworked(degrade_config);
  ASSERT_EQ(degrade.size(), 3u);

  EXPECT_EQ(degrade[0].raw, abort_run[0].raw);
  EXPECT_EQ(degrade[0].transport.totals.rounds,
            abort_run[0].transport.totals.rounds + mul_levels);
  bool census = false;
  for (const auto& phase : degrade[0].transport.phases) {
    if (phase.phase == "census") {
      census = true;
      EXPECT_EQ(phase.traffic.rounds, mul_levels);
    }
  }
  EXPECT_TRUE(census) << "degrade run did not record a census phase";
}

// ---------------------------------------------------------------------------
// Driver vs per-party evaluation of one circuit: a BgwEngine hosting all n
// parties (rows = n, one thread) against n BgwEngines hosting one party
// each (rows = 1, one thread each) must open the same values and put the
// same traffic on the wire, census included.

constexpr size_t kLoopParties = 5;
constexpr size_t kLoopThreshold = 2;
constexpr uint64_t kLoopSeed = 2024;

// Depth 3, one input per party; every level holds a constant, a Sub, a
// MulConst and an Add feeding that level's products (and, at the top, the
// outputs).
sqm::Circuit LevelLoopCircuit() {
  sqm::Circuit c;
  std::vector<sqm::Circuit::WireId> inputs;
  for (size_t j = 0; j < kLoopParties; ++j) inputs.push_back(c.AddInput(j));
  std::vector<sqm::Circuit::WireId> wires = inputs;
  for (size_t level = 0; level <= 3; ++level) {
    const sqm::Circuit::WireId k = c.AddConstant(Field::Encode(level + 1));
    std::vector<sqm::Circuit::WireId> local;
    for (size_t i = 0; i < kLoopParties; ++i) {
      const sqm::Circuit::WireId scaled =
          c.AddMulConst(c.AddSub(wires[i], k), Field::Encode(-2));
      local.push_back(c.AddAdd(scaled, inputs[i]));
    }
    for (size_t i = 0; i < kLoopParties; ++i) {
      if (level == 3) {
        c.MarkOutput(local[i]);
      } else {
        wires[i] = c.AddMul(local[i], local[(i + 1) % kLoopParties]);
      }
    }
  }
  return c;
}

std::vector<std::vector<int64_t>> LevelLoopInputs() {
  return {{3}, {-2}, {1}, {4}, {-1}};
}

struct LoopRun {
  std::vector<std::vector<int64_t>> outputs;  ///< [party] opened outputs.
  sqm::NetworkStats stats;  ///< Messages and bytes summed over the parties.
  std::vector<uint64_t> rounds;  ///< [party] rounds its transport ended.
};

LoopRun RunLoopDriver(bool trackers) {
  sqm::LockstepTransport network(kLoopParties, 0.0);
  sqm::BgwEngine engine(ShamirScheme(kLoopParties, kLoopThreshold), &network,
                        kLoopSeed);
  sqm::LivenessTracker tracker(kLoopParties);
  if (trackers) engine.set_liveness(&tracker);
  sqm::Result<std::vector<int64_t>> outputs =
      engine.Evaluate(LevelLoopCircuit(), LevelLoopInputs());
  EXPECT_TRUE(outputs.ok()) << outputs.status().ToString();
  EXPECT_EQ(engine.last_report().mul_rounds, 3u);
  LoopRun run;
  run.outputs.assign(kLoopParties, outputs.ok() ? outputs.ValueOrDie()
                                                : std::vector<int64_t>{});
  run.stats = network.stats();
  run.rounds.assign(kLoopParties, run.stats.rounds);
  return run;
}

// Every party on its own thread over its own TcpTransport on a loopback
// mesh; each party keeps its own tracker when `trackers` is set (so the
// census runs).
LoopRun RunLoopParties(bool trackers) {
  const sqm::Circuit circuit = LevelLoopCircuit();
  const std::vector<std::vector<int64_t>> inputs = LevelLoopInputs();
  LoopRun run;
  run.outputs.resize(kLoopParties);
  const std::vector<sqm::testing::LoopbackParty> parties =
      sqm::testing::RunOnLoopback(
          sqm::testing::LoopbackOptions(kLoopParties, 5.0),
          [&](size_t me, sqm::Transport* transport) -> sqm::Status {
            sqm::BgwEngine engine(ShamirScheme(kLoopParties, kLoopThreshold),
                                  transport, kLoopSeed, me);
            sqm::LivenessTracker tracker(kLoopParties);
            if (trackers) engine.set_liveness(&tracker);
            SQM_ASSIGN_OR_RETURN(
                const sqm::SharedVector shares,
                engine.EvaluateToShares(circuit, {inputs[me]}));
            SQM_ASSIGN_OR_RETURN(run.outputs[me], engine.OpenOutputs(shares));
            return sqm::Status::OK();
          });
  for (const sqm::testing::LoopbackParty& party : parties) {
    EXPECT_TRUE(party.status.ok()) << party.status.ToString();
    run.stats.messages += party.stats.totals.messages;
    run.stats.field_elements += party.stats.totals.field_elements;
    run.stats.wire_bytes += party.stats.totals.wire_bytes;
    run.rounds.push_back(party.stats.totals.rounds);
  }
  return run;
}

TEST(LevelLoopEquivalence, PartyThreadsMatchDriverOutputsAndTraffic) {
  if (!TcpSupported()) GTEST_SKIP() << "no POSIX sockets on this platform";
  const LoopRun driver = RunLoopDriver(/*trackers=*/false);
  ASSERT_EQ(driver.outputs[0].size(), kLoopParties);
  const LoopRun parties = RunLoopParties(/*trackers=*/false);
  EXPECT_EQ(parties.outputs, driver.outputs);
  EXPECT_EQ(parties.stats.messages, driver.stats.messages);
  EXPECT_EQ(parties.stats.bytes(), driver.stats.bytes());
  EXPECT_EQ(parties.rounds, driver.rounds);
}

TEST(LevelLoopEquivalence, PartyThreadsWithCensusMatchDriverOutputs) {
  if (!TcpSupported()) GTEST_SKIP() << "no POSIX sockets on this platform";
  const LoopRun driver = RunLoopDriver(/*trackers=*/true);
  EXPECT_EQ(driver.outputs, RunLoopDriver(/*trackers=*/false).outputs);
  const LoopRun parties = RunLoopParties(/*trackers=*/true);
  EXPECT_EQ(parties.outputs, driver.outputs);
  // Both hostings run the census, one round per multiplication level.
  EXPECT_EQ(driver.stats.rounds,
            RunLoopDriver(/*trackers=*/false).stats.rounds + 3);
  EXPECT_EQ(parties.rounds, driver.rounds);
  EXPECT_EQ(parties.stats.messages, driver.stats.messages);
  EXPECT_EQ(parties.stats.bytes(), driver.stats.bytes());
}


// One post-input crash under a tracker: a driver hosting all five parties
// on a LockstepTransport and five single-party engines on threads over a
// loopback TCP mesh both run the census, so they must agree on the
// release, the survivors and the round count.
TEST(LevelLoopEquivalence, CensusUnderAPostInputCrashMatchesAcrossHostings) {
  if (!TcpSupported()) GTEST_SKIP() << "no POSIX sockets on this platform";
  constexpr size_t kThreshold = 1;  // Quorum 2t+1 = 3 of 5.
  constexpr size_t kCrashed = 2;
  constexpr uint64_t kAfterInputs = kLoopParties;  // One round per dealer.
  constexpr size_t kPostInputRounds = 3 * 2 + 1;   // 3 Mul + census, open.
  const sqm::Circuit circuit = LevelLoopCircuit();
  const std::vector<std::vector<int64_t>> inputs = LevelLoopInputs();

  sqm::LockstepTransport clean(kLoopParties, 0.0);
  sqm::BgwEngine reference(ShamirScheme(kLoopParties, kThreshold), &clean,
                           kLoopSeed);
  const std::vector<int64_t> expected =
      reference.Evaluate(circuit, inputs).ValueOrDie();

  sqm::LockstepTransport lockstep(kLoopParties, 0.0);
  lockstep.ScheduleCrashes({{kCrashed, kAfterInputs}});
  sqm::BgwEngine driver(ShamirScheme(kLoopParties, kThreshold), &lockstep,
                        kLoopSeed);
  sqm::LivenessTracker driver_tracker(kLoopParties);
  driver.set_liveness(&driver_tracker);
  const sqm::Result<std::vector<int64_t>> driver_outputs =
      driver.Evaluate(circuit, inputs);
  ASSERT_TRUE(driver_outputs.ok()) << driver_outputs.status().ToString();
  EXPECT_EQ(driver_outputs.ValueOrDie(), expected);
  EXPECT_EQ(driver_tracker.Survivors(), (std::vector<size_t>{0, 1, 3, 4}));
  EXPECT_EQ(lockstep.stats().rounds, kLoopParties + kPostInputRounds);

  std::vector<std::vector<int64_t>> outputs(kLoopParties);
  std::vector<std::vector<size_t>> survivors(kLoopParties);
  const std::vector<sqm::testing::LoopbackParty> parties =
      sqm::testing::RunOnLoopback(
          sqm::testing::LoopbackOptions(kLoopParties, 5.0),
          [&](size_t me, sqm::Transport* transport) -> sqm::Status {
            sqm::BgwEngine engine(ShamirScheme(kLoopParties, kThreshold),
                                  transport, kLoopSeed, me);
            sqm::LivenessTracker tracker(kLoopParties);
            engine.set_liveness(&tracker);
            if (me == kCrashed) {
              // The crashed party deals and receives the inputs, then
              // returns: its goodbye makes every later receive from it
              // kUnavailable.
              for (size_t j = 0; j < kLoopParties; ++j) {
                std::vector<Field::Element> encoded;
                if (j == me) encoded = Field::EncodeVector(inputs[me]);
                SQM_RETURN_NOT_OK(engine.ShareFrom(j, encoded, 1).status());
              }
              return sqm::Status::OK();
            }
            SQM_ASSIGN_OR_RETURN(outputs[me],
                                 engine.Evaluate(circuit, {inputs[me]}));
            survivors[me] = tracker.Survivors();
            return sqm::Status::OK();
          });
  for (size_t me = 0; me < kLoopParties; ++me) {
    ASSERT_TRUE(parties[me].status.ok())
        << "party " << me << ": " << parties[me].status.ToString();
    if (me == kCrashed) {
      EXPECT_EQ(parties[me].stats.totals.rounds, kAfterInputs);
      continue;
    }
    EXPECT_EQ(outputs[me], expected) << "party " << me;
    EXPECT_EQ(survivors[me], driver_tracker.Survivors()) << "party " << me;
    EXPECT_EQ(parties[me].stats.totals.rounds, lockstep.stats().rounds)
        << "party " << me;
  }
}

}  // namespace
