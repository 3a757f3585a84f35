// Dropout-tolerance acceptance tests: with n = 7, t = 2 (quorum 2t+1 = 5),
// crashing any 2 parties mid-Mul under kDegrade completes the SQM release
// with exactly the no-crash values and the configured (epsilon, delta);
// crashing 3 fails fast with kUnavailable naming the quorum
// shortfall. Plus checkpoint resume after transient timeouts and a crash
// sweep over every party x protocol phase, all on lockstep crash
// schedules.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/report_io.h"
#include "core/sqm.h"
#include "mpc/bgw.h"
#include "mpc/circuit.h"
#include "mpc/shamir.h"
#include "net/liveness.h"
#include "net/lockstep.h"

namespace sqm {
namespace {

// n = 7 clients (one column each), t = 2: quorum 2t+1 = 5, so any 2 crashes
// are survivable and 3 are not. Two output dimensions, one of degree 3, so
// the circuit has two multiplication levels.
constexpr size_t kParties = 7;
constexpr size_t kThreshold = 2;
// One input round per party; crashes scheduled after them land mid-Mul.
constexpr uint64_t kAfterInputs = kParties;

PolynomialVector AcceptanceF() {
  PolynomialVector f;
  Polynomial p0;
  p0.AddTerm(Monomial(1.0, {{0, 1}, {1, 1}}));
  p0.AddTerm(Monomial(1.0, {{2, 1}, {3, 1}}));
  f.AddDimension(p0);
  Polynomial p1;
  p1.AddTerm(Monomial(1.0, {{4, 1}, {5, 1}, {6, 1}}));
  f.AddDimension(p1);
  return f;
}

Matrix AcceptanceX() {
  return Matrix{{0.2, -0.3, 0.4, 0.5, -0.1, 0.6, 0.3},
                {-0.4, 0.1, 0.2, -0.5, 0.3, -0.2, 0.7},
                {0.5, 0.6, -0.3, 0.1, 0.4, 0.2, -0.6}};
}

SqmOptions AcceptanceOptions() {
  SqmOptions options;
  options.gamma = 64.0;
  options.mu = 400.0;
  options.backend = MpcBackend::kBgw;
  options.bgw_threshold = kThreshold;
  options.max_f_l2 = 2.0;
  return options;
}

TEST(ResilienceTest, DegradeSurvivesAnyTwoCrashesWithExactRelease) {
  const PolynomialVector f = AcceptanceF();
  const Matrix x = AcceptanceX();

  SqmOptions options = AcceptanceOptions();
  const SqmReport baseline = SqmEvaluator(options).Evaluate(f, x).ValueOrDie();

  // Enabling the quorum paths without any crash must not change the release.
  options.dropout_policy = DropoutPolicy::kDegrade;
  const SqmReport clean = SqmEvaluator(options).Evaluate(f, x).ValueOrDie();
  EXPECT_EQ(clean.raw, baseline.raw);
  EXPECT_EQ(clean.dropout.num_dropped, 0u);
  EXPECT_DOUBLE_EQ(clean.dropout.realized_mu, options.mu);
  EXPECT_DOUBLE_EQ(clean.dropout.realized_epsilon,
                   clean.dropout.configured_epsilon);

  // Crash every pair of parties mid-Mul: the release must complete on the
  // 5-survivor quorum and open to exactly the no-crash values (survivor
  // randomness and the already-shared inputs are untouched by the crash; a
  // degree-2t sharing opens identically from every 2t+1 subset).
  for (size_t a = 0; a < kParties; ++a) {
    for (size_t b = a + 1; b < kParties; ++b) {
      SqmOptions crashed = options;
      crashed.crashes = {{a, kAfterInputs}, {b, kAfterInputs}};
      const auto result = SqmEvaluator(crashed).Evaluate(f, x);
      ASSERT_TRUE(result.ok())
          << "crash pair (" << a << "," << b
          << "): " << result.status().ToString();
      const SqmReport& report = result.ValueOrDie();
      EXPECT_EQ(report.raw, baseline.raw)
          << "crash pair (" << a << "," << b << ")";
      const DropoutReport& dropout = report.dropout;
      EXPECT_EQ(dropout.policy, DropoutPolicy::kDegrade);
      EXPECT_EQ(dropout.num_dropped, 2u);
      ASSERT_EQ(dropout.survivors.size(), 5u);
      EXPECT_EQ(std::count(dropout.survivors.begin(),
                           dropout.survivors.end(), a),
                0);
      EXPECT_EQ(std::count(dropout.survivors.begin(),
                           dropout.survivors.end(), b),
                0);
      // Both crashed parties dealt their noise shares before crashing, so
      // the release (equal to the no-crash one) carries the full Sk(mu).
      EXPECT_DOUBLE_EQ(dropout.realized_mu, options.mu);
      EXPECT_DOUBLE_EQ(dropout.realized_epsilon, dropout.configured_epsilon);
      ASSERT_EQ(report.ledger.size(), 1u);
      EXPECT_EQ(report.ledger[0].mechanism, "skellam");
      EXPECT_DOUBLE_EQ(report.ledger[0].mu, options.mu);
      EXPECT_EQ(dropout.mpc_attempts, 1u);
    }
  }
}

TEST(ResilienceTest, AbortPolicySurfacesCrashAsError) {
  SqmOptions options = AcceptanceOptions();
  options.crashes = {{3, kAfterInputs}};
  // dropout_policy defaults to kAbort: the legacy all-or-nothing behavior.
  const auto result =
      SqmEvaluator(options).Evaluate(AcceptanceF(), AcceptanceX());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(ResilienceTest, ThreeCrashesFailFastNamingQuorumShortfall) {
  const PolynomialVector f = AcceptanceF();
  const Matrix x = AcceptanceX();
  SqmOptions options = AcceptanceOptions();
  options.dropout_policy = DropoutPolicy::kDegrade;
  options.crashes = {{1, kAfterInputs}, {3, kAfterInputs}, {5, kAfterInputs}};
  const auto result = SqmEvaluator(options).Evaluate(f, x);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("quorum"), std::string::npos)
      << result.status().ToString();
}

TEST(ResilienceTest, DropoutReportSerializesToJson) {
  SqmOptions options = AcceptanceOptions();
  options.dropout_policy = DropoutPolicy::kDegrade;
  options.crashes = {{0, kAfterInputs}, {4, kAfterInputs}};
  const SqmReport report =
      SqmEvaluator(options).Evaluate(AcceptanceF(), AcceptanceX()).ValueOrDie();
  const std::string json = SqmReportToJson(report);
  EXPECT_NE(json.find("\"policy\":\"degrade\""), std::string::npos);
  EXPECT_NE(json.find("\"num_dropped\":2"), std::string::npos);
  EXPECT_NE(json.find("\"survivors\":[1,2,3,5,6]"), std::string::npos);
  EXPECT_NE(json.find("\"realized_epsilon\":"), std::string::npos);
}

// Lockstep network that times out a fixed set of dealers once each, after
// the input phase — a transient flake (kDeadlineExceeded), not a crash: the
// parties stay alive and the retried level succeeds.
class FlakyOnceNetwork : public LockstepTransport {
 public:
  FlakyOnceNetwork(size_t num_parties, std::vector<size_t> flaky_dealers)
      : LockstepTransport(num_parties, 0.0),
        pending_(std::move(flaky_dealers)) {}

  Result<Payload> Receive(size_t from, size_t to) override {
    if (stats().rounds >= num_parties()) {
      const auto it = std::find(pending_.begin(), pending_.end(), from);
      if (it != pending_.end()) {
        pending_.erase(it);
        return Status::DeadlineExceeded("injected transient timeout");
      }
    }
    return LockstepTransport::Receive(from, to);
  }

 private:
  std::vector<size_t> pending_;
};

TEST(ResilienceTest, CheckpointResumesAfterTransientTimeouts) {
  // n = 5, t = 1: quorum 3, two mul levels. Timing out 3 of 5 dealers in
  // the first mul round sinks that level (2 usable < 3); all three parties
  // are merely suspected, so the run resumes from the checkpoint, drains
  // the stale sub-shares, and finishes with the clean-run values.
  Circuit circuit;
  std::vector<Circuit::WireId> in(5);
  for (size_t j = 0; j < 5; ++j) in[j] = circuit.AddInput(j);
  Circuit::WireId prod = circuit.AddMul(in[0], in[1]);
  prod = circuit.AddMul(prod, in[2]);
  prod = circuit.AddAdd(prod, circuit.AddAdd(in[3], in[4]));
  circuit.MarkOutput(prod);
  const std::vector<std::vector<int64_t>> inputs = {
      {3}, {-4}, {5}, {7}, {-2}};
  const int64_t expected = (3 * -4) * 5 + 7 - 2;

  LockstepTransport clean_net(5, 0.0);
  BgwEngine clean_engine(ShamirScheme(5, 1), &clean_net, 99);
  LivenessTracker clean_tracker(5);
  clean_engine.set_liveness(&clean_tracker);
  const auto clean = clean_engine.Evaluate(circuit, inputs).ValueOrDie();
  ASSERT_EQ(clean, (std::vector<int64_t>{expected}));

  FlakyOnceNetwork flaky_net(5, {1, 2, 3});
  BgwEngine engine(ShamirScheme(5, 1), &flaky_net, 99);
  LivenessTracker tracker(5);
  engine.set_liveness(&tracker);

  BgwCheckpoint checkpoint;
  const auto first = engine.EvaluateToShares(circuit, inputs, &checkpoint);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(first.status().message().find("quorum"), std::string::npos);
  EXPECT_TRUE(checkpoint.valid);
  EXPECT_EQ(checkpoint.next_level, 1u);  // Inputs kept; retry at level 1.
  EXPECT_EQ(tracker.num_dead(), 0u);     // Suspected, not dead.
  EXPECT_EQ(tracker.state(1), PartyLiveness::kSuspected);

  const auto second = engine.EvaluateToShares(circuit, inputs, &checkpoint);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const auto outputs = engine.OpenOutputs(second.ValueOrDie()).ValueOrDie();
  EXPECT_EQ(outputs, (std::vector<int64_t>{expected}));
  EXPECT_EQ(tracker.num_alive(), 5u);  // Success cleared every suspicion.
}

TEST(ResilienceTest, CrashSweepEveryPartyEveryPhase) {
  // Crash each party at each protocol phase boundary: every run must either
  // finish with the no-crash release and a consistent dropout report, or
  // fail with kUnavailable — never hang, never abort the process, never
  // release corrupted values. n = 5, t = 1: rounds 0..4 are input rounds
  // (party j deals in round j), round 5 is the mul, round 6 the open.
  PolynomialVector f;
  Polynomial p;
  p.AddTerm(Monomial(1.0, {{0, 1}, {1, 1}}));
  p.AddTerm(Monomial(1.0, {{2, 1}, {3, 1}}));
  p.AddTerm(Monomial(2.0, {{4, 2}}));
  f.AddDimension(p);
  const Matrix x{{0.3, -0.2, 0.5, 0.4, -0.6}, {-0.1, 0.7, 0.2, -0.3, 0.5}};

  SqmOptions options;
  options.gamma = 32.0;
  options.mu = 0.0;
  options.backend = MpcBackend::kBgw;
  options.bgw_threshold = 1;
  options.max_f_l2 = 2.0;
  const SqmReport baseline = SqmEvaluator(options).Evaluate(f, x).ValueOrDie();

  // The degrade leg runs without noise and with it. A party's noise share
  // is dealt in its input round, so every completed run carries all of
  // them: the no-crash release, noise included, and the configured epsilon.
  for (const double mu : {0.0, 100.0}) {
    SqmOptions noised = options;
    noised.mu = mu;
    const SqmReport reference =
        SqmEvaluator(noised).Evaluate(f, x).ValueOrDie();
    size_t completed = 0;
    size_t refused = 0;
    for (size_t party = 0; party < 5; ++party) {
      for (const uint64_t after_rounds : {uint64_t{0}, uint64_t{2},
                                          uint64_t{5}, uint64_t{6}}) {
        SqmOptions crashed = noised;
        crashed.dropout_policy = DropoutPolicy::kDegrade;
        crashed.crashes = {{party, after_rounds}};
        const auto result = SqmEvaluator(crashed).Evaluate(f, x);
        if (result.ok()) {
          ++completed;
          const SqmReport& report = result.ValueOrDie();
          EXPECT_EQ(report.raw, reference.raw)
              << "mu " << mu << ", party " << party << " after "
              << after_rounds << " rounds";
          EXPECT_EQ(report.dropout.num_dropped, 1u);
          EXPECT_EQ(report.dropout.survivors.size(), 4u);
          EXPECT_DOUBLE_EQ(report.dropout.realized_mu, mu);
          EXPECT_DOUBLE_EQ(report.dropout.realized_epsilon,
                           report.dropout.configured_epsilon)
              << "mu " << mu << ", party " << party << " after "
              << after_rounds << " rounds";
        } else {
          ++refused;
          // Input-phase crashes are not degradable: a lost input has no
          // quorum that can reconstruct it.
          EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
              << result.status().ToString();
          EXPECT_LE(after_rounds, uint64_t{4})
              << "party " << party << ": post-input crash must degrade, got "
              << result.status().ToString();
        }
      }
    }
    // Crashes strictly after a party's own dealing round degrade; at or
    // before it they refuse: 12 completions, 8 refusals.
    EXPECT_EQ(completed, 12u) << "mu " << mu;
    EXPECT_EQ(refused, 8u) << "mu " << mu;
  }

  // kAbort (no tracker) at every round through the open: a crash before
  // the party's own input round, mid-Mul, or during the open has nothing
  // to degrade around and must surface as kUnavailable — 35 refusals.
  size_t abort_refused = 0;
  for (size_t party = 0; party < 5; ++party) {
    for (uint64_t after_rounds = 0; after_rounds <= 6; ++after_rounds) {
      SqmOptions crashed = options;
      crashed.crashes = {{party, after_rounds}};
      const auto result = SqmEvaluator(crashed).Evaluate(f, x);
      if (result.ok()) {
        EXPECT_EQ(result.ValueOrDie().raw, baseline.raw)
            << "kAbort, party " << party << " after " << after_rounds
            << " rounds";
      } else {
        ++abort_refused;
        EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
            << "kAbort, party " << party << " after " << after_rounds
            << " rounds: " << result.status().ToString();
      }
    }
  }
  EXPECT_EQ(abort_refused, 35u);
}

}  // namespace
}  // namespace sqm
