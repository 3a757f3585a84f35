// End-to-end observability: a full SQM run (n = 5 parties, PCA-style
// second-moment release over BGW) must leave behind (1) a Chrome trace
// with per-party share / mul / open spans, (2) transport totals that equal
// the sum of their channels, and (3) a privacy ledger embedded in the
// report.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/json.h"
#include "core/sqm.h"
#include "mpc/bgw.h"
#include "mpc/circuit.h"
#include "mpc/shamir.h"
#include "loopback_mesh.h"
#include "obs/ledger.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sampling/rng.h"

namespace sqm {
namespace {

constexpr size_t kParties = 5;

Matrix SmallDatabase(size_t rows, size_t cols, uint64_t seed) {
  Matrix x(rows, cols);
  Rng rng(seed);
  for (auto& v : x.data()) v = rng.NextDouble() - 0.5;
  return x;
}

SqmOptions PcaStyleOptions() {
  SqmOptions options;
  options.mu = 25.0;
  options.gamma = 64.0;
  options.seed = 99;
  options.quantize_coefficients = false;  // PCA instantiation.
  options.backend = MpcBackend::kBgw;
  return options;
}

/// Fresh global obs state per test: trace and global ledger emptied,
/// switch on.
class ObsPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    obs::Tracer::Global().Clear();
    obs::PrivacyLedger::Global().Clear();
  }
};

TEST_F(ObsPipelineTest, FullRunProducesPerPartyProtocolSpans) {
  const Matrix x = SmallDatabase(8, kParties, 1);
  const PolynomialVector f = PolynomialVector::OuterProduct(kParties);
  const SqmReport report =
      SqmEvaluator(PcaStyleOptions()).Evaluate(f, x).ValueOrDie();
  ASSERT_FALSE(report.estimate.empty());

  // Which party tracks carried each protocol phase?
  std::set<int32_t> share_tracks;
  std::set<int32_t> mul_tracks;
  std::set<int32_t> open_tracks;
  for (const obs::TraceEvent& event : obs::Tracer::Global().Collect()) {
    const std::string name = event.name;
    if (name == "bgw.share") share_tracks.insert(event.track);
    if (name == "bgw.mul.deal") mul_tracks.insert(event.track);
    if (name == "bgw.open.broadcast") open_tracks.insert(event.track);
  }
  for (size_t j = 0; j < kParties; ++j) {
    const int32_t track = static_cast<int32_t>(j);
    EXPECT_TRUE(share_tracks.count(track)) << "no share span for party " << j;
    EXPECT_TRUE(mul_tracks.count(track)) << "no mul span for party " << j;
    EXPECT_TRUE(open_tracks.count(track)) << "no open span for party " << j;
  }
}

TEST_F(ObsPipelineTest, ChromeTraceJsonLoadsWithNamedPartyRows) {
  const Matrix x = SmallDatabase(6, kParties, 2);
  const PolynomialVector f = PolynomialVector::OuterProduct(kParties);
  ASSERT_TRUE(SqmEvaluator(PcaStyleOptions()).Evaluate(f, x).ok());

  const std::string json = obs::Tracer::Global().ToChromeTraceJson();
  const JsonValue root = ParseJson(json).ValueOrDie();
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);

  std::set<std::string> track_names;
  std::set<std::string> span_names;
  for (const JsonValue& event : events->items) {
    const std::string ph = event.Find("ph")->string_value;
    if (ph == "M") {
      track_names.insert(event.Find("args")->Find("name")->string_value);
    } else if (ph == "X") {
      span_names.insert(event.Find("name")->string_value);
    }
  }
  for (size_t j = 0; j < kParties; ++j) {
    EXPECT_TRUE(track_names.count("party " + std::to_string(j)));
  }
  EXPECT_TRUE(track_names.count("driver"));
  // The taxonomy the acceptance criteria name: distinct share / mul /
  // open spans, plus pipeline and transport levels.
  for (const char* required :
       {"bgw.share", "bgw.mul", "bgw.mul.deal", "bgw.mul.recombine",
        "bgw.open", "bgw.open.broadcast", "sqm.evaluate", "sqm.quantize",
        "sqm.mpc_compute", "net.send"}) {
    EXPECT_TRUE(span_names.count(required)) << "missing span " << required;
  }
}

TEST_F(ObsPipelineTest, TransportTotalsEqualTheSumOfTheirChannels) {
  const Matrix x = SmallDatabase(8, kParties, 3);
  const PolynomialVector f = PolynomialVector::OuterProduct(kParties);
  const SqmReport report =
      SqmEvaluator(PcaStyleOptions()).Evaluate(f, x).ValueOrDie();

  uint64_t channel_bytes = 0;
  uint64_t channel_messages = 0;
  for (const ChannelStats& channel : report.transport.channels) {
    channel_bytes += channel.wire_bytes;
    channel_messages += channel.messages;
  }
  EXPECT_EQ(report.transport.totals.wire_bytes, channel_bytes);
  EXPECT_EQ(report.transport.totals.messages, channel_messages);
  EXPECT_GT(report.transport.totals.wire_bytes, 0u);
}

TEST_F(ObsPipelineTest, ReportEmbedsPrivacyLedger) {
  const Matrix x = SmallDatabase(8, kParties, 4);
  const PolynomialVector f = PolynomialVector::OuterProduct(kParties);
  const SqmReport report =
      SqmEvaluator(PcaStyleOptions()).Evaluate(f, x).ValueOrDie();

  ASSERT_FALSE(report.ledger.empty());
  const obs::LedgerEntry& spend = report.ledger.back();
  EXPECT_EQ(spend.label, "sqm_release");
  EXPECT_GT(spend.mu, 0.0);
  EXPECT_DOUBLE_EQ(spend.delta, 1e-5);
  EXPECT_GT(spend.epsilon, 0.0);
  // The ledger's cumulative epsilon is the report's realized epsilon: one
  // release, same accountant, same delta.
  EXPECT_NEAR(spend.cumulative_epsilon, report.dropout.realized_epsilon,
              1e-12);
  // Forwarded to the global stream too.
  EXPECT_GE(obs::PrivacyLedger::Global().size(), 1u);
}

TEST_F(ObsPipelineTest, KillSwitchSuppressesTraceAndLedgerButNotReport) {
  const Matrix x = SmallDatabase(6, kParties, 5);
  const PolynomialVector f = PolynomialVector::OuterProduct(kParties);

  obs::SetEnabled(false);
  const SqmReport report =
      SqmEvaluator(PcaStyleOptions()).Evaluate(f, x).ValueOrDie();
  obs::SetEnabled(true);

  EXPECT_EQ(obs::Tracer::Global().num_events(), 0u);
  EXPECT_EQ(obs::PrivacyLedger::Global().size(), 0u);
  // The report's own data is NOT gated: transport accounting and the
  // local ledger mirror are results, not telemetry.
  EXPECT_GT(report.transport.totals.messages, 0u);
  EXPECT_FALSE(report.ledger.empty());
}

TEST_F(ObsPipelineTest, DisabledRunReleasesIdenticalValues) {
  const Matrix x = SmallDatabase(8, kParties, 6);
  const PolynomialVector f = PolynomialVector::OuterProduct(kParties);

  const SqmReport traced =
      SqmEvaluator(PcaStyleOptions()).Evaluate(f, x).ValueOrDie();
  obs::SetEnabled(false);
  const SqmReport dark =
      SqmEvaluator(PcaStyleOptions()).Evaluate(f, x).ValueOrDie();
  obs::SetEnabled(true);
  EXPECT_EQ(traced.raw, dark.raw);  // Instrumentation never perturbs results.
}

TEST_F(ObsPipelineTest, PartyThreadsReleaseTheExpectedProducts) {
  if (!net::TcpSupported()) GTEST_SKIP() << "no POSIX sockets";
  // Party threads over a loopback TCP mesh with tracing on, so the TSan
  // leg sees the parties and their transports' reader threads emit spans
  // at once: every party opens the same products.
  Circuit circuit;
  std::vector<Circuit::WireId> in(kParties);
  for (size_t j = 0; j < kParties; ++j) in[j] = circuit.AddInput(j);
  std::vector<int64_t> expected;
  for (size_t j = 0; j < kParties; ++j) {
    const size_t next = (j + 1) % kParties;
    circuit.MarkOutput(circuit.AddMul(in[j], in[next]));
    expected.push_back(static_cast<int64_t>((j + 1) * (next + 1)));
  }
  std::vector<std::vector<int64_t>> opened(kParties);
  const std::vector<testing::LoopbackParty> parties = testing::RunOnLoopback(
      testing::LoopbackOptions(kParties, 5.0),
      [&](size_t me, Transport* transport) -> Status {
        BgwEngine engine(ShamirScheme(kParties, 2), transport, 99, me);
        SQM_ASSIGN_OR_RETURN(
            opened[me],
            engine.Evaluate(circuit, {{static_cast<int64_t>(me) + 1}}));
        return Status::OK();
      });
  uint64_t messages = 0;
  for (size_t me = 0; me < kParties; ++me) {
    ASSERT_TRUE(parties[me].status.ok()) << parties[me].status.ToString();
    EXPECT_EQ(opened[me], expected) << "party " << me;
    messages += parties[me].stats.totals.messages;
  }
  EXPECT_GT(messages, 0u);
}

}  // namespace
}  // namespace sqm
