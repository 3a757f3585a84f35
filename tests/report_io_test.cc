#include "core/report_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace sqm {
namespace {

TEST(JsonWriterTest, EmptyObject) {
  JsonWriter writer;
  writer.BeginObject().EndObject();
  EXPECT_EQ(writer.str(), "{}");
}

TEST(JsonWriterTest, ScalarFields) {
  JsonWriter writer;
  writer.BeginObject()
      .Field("a", int64_t{-3})
      .Field("b", uint64_t{7})
      .Field("c", 1.5)
      .Field("d", std::string("hi"))
      .Field("e", true)
      .EndObject();
  EXPECT_EQ(writer.str(),
            "{\"a\":-3,\"b\":7,\"c\":1.5,\"d\":\"hi\",\"e\":true}");
}

TEST(JsonWriterTest, NestedArraysAndObjects) {
  JsonWriter writer;
  writer.BeginObject();
  writer.BeginArray("xs").Value(int64_t{1}).Value(int64_t{2}).EndArray();
  writer.Key("inner").BeginObject().Field("y", 0.25).EndObject();
  writer.EndObject();
  EXPECT_EQ(writer.str(), "{\"xs\":[1,2],\"inner\":{\"y\":0.25}}");
}

TEST(JsonWriterTest, EscapesStrings) {
  JsonWriter writer;
  writer.BeginObject()
      .Field("s", std::string("a\"b\\c\nd"))
      .EndObject();
  EXPECT_EQ(writer.str(), "{\"s\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter writer;
  writer.BeginObject()
      .Field("nan", std::nan(""))
      .EndObject();
  EXPECT_EQ(writer.str(), "{\"nan\":null}");
}

TEST(ReportIoTest, NetworkStatsShape) {
  SqmReport report;
  report.transport.totals.messages = 12;
  report.transport.totals.field_elements = 34;
  report.transport.totals.rounds = 5;
  // bytes are tracked at Send time from the serialized element width, not
  // recomputed from field_elements, so a hand-filled struct carries them
  // explicitly.
  report.transport.totals.wire_bytes = 272;
  const std::string json = SqmReportToJson(report);
  EXPECT_NE(json.find("\"totals\":{\"messages\":12,\"field_elements\":34,"
                      "\"bytes\":272,\"rounds\":5}"),
            std::string::npos)
      << json;
}

TEST(ReportIoTest, TransportStatsShape) {
  SqmReport report;
  TransportStats& stats = report.transport;
  stats.num_parties = 3;
  stats.totals.messages = 6;
  stats.totals.field_elements = 18;
  stats.totals.wire_bytes = 144;
  stats.totals.rounds = 2;
  ChannelStats channel;
  channel.from = 0;
  channel.to = 1;
  channel.messages = 2;
  channel.field_elements = 6;
  channel.wire_bytes = 48;
  stats.channels.push_back(channel);
  PhaseStats phase;
  phase.phase = "mul";
  phase.traffic.messages = 6;
  stats.phases.push_back(phase);
  stats.retries = 1;
  stats.simulated_seconds = 0.2;
  const std::string json = SqmReportToJson(report);
  EXPECT_NE(json.find("\"transport\":{\"num_parties\":3,\"totals\":{"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"channels\":[{\"from\":0,\"to\":1,\"messages\":2,"
                      "\"field_elements\":6,\"bytes\":48}]"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"phases\":[{\"phase\":\"mul\",\"messages\":6,"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"retries\":1"), std::string::npos);
  EXPECT_NE(json.find("\"simulated_seconds\":0.2"), std::string::npos);
}

TEST(ReportIoTest, SqmReportContainsAllSections) {
  SqmReport report;
  report.estimate = {1.5, -2.0};
  report.raw = {3, -4};
  report.timing.quantize_seconds = 0.25;
  report.transport.totals.messages = 9;
  const std::string json = SqmReportToJson(report);
  EXPECT_NE(json.find("\"estimate\":[1.5,-2]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"raw\":[3,-4]"), std::string::npos);
  EXPECT_NE(json.find("\"quantize_seconds\":0.25"), std::string::npos);
  EXPECT_NE(json.find("\"messages\":9"), std::string::npos);
  // Balanced braces.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// ---------------------------------------------------------------------------
// JSON parsing and report round-trips.

TEST(JsonParserTest, ParsesScalarsAndContainers) {
  const auto parsed = ParseJson(
      "{\"a\": [1, -2, 3.5], \"b\": {\"c\": \"x\\ny\", \"d\": true, "
      "\"e\": null}}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.ValueOrDie();
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  const JsonValue* a = root.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_TRUE(a->items[0].is_integer);
  EXPECT_EQ(a->items[0].uint_value, 1u);
  EXPECT_TRUE(a->items[1].is_negative);
  EXPECT_EQ(a->items[1].int_value, -2);
  EXPECT_FALSE(a->items[2].is_integer);
  EXPECT_DOUBLE_EQ(a->items[2].number, 3.5);
  const JsonValue* b = root.Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->Find("c")->string_value, "x\ny");
  EXPECT_TRUE(b->Find("d")->bool_value);
  EXPECT_EQ(b->Find("e")->kind, JsonValue::Kind::kNull);
}

TEST(JsonParserTest, KeepsFieldElementsExactAboveDoublePrecision) {
  // 2^61 - 2 = 2305843009213693950 is not representable as a double; the
  // parser must preserve the exact integer, as a deployment config's u64
  // run_id, session_key, seed and data_seed need it.
  const auto parsed = ParseJson("[2305843009213693950]");
  ASSERT_TRUE(parsed.ok());
  const JsonValue& element = parsed.ValueOrDie().items[0];
  ASSERT_TRUE(element.is_integer);
  EXPECT_EQ(element.uint_value, 2305843009213693950ULL);
}

TEST(JsonParserTest, MalformedDocumentsFailWithStatusNotCrash) {
  const char* kBad[] = {
      "",                      // empty
      "{",                     // truncated object
      "[1,2",                  // truncated array
      "{\"a\":}",              // missing value
      "{\"a\":1,}",            // trailing comma
      "{'a':1}",               // wrong quotes
      "{\"a\":1} trailing",    // garbage after document
      "{\"s\":\"\\q\"}",       // bad escape
      "{\"s\":\"unterminated", // unterminated string
      "nullx",                 // keyword with suffix
      "01",                    // leading zero
      "{\"a\":+1}",            // explicit plus
      "\"\x01\"",              // raw control character
  };
  for (const char* text : kBad) {
    const auto parsed = ParseJson(text);
    EXPECT_FALSE(parsed.ok()) << "accepted malformed JSON: " << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);
    EXPECT_NE(parsed.status().message().find("byte"), std::string::npos)
        << "error should name the offending byte offset: "
        << parsed.status().ToString();
  }
}

TEST(JsonParserTest, RejectsPathologicallyDeepNesting) {
  std::string deep;
  for (int i = 0; i < 300; ++i) deep += '[';
  for (int i = 0; i < 300; ++i) deep += ']';
  const auto parsed = ParseJson(deep);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("deep"), std::string::npos)
      << parsed.status().ToString();
}

TEST(ReportIoTest, SqmReportRoundTripsThroughJson) {
  SqmReport report;
  report.estimate = {1.5, -2.25, 0.0};
  report.raw = {3, -4, 0};
  report.timing.quantize_seconds = 0.25;
  report.timing.noise_sampling_seconds = 0.125;
  report.timing.mpc_compute_seconds = 1.5;
  report.timing.simulated_network_seconds = 0.75;
  report.timing.noise_injection_seconds = 0.0625;
  report.transport.totals.messages = 9;
  report.transport.totals.field_elements = 27;
  report.transport.totals.wire_bytes = 216;
  report.transport.totals.rounds = 4;
  report.dropout.policy = DropoutPolicy::kDegrade;
  report.dropout.num_parties = 5;
  report.dropout.num_dropped = 2;
  report.dropout.survivors = {0, 2, 4};
  report.dropout.configured_mu = 16.0;
  report.dropout.realized_mu = 9.6;
  report.dropout.configured_epsilon = 0.5;
  report.dropout.realized_epsilon = 0.8125;
  report.dropout.delta = 1e-6;
  report.dropout.best_alpha = 12.5;
  report.dropout.mpc_attempts = 3;
  report.dropout.resumed_from_level = 1;

  const std::string json = SqmReportToJson(report);
  const auto parsed = SqmReportFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const SqmReport& back = parsed.ValueOrDie();
  EXPECT_EQ(back.raw, report.raw);
  // The estimate, timing and transport blocks are written, not reloaded.
  EXPECT_TRUE(back.estimate.empty());
  EXPECT_EQ(back.timing.quantize_seconds, 0.0);
  EXPECT_EQ(back.transport.totals.messages, 0u);
  EXPECT_EQ(back.dropout.policy, DropoutPolicy::kDegrade);
  EXPECT_EQ(back.dropout.num_parties, 5u);
  EXPECT_EQ(back.dropout.num_dropped, 2u);
  EXPECT_EQ(back.dropout.survivors, report.dropout.survivors);
  EXPECT_EQ(back.dropout.configured_mu, 16.0);
  EXPECT_EQ(back.dropout.realized_mu, 9.6);
  EXPECT_EQ(back.dropout.realized_epsilon, 0.8125);
  EXPECT_EQ(back.dropout.delta, 1e-6);
  EXPECT_EQ(back.dropout.best_alpha, 12.5);
  EXPECT_EQ(back.dropout.mpc_attempts, 3u);
  EXPECT_EQ(back.dropout.resumed_from_level, 1u);
}

TEST(ReportIoTest, SqmReportFromJsonRejectsStructuralMistakes) {
  SqmReport report;
  report.estimate = {1.0};
  report.raw = {1};
  const std::string good = SqmReportToJson(report);
  ASSERT_TRUE(SqmReportFromJson(good).ok());

  // Whole-document damage.
  EXPECT_FALSE(SqmReportFromJson("").ok());
  EXPECT_FALSE(SqmReportFromJson("[]").ok());
  EXPECT_FALSE(SqmReportFromJson(good.substr(0, good.size() / 2)).ok());

  // A wrong-typed member: "raw" holding strings.
  std::string bad = good;
  const size_t raw_pos = bad.find("\"raw\":[1]");
  ASSERT_NE(raw_pos, std::string::npos);
  bad.replace(raw_pos, 9, "\"raw\":[\"x\"]");
  const auto typed = SqmReportFromJson(bad);
  ASSERT_FALSE(typed.ok());
  EXPECT_EQ(typed.status().code(), StatusCode::kIoError);

  // An unknown dropout policy string.
  std::string policy = good;
  const size_t policy_pos = policy.find("\"policy\":\"abort\"");
  ASSERT_NE(policy_pos, std::string::npos);
  policy.replace(policy_pos, 16, "\"policy\":\"shrug\"");
  EXPECT_FALSE(SqmReportFromJson(policy).ok());

  // A missing dropout block: the coordinator and the deployment tests
  // read it.
  std::string no_dropout = good;
  const size_t dropout_pos = no_dropout.find("\"dropout\":");
  ASSERT_NE(dropout_pos, std::string::npos);
  no_dropout.replace(dropout_pos, 10, "\"drxpout\":");
  EXPECT_FALSE(SqmReportFromJson(no_dropout).ok());
}

TEST(ReportIoTest, PrivacyLedgerRoundTripsThroughJson) {
  SqmReport report;
  report.estimate = {1.0};
  report.raw = {1};
  obs::LedgerEntry spend;
  spend.sequence = 7;
  spend.elapsed_seconds = 0.5;
  spend.mechanism = "skellam";
  spend.label = "sqm_release";
  spend.mu = 80.0;
  spend.gamma = 256.0;
  spend.dimension = 9;
  spend.l1_sensitivity = 2.0;
  spend.l2_sensitivity = 1.0;
  spend.sampling_rate = 1.0;
  spend.count = 1;
  spend.epsilon = 0.75;
  spend.delta = 1e-5;
  spend.best_alpha = 8.5;
  spend.cumulative_epsilon = 0.75;
  report.ledger.push_back(spend);

  const std::string json = SqmReportToJson(report);
  EXPECT_NE(json.find("\"privacy_ledger\":["), std::string::npos);
  const auto parsed = SqmReportFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.ValueOrDie().ledger.size(), 1u);
  const obs::LedgerEntry& back = parsed.ValueOrDie().ledger[0];
  EXPECT_EQ(back.sequence, 7u);
  EXPECT_EQ(back.mechanism, "skellam");
  EXPECT_EQ(back.label, "sqm_release");
  EXPECT_EQ(back.mu, 80.0);
  EXPECT_EQ(back.gamma, 256.0);
  EXPECT_EQ(back.dimension, 9u);
  EXPECT_EQ(back.l1_sensitivity, 2.0);
  EXPECT_EQ(back.epsilon, 0.75);
  EXPECT_EQ(back.delta, 1e-5);
  EXPECT_EQ(back.best_alpha, 8.5);
  EXPECT_EQ(back.cumulative_epsilon, 0.75);
}

TEST(ReportIoTest, MissingPrivacyLedgerBlockLoadsAsEmpty) {
  // Reports written before the observability release have no
  // "privacy_ledger" member; loading them must succeed with an empty
  // ledger, not fail on a missing key.
  SqmReport report;
  report.estimate = {1.0};
  report.raw = {1};
  std::string json = SqmReportToJson(report);
  const size_t pos = json.find(",\"privacy_ledger\":[]");
  ASSERT_NE(pos, std::string::npos);
  json.erase(pos, std::string(",\"privacy_ledger\":[]").size());

  const auto parsed = SqmReportFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.ValueOrDie().ledger.empty());
}

TEST(ReportIoTest, MalformedLedgerEntryFailsWithStatus) {
  SqmReport report;
  report.estimate = {1.0};
  report.raw = {1};
  std::string json = SqmReportToJson(report);
  const size_t pos = json.find("\"privacy_ledger\":[]");
  ASSERT_NE(pos, std::string::npos);
  // An entry missing every required field.
  json.replace(pos, std::string("\"privacy_ledger\":[]").size(),
               "\"privacy_ledger\":[{\"mechanism\":\"skellam\"}]");
  const auto parsed = SqmReportFromJson(json);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);
}

TEST(ReportIoTest, DropoutPolicyStringsRoundTrip) {
  for (DropoutPolicy policy : {DropoutPolicy::kAbort, DropoutPolicy::kDegrade}) {
    const auto back = DropoutPolicyFromString(DropoutPolicyToString(policy));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.ValueOrDie(), policy);
  }
  EXPECT_FALSE(DropoutPolicyFromString("nonsense").ok());
  EXPECT_FALSE(DropoutPolicyFromString("topup").ok());  // Retired policy.
}

}  // namespace
}  // namespace sqm
