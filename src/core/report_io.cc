#include "core/report_io.h"

#include <cmath>

namespace sqm {

namespace {

/// Structured accessors for reloading reports: every mismatch is a Status
/// naming the offending key, never a crash.
Status RequireKind(const JsonValue& value, JsonValue::Kind kind,
                   const std::string& what) {
  if (value.kind != kind) {
    return Status::IoError("JSON field \"" + what +
                           "\" has the wrong type");
  }
  return Status::OK();
}

Result<const JsonValue*> RequireMember(const JsonValue& object,
                                       const std::string& key) {
  const JsonValue* member = object.Find(key);
  if (member == nullptr) {
    return Status::IoError("JSON object is missing required key \"" + key +
                           "\"");
  }
  return member;
}

Result<double> NumberField(const JsonValue& object, const std::string& key) {
  SQM_ASSIGN_OR_RETURN(const JsonValue* member, RequireMember(object, key));
  if (member->kind == JsonValue::Kind::kNull) return 0.0;  // NaN/Inf.
  SQM_RETURN_NOT_OK(RequireKind(*member, JsonValue::Kind::kNumber, key));
  return member->number;
}

Result<uint64_t> UintField(const JsonValue& object, const std::string& key) {
  SQM_ASSIGN_OR_RETURN(const JsonValue* member, RequireMember(object, key));
  SQM_RETURN_NOT_OK(RequireKind(*member, JsonValue::Kind::kNumber, key));
  if (!member->is_integer || member->is_negative) {
    return Status::IoError("JSON field \"" + key +
                           "\" is not an unsigned integer");
  }
  return member->uint_value;
}

Result<std::string> StringField(const JsonValue& object,
                                const std::string& key) {
  SQM_ASSIGN_OR_RETURN(const JsonValue* member, RequireMember(object, key));
  SQM_RETURN_NOT_OK(RequireKind(*member, JsonValue::Kind::kString, key));
  return member->string_value;
}

Result<int64_t> IntElement(const JsonValue& value, const std::string& what) {
  SQM_RETURN_NOT_OK(RequireKind(value, JsonValue::Kind::kNumber, what));
  if (!value.is_integer) {
    return Status::IoError("JSON field \"" + what +
                           "\" is not a 64-bit integer");
  }
  return value.int_value;
}

void WriteNetworkStatsFields(JsonWriter& writer, const NetworkStats& stats) {
  writer.Field("messages", stats.messages)
      .Field("field_elements", stats.field_elements)
      .Field("bytes", stats.bytes())
      .Field("rounds", stats.rounds);
}

void WriteTransportStatsFields(JsonWriter& writer,
                               const TransportStats& stats) {
  writer.Field("num_parties", static_cast<uint64_t>(stats.num_parties));
  writer.Key("totals").BeginObject();
  WriteNetworkStatsFields(writer, stats.totals);
  writer.EndObject();
  writer.BeginArray("channels");
  for (const ChannelStats& channel : stats.channels) {
    writer.BeginObject()
        .Field("from", static_cast<uint64_t>(channel.from))
        .Field("to", static_cast<uint64_t>(channel.to))
        .Field("messages", channel.messages)
        .Field("field_elements", channel.field_elements)
        .Field("bytes", channel.wire_bytes)
        .EndObject();
  }
  writer.EndArray();
  writer.BeginArray("phases");
  for (const PhaseStats& phase : stats.phases) {
    writer.BeginObject().Field("phase", phase.phase);
    WriteNetworkStatsFields(writer, phase.traffic);
    writer.EndObject();
  }
  writer.EndArray();
  writer.Field("drops_injected", stats.drops_injected)
      .Field("receive_timeouts", stats.receive_timeouts)
      .Field("retries", stats.retries)
      .Field("crash_losses", stats.crash_losses)
      .Field("simulated_seconds", stats.simulated_seconds)
      .Field("wall_seconds", stats.wall_seconds);
}

void WriteLedgerEntryFields(JsonWriter& writer,
                            const obs::LedgerEntry& entry) {
  writer.Field("sequence", entry.sequence)
      .Field("elapsed_seconds", entry.elapsed_seconds)
      .Field("mechanism", entry.mechanism)
      .Field("label", entry.label)
      .Field("mu", entry.mu)
      .Field("gamma", entry.gamma)
      .Field("dimension", static_cast<uint64_t>(entry.dimension))
      .Field("l1_sensitivity", entry.l1_sensitivity)
      .Field("l2_sensitivity", entry.l2_sensitivity)
      .Field("sampling_rate", entry.sampling_rate)
      .Field("count", entry.count)
      .Field("epsilon", entry.epsilon)
      .Field("delta", entry.delta)
      .Field("best_alpha", entry.best_alpha)
      .Field("cumulative_epsilon", entry.cumulative_epsilon);
}

Result<obs::LedgerEntry> LedgerEntryFromJson(const JsonValue& object) {
  SQM_RETURN_NOT_OK(
      RequireKind(object, JsonValue::Kind::kObject, "privacy_ledger[i]"));
  obs::LedgerEntry entry;
  SQM_ASSIGN_OR_RETURN(entry.sequence, UintField(object, "sequence"));
  SQM_ASSIGN_OR_RETURN(entry.elapsed_seconds,
                       NumberField(object, "elapsed_seconds"));
  SQM_ASSIGN_OR_RETURN(entry.mechanism, StringField(object, "mechanism"));
  SQM_ASSIGN_OR_RETURN(entry.label, StringField(object, "label"));
  SQM_ASSIGN_OR_RETURN(entry.mu, NumberField(object, "mu"));
  SQM_ASSIGN_OR_RETURN(entry.gamma, NumberField(object, "gamma"));
  SQM_ASSIGN_OR_RETURN(const uint64_t dimension,
                       UintField(object, "dimension"));
  entry.dimension = static_cast<size_t>(dimension);
  SQM_ASSIGN_OR_RETURN(entry.l1_sensitivity,
                       NumberField(object, "l1_sensitivity"));
  SQM_ASSIGN_OR_RETURN(entry.l2_sensitivity,
                       NumberField(object, "l2_sensitivity"));
  SQM_ASSIGN_OR_RETURN(entry.sampling_rate,
                       NumberField(object, "sampling_rate"));
  SQM_ASSIGN_OR_RETURN(entry.count, UintField(object, "count"));
  SQM_ASSIGN_OR_RETURN(entry.epsilon, NumberField(object, "epsilon"));
  SQM_ASSIGN_OR_RETURN(entry.delta, NumberField(object, "delta"));
  SQM_ASSIGN_OR_RETURN(entry.best_alpha, NumberField(object, "best_alpha"));
  SQM_ASSIGN_OR_RETURN(entry.cumulative_epsilon,
                       NumberField(object, "cumulative_epsilon"));
  return entry;
}

}  // namespace

std::string SqmReportToJson(const SqmReport& report) {
  JsonWriter writer;
  writer.BeginObject();
  writer.BeginArray("estimate");
  for (double v : report.estimate) writer.Value(v);
  writer.EndArray();
  writer.BeginArray("raw");
  for (int64_t v : report.raw) writer.Value(v);
  writer.EndArray();
  writer.Key("timing").BeginObject()
      .Field("quantize_seconds", report.timing.quantize_seconds)
      .Field("noise_sampling_seconds",
             report.timing.noise_sampling_seconds)
      .Field("mpc_compute_seconds", report.timing.mpc_compute_seconds)
      .Field("simulated_network_seconds",
             report.timing.simulated_network_seconds)
      .Field("noise_injection_seconds",
             report.timing.noise_injection_seconds)
      .Field("total_seconds", report.timing.TotalSeconds())
      .EndObject();
  writer.Key("transport").BeginObject();
  WriteTransportStatsFields(writer, report.transport);
  writer.EndObject();
  writer.Key("dropout").BeginObject()
      .Field("policy", std::string(DropoutPolicyToString(
                           report.dropout.policy)))
      .Field("num_parties", static_cast<uint64_t>(
                                report.dropout.num_parties))
      .Field("num_dropped", static_cast<uint64_t>(
                                report.dropout.num_dropped));
  writer.BeginArray("survivors");
  for (size_t j : report.dropout.survivors) {
    writer.Value(static_cast<uint64_t>(j));
  }
  writer.EndArray();
  writer.Field("configured_mu", report.dropout.configured_mu)
      .Field("realized_mu", report.dropout.realized_mu)
      .Field("configured_epsilon", report.dropout.configured_epsilon)
      .Field("realized_epsilon", report.dropout.realized_epsilon)
      .Field("delta", report.dropout.delta)
      .Field("best_alpha", report.dropout.best_alpha)
      .Field("mpc_attempts", static_cast<uint64_t>(
                                 report.dropout.mpc_attempts))
      .Field("resumed_from_level",
             static_cast<uint64_t>(report.dropout.resumed_from_level))
      .EndObject();
  writer.BeginArray("privacy_ledger");
  for (const obs::LedgerEntry& entry : report.ledger) {
    writer.BeginObject();
    WriteLedgerEntryFields(writer, entry);
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  return writer.str();
}

Result<SqmReport> SqmReportFromJson(const std::string& json) {
  SQM_ASSIGN_OR_RETURN(const JsonValue root, ParseJson(json));
  SQM_RETURN_NOT_OK(RequireKind(root, JsonValue::Kind::kObject, "<root>"));
  SqmReport report;

  SQM_ASSIGN_OR_RETURN(const JsonValue* raw, RequireMember(root, "raw"));
  SQM_RETURN_NOT_OK(RequireKind(*raw, JsonValue::Kind::kArray, "raw"));
  for (const JsonValue& item : raw->items) {
    SQM_ASSIGN_OR_RETURN(const int64_t v, IntElement(item, "raw[i]"));
    report.raw.push_back(v);
  }

  SQM_ASSIGN_OR_RETURN(const JsonValue* dropout,
                       RequireMember(root, "dropout"));
  SQM_RETURN_NOT_OK(
      RequireKind(*dropout, JsonValue::Kind::kObject, "dropout"));
  SQM_ASSIGN_OR_RETURN(const std::string policy,
                       StringField(*dropout, "policy"));
  SQM_ASSIGN_OR_RETURN(report.dropout.policy,
                       DropoutPolicyFromString(policy));
  SQM_ASSIGN_OR_RETURN(const uint64_t num_parties,
                       UintField(*dropout, "num_parties"));
  report.dropout.num_parties = static_cast<size_t>(num_parties);
  SQM_ASSIGN_OR_RETURN(const uint64_t num_dropped,
                       UintField(*dropout, "num_dropped"));
  report.dropout.num_dropped = static_cast<size_t>(num_dropped);
  SQM_ASSIGN_OR_RETURN(const JsonValue* survivors,
                       RequireMember(*dropout, "survivors"));
  SQM_RETURN_NOT_OK(RequireKind(*survivors, JsonValue::Kind::kArray,
                                "dropout.survivors"));
  for (const JsonValue& item : survivors->items) {
    SQM_ASSIGN_OR_RETURN(const int64_t j,
                         IntElement(item, "dropout.survivors[i]"));
    if (j < 0) {
      return Status::IoError("dropout.survivors[i] is negative");
    }
    report.dropout.survivors.push_back(static_cast<size_t>(j));
  }
  SQM_ASSIGN_OR_RETURN(report.dropout.configured_mu,
                       NumberField(*dropout, "configured_mu"));
  SQM_ASSIGN_OR_RETURN(report.dropout.realized_mu,
                       NumberField(*dropout, "realized_mu"));
  SQM_ASSIGN_OR_RETURN(report.dropout.configured_epsilon,
                       NumberField(*dropout, "configured_epsilon"));
  SQM_ASSIGN_OR_RETURN(report.dropout.realized_epsilon,
                       NumberField(*dropout, "realized_epsilon"));
  SQM_ASSIGN_OR_RETURN(report.dropout.delta,
                       NumberField(*dropout, "delta"));
  SQM_ASSIGN_OR_RETURN(report.dropout.best_alpha,
                       NumberField(*dropout, "best_alpha"));
  SQM_ASSIGN_OR_RETURN(const uint64_t mpc_attempts,
                       UintField(*dropout, "mpc_attempts"));
  report.dropout.mpc_attempts = static_cast<size_t>(mpc_attempts);
  SQM_ASSIGN_OR_RETURN(const uint64_t resumed_from_level,
                       UintField(*dropout, "resumed_from_level"));
  report.dropout.resumed_from_level =
      static_cast<size_t>(resumed_from_level);

  // Pre-observability reports have no ledger block; load those as empty
  // rather than failing, so archived artifacts stay readable.
  if (const JsonValue* ledger = root.Find("privacy_ledger")) {
    SQM_RETURN_NOT_OK(
        RequireKind(*ledger, JsonValue::Kind::kArray, "privacy_ledger"));
    for (const JsonValue& item : ledger->items) {
      SQM_ASSIGN_OR_RETURN(obs::LedgerEntry entry,
                           LedgerEntryFromJson(item));
      report.ledger.push_back(std::move(entry));
    }
  }
  return report;
}

}  // namespace sqm
