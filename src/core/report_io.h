#ifndef SQM_CORE_REPORT_IO_H_
#define SQM_CORE_REPORT_IO_H_

#include <string>

#include "core/json.h"
#include "core/sqm.h"

namespace sqm {

// JsonWriter, JsonValue and ParseJson moved to core/json.h (base layer) so
// the observability runtime and logger can emit JSON; this header re-exports
// them for existing consumers.

/// Serializes an SQM release report (estimates, raw integers, timing,
/// the transport block — totals, per-channel and per-phase traffic,
/// fault/retry counters, clocks — dropout accounting and privacy ledger)
/// to a JSON object.
std::string SqmReportToJson(const SqmReport& report);

/// Reloads the parts of a SqmReportToJson document that its readers use:
/// `raw` and `dropout` (both required) and `privacy_ledger` (a missing
/// block — pre-observability reports — loads as an empty ledger). The
/// estimate, timing and transport blocks are not reloaded and stay
/// default in the result. Malformed or structurally wrong documents fail
/// with a Status, never a crash.
Result<SqmReport> SqmReportFromJson(const std::string& json);

}  // namespace sqm

#endif  // SQM_CORE_REPORT_IO_H_
