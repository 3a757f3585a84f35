#ifndef SQM_CORE_JSON_H_
#define SQM_CORE_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"

namespace sqm {

/// Minimal JSON writer used to persist experiment artifacts — release
/// reports, timing breakdowns, network counters, Chrome trace-event files
/// — so downstream analysis (plotting the reproduced
/// figures, regression-tracking the tables, loading a trace in Perfetto)
/// does not have to scrape stdout. ParseJson below is the matching
/// consumer, used to reload release reports, deployment configs and
/// traces.
///
/// Lives in the base layer (alongside status and logging) so every
/// subsystem — including the observability runtime in src/obs/ — can emit
/// JSON without depending on the full report pipeline.
class JsonWriter {
 public:
  JsonWriter();

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray(const std::string& key = "");
  JsonWriter& EndArray();

  JsonWriter& Key(const std::string& key);
  JsonWriter& Value(double value);
  JsonWriter& Value(uint64_t value);
  JsonWriter& Value(int64_t value);
  JsonWriter& Value(const std::string& value);
  JsonWriter& Value(bool value);
  /// Disambiguation overloads: without these, a literal like "ms" would
  /// silently pick the bool overload and an int literal is ambiguous.
  JsonWriter& Value(const char* value) { return Value(std::string(value)); }
  JsonWriter& Value(int value) { return Value(static_cast<int64_t>(value)); }

  /// Convenience: Key(key) + Value(value).
  template <typename T>
  JsonWriter& Field(const std::string& key, const T& value) {
    Key(key);
    return Value(value);
  }

  /// The accumulated document.
  std::string str() const { return out_; }

 private:
  void MaybeComma();
  void Escape(const std::string& raw);

  std::string out_;
  std::vector<bool> needs_comma_;
};

/// A parsed JSON value. Numbers keep their exact integer representation
/// alongside the double: a deployment config's run_id, session_key, seed
/// and data_seed are full 64-bit values, beyond double's 2^53 of integer
/// precision, so a config read through the double would silently change
/// its session key and seeds.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;

  double number = 0.0;      ///< Numeric value (lossy above 2^53).
  bool is_integer = false;  ///< Lexically integral and within 64-bit range.
  bool is_negative = false;
  uint64_t uint_value = 0;  ///< Magnitude when is_integer.
  int64_t int_value = 0;    ///< Signed value when is_integer & representable.

  std::string string_value;
  std::vector<JsonValue> items;  ///< kArray elements.
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject.

  /// First member with the given key, or nullptr (object only).
  const JsonValue* Find(const std::string& key) const;
};

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage is an error). Malformed input fails with kIoError naming the
/// byte offset — never a crash.
Result<JsonValue> ParseJson(const std::string& text);

}  // namespace sqm

#endif  // SQM_CORE_JSON_H_
