#ifndef PPN_COMMON_JSON_H_
#define PPN_COMMON_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file
/// Minimal JSON reader and writer for the telemetry tooling and results
/// files. The reader: `ppn_cli report` parses RunLog JSONL lines and
/// Chrome trace-event files that this repo itself writes, and the test
/// suite uses it to validate exporter output. It is a strict
/// recursive-descent parser over the full JSON grammar (objects, arrays,
/// strings with escapes, numbers, booleans, null) — not a streaming
/// parser; inputs here are at most a few MB.
///
/// The writer: every JSON file the repo emits (profiles, traces, run logs,
/// stats streams, sweep results) formats its strings with `JsonString` and
/// its double values with `JsonNumber`, so there is one escaper and one
/// double format, and everything written parses back through `ParseJson`.
/// Chrome-trace `ts`/`dur` fields are the one exception: microseconds at a
/// fixed three decimals, the trace format's own convention.

namespace ppn {

/// One parsed JSON value. A tagged tree: exactly the members matching
/// `type()` are meaningful.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Value accessors; PPN_CHECK-abort on type mismatch.
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const std::vector<JsonValue>& AsArray() const;

  /// Object members in document order (duplicate keys are kept as-is).
  const std::vector<std::pair<std::string, JsonValue>>& AsObject() const;

  /// Pointer to the first member named `key`, or nullptr. Checks this is
  /// an object.
  const JsonValue* Find(const std::string& key) const;

  /// Convenience lookups with fallback: nullptr/absent/mistyped members
  /// yield the fallback instead of aborting.
  double NumberOr(const std::string& key, double fallback) const;
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const;

  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool value);
  static JsonValue MakeNumber(double value);
  static JsonValue MakeString(std::string value);
  static JsonValue MakeArray(std::vector<JsonValue> items);
  static JsonValue MakeObject(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses `text` (one complete JSON document, optionally surrounded by
/// whitespace). On failure returns false and, when `error` is non-null,
/// describes the first offending byte and its offset.
bool ParseJson(std::string_view text, JsonValue* out,
               std::string* error = nullptr);

/// `text` as a quoted JSON string literal: `"` and `\` get a backslash,
/// every byte below 0x20 becomes `\u00xx`, and all other bytes (UTF-8
/// included) pass through unchanged.
std::string JsonString(std::string_view text);

/// `value` printed with %.17g, which round-trips every finite double
/// bit-exactly through `ParseJson`; `null` for infinities and NaN, which
/// JSON cannot represent.
std::string JsonNumber(double value);

/// Appends `value` as JSON: strings via `JsonString`, numbers via
/// `JsonNumber`, members and items in document order separated by ", "
/// (keys followed by ": ").
void AppendJsonValue(std::string* out, const JsonValue& value);

}  // namespace ppn

#endif  // PPN_COMMON_JSON_H_
