#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace fstg::obs {

/// --- JSON reader and string writer ----------------------------------------
///
/// One parsed JSON document. The reader builds this tree once; the schema
/// checks in base/obs/schema.h run over it, and every consumer reads its
/// fields from the same tree.
struct Json {
  enum class Kind : unsigned char {
    kNull, kBool, kNumber, kString, kArray, kObject
  };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  /// Array elements, or object member values in document order.
  std::vector<Json> items;
  /// Object member names, parallel to `items`.
  std::vector<std::string> keys;

  /// Member `key` of an object (the last one when a name repeats, as in
  /// most JSON readers), or nullptr.
  const Json* find(std::string_view key) const;
  /// String member `key`, or "" when it is absent or not a string.
  const std::string& str(std::string_view key) const;
  /// Number member `key`, or `fallback` when it is absent or not a number.
  double num(std::string_view key, double fallback = 0.0) const;
};

/// Parse `text` as exactly one RFC 8259 JSON text into *out. Refuses what
/// the RFC refuses — bytes after the document, `+1`, `1.`, `.5`, leading
/// zeros, raw control bytes inside strings — and also nesting deeper than
/// 64 levels (`fstg serve` feeds it untrusted socket bytes) and \u
/// surrogates (escapes decode the Basic Multilingual Plane only). Returns
/// false with a byte-offset message in *error on malformed input.
bool parse_json(std::string_view text, Json* out, std::string* error);

/// `s` as a JSON string literal, quotes included: `"` and `\` escaped, and
/// every control byte written as \b \f \n \r \t or \u00XX. Every JSON
/// writer in the tree quotes its strings with this.
std::string json_quote(std::string_view s);

}  // namespace fstg::obs
