#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/obs/json.h"

namespace fstg::obs {

/// --- Schema checks -------------------------------------------------------
///
/// The JSON Schema files under schemas/ are the checks. Their text is
/// embedded at build time, and each is compiled on first use, once per
/// process, by a validator for exactly the keywords those files use:
/// type, required, properties, items, const, enum, minimum, maximum,
/// minItems, maxItems, pattern (std::regex ECMAScript, JSON Schema's own
/// regex dialect) and if/then. The annotations $schema, $id, title,
/// description and examples are ignored; any other keyword fails the load.
///
/// Only the rules a schema cannot state are code, applied by check_json
/// after the schema passes:
///   - fstg_lint: the severity totals equal the tally over the findings;
///   - fstg_telemetry: progress_done <= progress_total when the total is
///     non-zero;
///   - fstg_serve_response: an error message is present exactly when the
///     status is not ok;
///   - fstg_serve_request: gen/sim/lint requests name a circuit or kiss2,
///     and sim requests carry tests.

/// Parse `text` and check it against schemas/<schema>.schema.json (e.g.
/// "fstg_run") plus that format's rules above. On success the parsed tree
/// is moved into *doc when `doc` is non-null. On failure returns false
/// with a message that names the offending location as a JSON Pointer.
/// Never throws on bad input; an unknown schema name is a programming
/// error and throws Error.
bool check_json(std::string_view schema, std::string_view text, Json* doc,
                std::string* error);

/// Every embedded schema as (name, text), sorted by name.
const std::vector<std::pair<std::string, std::string>>& embedded_schemas();

/// Compile one schema text under the loader's rules (unknown keywords,
/// mistyped keyword values and bad patterns are errors). check_json loads
/// the embedded schemas through this.
bool load_schema(std::string_view text, std::string* error);

}  // namespace fstg::obs
