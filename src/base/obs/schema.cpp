#include "base/obs/schema.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <regex>

#include "base/error.h"

namespace fstg::obs {

namespace {

/// One compiled schema object: the keywords it carries.
struct Rule {
  std::string type;  ///< "" when any type is allowed
  std::vector<std::string> required;
  std::vector<std::string> names;  ///< `properties` member names
  std::vector<Rule> properties;    ///< parallel to `names`
  std::unique_ptr<Rule> items, cond, then;
  std::optional<Json> constant;
  std::optional<std::vector<Json>> allowed;  ///< `enum`
  double minimum = -HUGE_VAL, maximum = HUGE_VAL;
  double min_items = 0, max_items = HUGE_VAL;
  std::string pattern_text;
  std::optional<std::regex> pattern;
};

bool is_scalar(const Json& v) {
  return v.kind != Json::Kind::kArray && v.kind != Json::Kind::kObject;
}

/// A value as messages show it (long strings cut short).
std::string show(const Json& v) {
  char buf[32];
  switch (v.kind) {
    case Json::Kind::kNull: return "null";
    case Json::Kind::kBool: return v.boolean ? "true" : "false";
    case Json::Kind::kNumber:
      return std::string(buf, std::to_chars(buf, buf + 32, v.number).ptr);
    case Json::Kind::kString:
      return v.string.size() <= 40 ? json_quote(v.string)
                                   : json_quote(v.string.substr(0, 40)) + "...";
    default: return v.kind == Json::Kind::kArray ? "an array" : "an object";
  }
}

bool compile(const Json& s, const std::string& at, Rule* rule,
             std::string* error) {
  if (s.kind != Json::Kind::kObject) {
    *error = (at.empty() ? "schema" : at) + ": a schema must be an object";
    return false;
  }
  for (std::size_t i = 0; i < s.keys.size(); ++i) {
    const std::string& key = s.keys[i];
    const Json& v = s.items[i];
    const std::string here = at + "/" + key;
    auto bad = [&](const char* why) {
      *error = here + ": " + why;
      return false;
    };
    if (key == "$schema" || key == "$id" || key == "title" ||
        key == "description" || key == "examples") {
      continue;  // annotations
    } else if (key == "type") {
      static const char* const kTypes[] = {"null",   "boolean", "number",
                                           "integer", "string", "array",
                                           "object"};
      if (std::none_of(std::begin(kTypes), std::end(kTypes),
                       [&](const char* t) { return v.string == t; }))
        return bad("unknown type");
      rule->type = v.string;
    } else if (key == "required") {
      if (v.kind != Json::Kind::kArray) return bad("must be an array");
      for (const Json& name : v.items) {
        if (name.kind != Json::Kind::kString) return bad("must list names");
        rule->required.push_back(name.string);
      }
    } else if (key == "properties") {
      if (v.kind != Json::Kind::kObject) return bad("must be an object");
      rule->names = v.keys;
      rule->properties.resize(v.items.size());
      for (std::size_t j = 0; j < v.items.size(); ++j)
        if (!compile(v.items[j], here + "/" + v.keys[j], &rule->properties[j],
                     error))
          return false;
    } else if (key == "items" || key == "if" || key == "then") {
      std::unique_ptr<Rule>& sub =
          key == "items" ? rule->items : key == "if" ? rule->cond : rule->then;
      sub = std::make_unique<Rule>();
      if (!compile(v, here, sub.get(), error)) return false;
    } else if (key == "const") {
      if (!is_scalar(v)) return bad("only scalar values are supported");
      rule->constant = v;
    } else if (key == "enum") {
      if (v.kind != Json::Kind::kArray || v.items.empty() ||
          !std::all_of(v.items.begin(), v.items.end(), is_scalar))
        return bad("must list scalar values");
      rule->allowed = v.items;
    } else if (key == "minimum" || key == "maximum") {
      if (v.kind != Json::Kind::kNumber) return bad("must be a number");
      (key == "minimum" ? rule->minimum : rule->maximum) = v.number;
    } else if (key == "minItems" || key == "maxItems") {
      if (v.kind != Json::Kind::kNumber || v.number < 0 ||
          std::floor(v.number) != v.number)
        return bad("must be a non-negative integer");
      (key == "minItems" ? rule->min_items : rule->max_items) = v.number;
    } else if (key == "pattern") {
      if (v.kind != Json::Kind::kString) return bad("must be a string");
      try {
        rule->pattern.emplace(v.string, std::regex::ECMAScript);
      } catch (const std::regex_error&) {
        return bad("invalid regular expression");
      }
      rule->pattern_text = v.string;
    } else {
      return bad("unsupported keyword");
    }
  }
  return true;
}

bool has_type(const Json& v, const std::string& type) {
  switch (v.kind) {
    case Json::Kind::kNull: return type == "null";
    case Json::Kind::kBool: return type == "boolean";
    case Json::Kind::kNumber:
      return type == "number" ||
             (type == "integer" && std::floor(v.number) == v.number);
    case Json::Kind::kString: return type == "string";
    case Json::Kind::kArray: return type == "array";
    case Json::Kind::kObject: return type == "object";
  }
  return false;
}

bool same(const Json& a, const Json& b) {
  return a.kind == b.kind && a.boolean == b.boolean && a.number == b.number &&
         a.string == b.string;
}

bool check(const Rule& r, const Json& v, std::string& at, std::string* error);

/// check() one level down, with `seg` appended to the pointer `at`.
bool check_child(const Rule& r, const Json& v, std::string& at,
                 std::string_view seg, std::string* error) {
  const std::size_t len = at.size();
  at.append("/").append(seg);
  const bool ok = check(r, v, at, error);
  at.resize(len);
  return ok;
}

/// Check `v` (at JSON Pointer `at`) against `r`; stops at the first
/// violation. `error` may be null (the `if` of an if/then).
bool check(const Rule& r, const Json& v, std::string& at, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error) *error = (at.empty() ? "document" : at) + ": " + why;
    return false;
  };
  if (!r.type.empty() && !has_type(v, r.type))
    return fail("expected " + r.type + ", got " + show(v));
  if (r.constant && !same(*r.constant, v))
    return fail("expected " + show(*r.constant) + ", got " + show(v));
  if (r.allowed && std::none_of(r.allowed->begin(), r.allowed->end(),
                                [&](const Json& a) { return same(a, v); }))
    return fail(show(v) + " is not one of the allowed values");
  if (v.kind == Json::Kind::kNumber &&
      (v.number < r.minimum || v.number > r.maximum))
    return fail(show(v) + " is out of range");
  if (v.kind == Json::Kind::kString && r.pattern &&
      !std::regex_search(v.string, *r.pattern))
    return fail(show(v) + " does not match " + r.pattern_text);
  if (v.kind == Json::Kind::kArray) {
    const double n = static_cast<double>(v.items.size());
    if (n < r.min_items || n > r.max_items)
      return fail(std::to_string(v.items.size()) + " items is out of range");
    for (std::size_t i = 0; r.items && i < v.items.size(); ++i)
      if (!check_child(*r.items, v.items[i], at, std::to_string(i), error))
        return false;
  }
  if (v.kind == Json::Kind::kObject) {
    for (const std::string& name : r.required)
      if (v.find(name) == nullptr) return fail("missing member " + name);
    for (std::size_t i = 0; i < r.names.size(); ++i) {
      const Json* member = v.find(r.names[i]);
      if (member != nullptr &&
          !check_child(r.properties[i], *member, at, r.names[i], error))
        return false;
    }
  }
  if (r.cond && r.then && check(*r.cond, v, at, nullptr))
    return check(*r.then, v, at, error);
  return true;
}

/// The rules a schema cannot state (listed in schema.h). `doc` already
/// passed its schema, so the members read here exist with their types.
std::string broken_rule(std::string_view schema, const Json& doc) {
  if (schema == "fstg_lint") {
    double errors = 0, warnings = 0, infos = 0;
    for (const Json& f : doc.find("findings")->items) {
      const std::string& severity = f.str("severity");
      ++(severity == "error" ? errors : severity == "warn" ? warnings : infos);
    }
    if (doc.num("errors") != errors || doc.num("warnings") != warnings ||
        doc.num("infos") != infos)
      return "severity totals disagree with the findings array";
  } else if (schema == "fstg_telemetry") {
    const double total = doc.num("progress_total");
    if (total > 0 && doc.num("progress_done") > total)
      return "progress_done exceeds progress_total";
  } else if (schema == "fstg_serve_response") {
    const bool ok = doc.str("status") == "ok";
    if (ok != doc.str("error").empty())
      return ok ? "ok response carries an error message"
                : "non-ok response without an error message";
  } else if (schema == "fstg_serve_request") {
    const std::string& type = doc.str("type");
    if ((type == "gen" || type == "sim" || type == "lint") &&
        doc.find("circuit") == nullptr && doc.find("kiss2") == nullptr)
      return type + " request without circuit or kiss2";
    if (type == "sim" && doc.find("tests") == nullptr)
      return "sim request without tests";
  }
  return std::string();
}

bool load(std::string_view text, Rule* rule, std::string* error) {
  Json tree;
  return parse_json(text, &tree, error) && compile(tree, "", rule, error);
}

/// The embedded schema `name`, compiled on first use: once per process,
/// and only the schemas a process uses.
const Rule& compiled(std::string_view name) {
  struct Entry {
    std::once_flag once;
    Rule rule;
  };
  const auto& table = embedded_schemas();
  static const std::unique_ptr<Entry[]> entries =
      std::make_unique<Entry[]>(table.size());
  const auto it = std::find_if(table.begin(), table.end(), [&](const auto& s) {
    return s.first == name;
  });
  require(it != table.end(), "no schema named " + std::string(name));
  Entry& entry = entries[static_cast<std::size_t>(it - table.begin())];
  std::call_once(entry.once, [&] {
    std::string error;
    require(load(it->second, &entry.rule, &error),
            "schemas/" + it->first + ".schema.json: " + error);
  });
  return entry.rule;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& embedded_schemas() {
  // fstg_schemas.inc is generated at configure time from schemas/*.json.
  static const std::vector<std::pair<std::string, std::string>> table = {
#include "fstg_schemas.inc"
  };
  return table;
}

bool load_schema(std::string_view text, std::string* error) {
  Rule rule;
  return load(text, &rule, error);
}

bool check_json(std::string_view schema, std::string_view text, Json* doc,
                std::string* error) {
  const Rule& rule = compiled(schema);
  Json tree;
  std::string at;
  if (!parse_json(text, &tree, error) || !check(rule, tree, at, error))
    return false;
  const std::string broken = broken_rule(schema, tree);
  if (!broken.empty()) {
    if (error) *error = broken;
    return false;
  }
  if (doc) *doc = std::move(tree);
  return true;
}

}  // namespace fstg::obs
