#include "lint/diagnostic.h"

#include <algorithm>
#include <sstream>

#include "base/error.h"
#include "base/obs/json.h"
#include "base/obs/metrics.h"

namespace fstg::lint {

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarn: return "warn";
    case Severity::kError: return "error";
  }
  return "?";
}

bool parse_severity(std::string_view text, Severity* out) {
  if (text == "info") { *out = Severity::kInfo; return true; }
  if (text == "warn") { *out = Severity::kWarn; return true; }
  if (text == "error") { *out = Severity::kError; return true; }
  return false;
}

const std::vector<RuleInfo>& rule_catalog() {
  // Sorted by id; find_rule binary-searches. docs/LINTING.md carries the
  // rationale and an example finding for every entry — keep the two lists
  // in sync (test_lint.cpp cross-checks the doc).
  static const std::vector<RuleInfo> kCatalog = {
      {"fault-bad-pin", Severity::kError,
       "pin fault references a pin index the gate does not have"},
      {"fault-bridge-feedback", Severity::kError,
       "bridged lines have a structural path between them (feedback bridge)"},
      {"fault-bridge-same-ffr", Severity::kWarn,
       "bridged lines lie in the same fanout-free region"},
      {"fault-bridge-shared-gate", Severity::kWarn,
       "bridged lines feed the same gate (paper condition 2 excludes this)"},
      {"fault-circuit-mismatch", Severity::kWarn,
       "fault list names a different circuit than the one being linted"},
      {"fault-duplicate", Severity::kWarn,
       "the same fault appears more than once in the list"},
      {"fault-equivalent", Severity::kInfo,
       "gate-local equivalence collapsing would merge this fault with "
       "another entry"},
      {"fault-on-const", Severity::kWarn,
       "stuck-at fault on a constant line is untestable"},
      {"fault-static-redundant", Severity::kWarn,
       "static implication analysis proves the fault untestable"},
      {"fault-unknown-net", Severity::kError,
       "fault references a net that does not exist in the circuit"},
      {"fsm-equivalent-states", Severity::kWarn,
       "two states are output-equivalent; neither can have a UIO"},
      {"fsm-incomplete", Severity::kWarn,
       "some (state, input) combinations are not covered by any row"},
      {"fsm-no-uio", Severity::kWarn,
       "state has no UIO of length <= N_SV; tests of its incoming "
       "transitions always end in a scan-out"},
      {"fsm-nondeterministic", Severity::kError,
       "overlapping rows give conflicting next state or output"},
      {"fsm-redundant-row", Severity::kWarn,
       "row is subsumed by an earlier row with the same next state and "
       "output"},
      {"fsm-unreachable-state", Severity::kWarn,
       "state cannot be reached from the reset state"},
      {"net-blocked-cone", Severity::kWarn,
       "structurally observable gate whose fault effects can never reach an "
       "output (implied side inputs block every dominator)"},
      {"net-comb-cycle", Severity::kError,
       "combinational cycle through .names blocks"},
      {"net-constant", Severity::kWarn,
       "non-constant gate is statically stuck at one value"},
      {"net-dangling", Severity::kWarn,
       "net is driven but feeds no gate, output, or latch"},
      {"net-dead-cone", Severity::kWarn,
       "gate is unobservable at every output or fed by no input"},
      {"net-multiple-drivers", Severity::kError,
       "net is driven by more than one source"},
      {"net-undriven", Severity::kError,
       "net is used but never driven by an input, latch, or .names block"},
      {"scan-chain-broken", Severity::kError,
       "combinational port counts disagree with the declared scan "
       "interface"},
      {"scan-sv-constant", Severity::kWarn,
       "next-state line is driven by a constant; the state variable can "
       "never toggle"},
      {"scan-sv-unused", Severity::kWarn,
       "present-state line drives no logic and no output"},
  };
  return kCatalog;
}

const RuleInfo* find_rule(std::string_view id) {
  const std::vector<RuleInfo>& catalog = rule_catalog();
  auto it = std::lower_bound(
      catalog.begin(), catalog.end(), id,
      [](const RuleInfo& a, std::string_view b) { return a.id < b; });
  if (it == catalog.end() || id != it->id) return nullptr;
  return &*it;
}

void LintReport::add(std::string_view rule, std::string message,
                     std::string hint, SourceLoc loc) {
  const RuleInfo* info = find_rule(rule);
  require(info != nullptr, "lint: unknown rule id " + std::string(rule));
  add(rule, info->severity, std::move(message), std::move(hint),
      std::move(loc));
}

void LintReport::add(std::string_view rule, Severity severity,
                     std::string message, std::string hint, SourceLoc loc) {
  require(find_rule(rule) != nullptr,
          "lint: unknown rule id " + std::string(rule));
  Finding f;
  f.rule = std::string(rule);
  f.severity = severity;
  f.message = std::move(message);
  f.hint = std::move(hint);
  f.loc = std::move(loc);
  findings_.push_back(std::move(f));
}

std::size_t LintReport::count(Severity severity) const {
  std::size_t n = 0;
  for (const Finding& f : findings_) n += f.severity == severity ? 1 : 0;
  return n;
}

std::size_t LintReport::count_rule(std::string_view rule) const {
  std::size_t n = 0;
  for (const Finding& f : findings_) n += f.rule == rule ? 1 : 0;
  return n;
}

void LintReport::sort_findings() {
  std::stable_sort(findings_.begin(), findings_.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.loc.file != b.loc.file) return a.loc.file < b.loc.file;
                     if (a.rule != b.rule) return a.rule < b.rule;
                     return a.loc.line < b.loc.line;
                   });
}

void LintReport::merge(LintReport&& other) {
  truncated = truncated || other.truncated;
  findings_.reserve(findings_.size() + other.findings_.size());
  for (Finding& f : other.findings_) findings_.push_back(std::move(f));
  other.findings_.clear();
}

std::string report_to_text(const LintReport& report) {
  std::ostringstream os;
  for (const Finding& f : report.findings()) {
    const std::string& file =
        !f.loc.file.empty() ? f.loc.file
                            : (!report.source.empty() ? report.source
                                                      : std::string("<input>"));
    os << file;
    if (f.loc.line > 0) os << ":" << f.loc.line;
    os << ": " << severity_name(f.severity) << ": [" << f.rule << "] "
       << f.message << "\n";
    if (!f.hint.empty()) os << "    hint: " << f.hint << "\n";
  }
  os << report.errors() << " error(s), " << report.warnings()
     << " warning(s), " << report.infos() << " info(s)";
  if (report.truncated) os << " (truncated: lint budget exhausted)";
  os << "\n";
  return os.str();
}

std::string report_to_json(const LintReport& report) {
  using obs::json_quote;
  std::ostringstream os;
  os << "{\n  \"schema\": \"fstg.lint.v1\",\n"
     << "  \"source\": " << json_quote(report.source) << ",\n"
     << "  \"errors\": " << report.errors() << ",\n"
     << "  \"warnings\": " << report.warnings() << ",\n"
     << "  \"infos\": " << report.infos() << ",\n"
     << "  \"truncated\": " << (report.truncated ? "true" : "false") << ",\n"
     << "  \"findings\": [\n";
  const std::vector<Finding>& findings = report.findings();
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << "    {\"rule\": " << json_quote(f.rule) << ", \"severity\": \""
       << severity_name(f.severity) << "\", \"message\": "
       << json_quote(f.message) << ", \"hint\": " << json_quote(f.hint)
       << ", \"file\": " << json_quote(f.loc.file)
       << ", \"line\": " << f.loc.line << "}"
       << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

void record_lint_metrics(const LintReport& report) {
  static const obs::Counter c_runs = obs::counter("lint.runs");
  static const obs::Counter c_errors = obs::counter("lint.errors");
  static const obs::Counter c_warnings = obs::counter("lint.warnings");
  static const obs::Counter c_truncated = obs::counter("lint.truncated");
  c_runs.inc();
  c_errors.add(report.errors());
  c_warnings.add(report.warnings());
  if (report.truncated) c_truncated.inc();
  for (const Finding& f : report.findings())
    obs::counter("lint.findings." + f.rule).inc();
}

void register_lint_counters() {
  obs::counter("lint.runs");
  obs::counter("lint.errors");
  obs::counter("lint.warnings");
  obs::counter("lint.truncated");
  for (const RuleInfo& rule : rule_catalog())
    obs::counter(std::string("lint.findings.") + rule.id);
}

}  // namespace fstg::lint
