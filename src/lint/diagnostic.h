#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace fstg::lint {

/// Severity of one lint finding. `kError` means the input violates an
/// assumption the pipeline depends on (it would be rejected, crash, or be
/// silently mis-simulated downstream); `kWarn` flags constructs that are
/// legal but hurt functional testability or indicate likely mistakes;
/// `kInfo` is advisory.
enum class Severity : int { kInfo = 0, kWarn = 1, kError = 2 };

const char* severity_name(Severity severity);
/// Parses "info"/"warn"/"error"; returns false on anything else.
bool parse_severity(std::string_view text, Severity* out);

/// Source location of a finding, pointing back into the KISS2 / BLIF /
/// fault-list text the analyzer ran on. `line` 0 means "whole input" (the
/// finding is a property of the machine/netlist, not one line).
struct SourceLoc {
  std::string file;  ///< as the user named it; empty for in-memory inputs
  int line = 0;
};

/// One diagnostic produced by a lint pass.
struct Finding {
  std::string rule;     ///< stable rule id, e.g. "fsm-unreachable-state"
  Severity severity = Severity::kWarn;
  std::string message;  ///< what is wrong, naming the offending object(s)
  std::string hint;     ///< fix-it suggestion; may be empty
  SourceLoc loc;
};

/// Catalog entry for one rule: its stable id, default severity, and a
/// one-line summary. The full catalog (with rationale and an example
/// finding per rule) is documented in docs/LINTING.md.
struct RuleInfo {
  const char* id;
  Severity severity;
  const char* summary;
};

/// Every rule the analyzers can emit, sorted by id. A finding's rule id is
/// always one of these; the JSON golden test enforces it.
const std::vector<RuleInfo>& rule_catalog();

/// Catalog entry by id; nullptr if unknown.
const RuleInfo* find_rule(std::string_view id);

/// Accumulated findings of one lint run. Analyzers append in pass order;
/// the run_lint_* entry points sort by (file, rule, line) before emission
/// (sort_findings), so reports are stable across pass reordering.
class LintReport {
 public:
  /// Append a finding using the catalog's default severity for `rule`.
  /// Unknown rule ids are an internal bug and throw.
  void add(std::string_view rule, std::string message, std::string hint = {},
           SourceLoc loc = {});
  /// Append with an explicit severity override.
  void add(std::string_view rule, Severity severity, std::string message,
           std::string hint = {}, SourceLoc loc = {});

  const std::vector<Finding>& findings() const { return findings_; }
  std::size_t size() const { return findings_.size(); }
  bool empty() const { return findings_.empty(); }

  std::size_t count(Severity severity) const;
  std::size_t errors() const { return count(Severity::kError); }
  std::size_t warnings() const { return count(Severity::kWarn); }
  std::size_t infos() const { return count(Severity::kInfo); }
  bool has_errors() const { return errors() > 0; }

  /// Findings whose rule id equals `rule`.
  std::size_t count_rule(std::string_view rule) const;

  /// The lint budget ran out before every analysis finished; the findings
  /// present are valid, the absence of a finding proves nothing.
  bool truncated = false;

  /// Name of the linted input ("lion", "design.blif"); lands in the JSON.
  std::string source;

  /// Stable-sort findings by (file, rule, line) — the emission order of
  /// every run_lint_* entry point, so diffs between runs line up even when
  /// analyzer pass order changes. Ties keep analyzer emission order.
  void sort_findings();

  void merge(LintReport&& other);

 private:
  std::vector<Finding> findings_;
};

/// Human-readable rendering, one finding per line:
///   design.blif:12: error: [net-multiple-drivers] net n7 is driven by ...
///       hint: ...
/// followed by a `N error(s), M warning(s), K info(s)` summary line.
std::string report_to_text(const LintReport& report);

/// Schema `fstg.lint.v1` JSON (schemas/fstg_lint.schema.json), checked
/// with obs::check_json like the metrics and trace formats.
std::string report_to_json(const LintReport& report);

/// Bump `lint.findings.<rule>` counters (one per finding), `lint.errors` /
/// `lint.warnings` totals, and `lint.truncated` when the budget cut the
/// run short. Call once per completed report.
void record_lint_metrics(const LintReport& report);

/// Eagerly register `lint.runs`/`lint.errors`/`lint.warnings`/
/// `lint.truncated` and one `lint.findings.<rule>` counter per catalog
/// rule, so metrics scrapes expose the full rule catalog (at zero) before
/// the first lint run.
void register_lint_counters();

}  // namespace fstg::lint
