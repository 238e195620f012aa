// Lint lane: per-rule positive/negative fixtures from tests/lint_corpus/,
// golden-JSON schema validation of `report_to_json`, and determinism of
// finding order. Each positive fixture is crafted to trigger one rule
// family; the clean fixtures pin down that the analyzers stay quiet on
// well-formed inputs (no false positives).

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "base/obs/schema.h"
#include "fault/fault_io.h"
#include "harness/experiment.h"
#include "kiss/kiss2_parser.h"
#include "lint/lint.h"
#include "netlist/blif_reader.h"

namespace fstg {
namespace {

using lint::Finding;
using lint::LintOptions;
using lint::LintReport;
using lint::Severity;

std::string corpus_path(const std::string& name) {
  return std::string(FSTG_LINT_CORPUS_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

LintReport lint_kiss(const std::string& fixture,
                     const FaultListFile* faults = nullptr) {
  const Kiss2Fsm fsm = parse_kiss2_file(corpus_path(fixture));
  return run_lint_kiss2(fsm, faults, LintOptions{});
}

LintReport lint_blif(const std::string& fixture,
                     const FaultListFile* faults = nullptr) {
  const BlifModel model = parse_blif_model(read_file(corpus_path(fixture)));
  return run_lint_blif(model, fixture, faults, LintOptions{});
}

// --- FSM rules -----------------------------------------------------------

TEST(LintCorpus, NondeterministicFsmIsAnError) {
  const LintReport report = lint_kiss("fsm_nondeterministic.kiss");
  EXPECT_GE(report.count_rule("fsm-nondeterministic"), 1u);
  EXPECT_TRUE(report.has_errors());
}

TEST(LintCorpus, IncompleteFsmIsAWarning) {
  const LintReport report = lint_kiss("fsm_incomplete.kiss");
  EXPECT_EQ(report.count_rule("fsm-incomplete"), 1u);
  EXPECT_FALSE(report.has_errors());
}

TEST(LintCorpus, UnreachableStateIsFlaggedByName) {
  const LintReport report = lint_kiss("fsm_unreachable.kiss");
  ASSERT_EQ(report.count_rule("fsm-unreachable-state"), 1u);
  bool names_orphan = false;
  for (const Finding& f : report.findings())
    if (f.rule == "fsm-unreachable-state" &&
        f.message.find("orphan") != std::string::npos)
      names_orphan = true;
  EXPECT_TRUE(names_orphan);
  EXPECT_FALSE(report.has_errors());
}

TEST(LintCorpus, EquivalentStatesHaveNoUio) {
  const LintReport report = lint_kiss("fsm_no_uio.kiss");
  EXPECT_GE(report.count_rule("fsm-equivalent-states"), 1u);
  // Both states are indistinguishable, so neither has a UIO.
  EXPECT_EQ(report.count_rule("fsm-no-uio"), 2u);
  EXPECT_FALSE(report.has_errors());
}

TEST(LintCorpus, SubsumedRowIsRedundant) {
  const LintReport report = lint_kiss("fsm_redundant_row.kiss");
  ASSERT_EQ(report.count_rule("fsm-redundant-row"), 1u);
  // The finding points at the subsumed row's source line (the last row).
  for (const Finding& f : report.findings()) {
    if (f.rule == "fsm-redundant-row") {
      EXPECT_EQ(f.loc.line, 11);
    }
  }
}

TEST(LintCorpus, CleanFsmHasNoFindings) {
  const LintReport report = lint_kiss("fsm_clean.kiss");
  EXPECT_TRUE(report.empty()) << report_to_text(report);
  EXPECT_FALSE(report.truncated);
}

// --- Netlist rules -------------------------------------------------------

TEST(LintCorpus, CombinationalCycleIsAnError) {
  const LintReport report = lint_blif("blif_cycle.blif");
  EXPECT_GE(report.count_rule("net-comb-cycle"), 1u);
  EXPECT_TRUE(report.has_errors());
}

TEST(LintCorpus, UndrivenNetIsAnError) {
  const LintReport report = lint_blif("blif_undriven.blif");
  EXPECT_GE(report.count_rule("net-undriven"), 1u);
  EXPECT_TRUE(report.has_errors());
}

TEST(LintCorpus, MultipleDriversAreAnError) {
  const LintReport report = lint_blif("blif_multidriver.blif");
  EXPECT_GE(report.count_rule("net-multiple-drivers"), 1u);
  EXPECT_TRUE(report.has_errors());
}

TEST(LintCorpus, DanglingNetIsOnlyAWarning) {
  const LintReport report = lint_blif("blif_dangling.blif");
  EXPECT_GE(report.count_rule("net-dangling"), 1u);
  EXPECT_FALSE(report.has_errors());
}

TEST(LintCorpus, StaticConstantAndBlockedConeAreFlagged) {
  const LintReport report = lint_blif("blif_static.blif");
  // k = AND(b, NOT b) and z = AND(g, k) both fold to constant 0.
  EXPECT_EQ(report.count_rule("net-constant"), 2u);
  // g = NOT a reaches z structurally, but the side input k is pinned at
  // the AND's controlling 0, so neither stuck-at on g can propagate. g is
  // the only such gate (nb's s-a-1 effect escapes through k's flip).
  EXPECT_EQ(report.count_rule("net-blocked-cone"), 1u);
  EXPECT_FALSE(report.has_errors());
}

TEST(LintCorpus, CleanBlifHasNoFindings) {
  const LintReport report = lint_blif("blif_clean.blif");
  EXPECT_TRUE(report.empty()) << report_to_text(report);
  EXPECT_FALSE(report.truncated);
}

// --- Fault-list rules ----------------------------------------------------

TEST(LintCorpus, CleanFaultListHasNoFindings) {
  const FaultListFile faults =
      parse_fault_list_file(corpus_path("faults_clean.flt"));
  const LintReport report = lint_blif("blif_clean.blif", &faults);
  EXPECT_TRUE(report.empty()) << report_to_text(report);
}

TEST(LintCorpus, BadFaultListHasErrors) {
  const FaultListFile faults =
      parse_fault_list_file(corpus_path("faults_bad.flt"));
  const LintReport report = lint_blif("blif_clean.blif", &faults);
  EXPECT_EQ(report.count_rule("fault-unknown-net"), 1u);
  EXPECT_EQ(report.count_rule("fault-bad-pin"), 1u);
  EXPECT_EQ(report.count_rule("fault-bridge-feedback"), 1u);
  EXPECT_EQ(report.count_rule("fault-duplicate"), 1u);
  EXPECT_TRUE(report.has_errors());
}

TEST(LintCorpus, WarnFaultListStaysBelowError) {
  const FaultListFile faults =
      parse_fault_list_file(corpus_path("faults_warn.flt"));
  const LintReport report = lint_blif("blif_clean.blif", &faults);
  EXPECT_EQ(report.count_rule("fault-circuit-mismatch"), 1u);
  // `sa0 #0` is the same gate as `sa0 a` under id resolution.
  EXPECT_EQ(report.count_rule("fault-duplicate"), 1u);
  EXPECT_FALSE(report.has_errors());
}

TEST(LintCorpus, BridgingRulesFollowThePaperConditions) {
  const FaultListFile faults =
      parse_fault_list_file(corpus_path("faults_bridge.flt"));
  const LintReport report = lint_blif("blif_ffr.blif", &faults);
  // bridge and a c: siblings of one fanout-free region, no path.
  EXPECT_GE(report.count_rule("fault-bridge-same-ffr"), 1u);
  // bridge or a b: both lines feed the same AND gate (condition 2).
  EXPECT_EQ(report.count_rule("fault-bridge-shared-gate"), 1u);
  // bridge and a 6: a structural path a -> OR exists (condition 3).
  EXPECT_EQ(report.count_rule("fault-bridge-feedback"), 1u);
  // pin 4 0 0 collapses onto sa0 4, which is also listed.
  EXPECT_EQ(report.count_rule("fault-equivalent"), 1u);
}

TEST(LintCorpus, StaticallyRedundantListedFaultsAreFlaggedPerEntry) {
  const FaultListFile faults =
      parse_fault_list_file(corpus_path("faults_static.flt"));
  const LintReport report = lint_blif("blif_static.blif", &faults);
  // sa0 k (unexcitable) and sa1 g (unpropagatable); sa1 z is detectable
  // on every test, so it must NOT be flagged.
  EXPECT_EQ(report.count_rule("fault-static-redundant"), 2u);
  EXPECT_FALSE(report.has_errors());
}

// --- Report formats ------------------------------------------------------

TEST(LintReportFormat, JsonValidatesAgainstSchema) {
  const FaultListFile faults =
      parse_fault_list_file(corpus_path("faults_bad.flt"));
  const LintReport report = lint_blif("blif_clean.blif", &faults);
  ASSERT_FALSE(report.empty());
  const std::string json = report_to_json(report);
  std::string error;
  EXPECT_TRUE(obs::check_json("fstg_lint", json, nullptr, &error)) << error;
  EXPECT_NE(json.find("fstg.lint.v1"), std::string::npos);

  // A schema cannot tie the totals to the findings; check_json still does.
  const std::string total = "\"errors\": " + std::to_string(report.errors());
  std::string tampered = json;
  tampered.replace(tampered.find(total), total.size(),
                   "\"errors\": " + std::to_string(report.errors() + 1));
  EXPECT_FALSE(obs::check_json("fstg_lint", tampered, nullptr, &error));
  EXPECT_EQ(error, "severity totals disagree with the findings array");
}

TEST(LintReportFormat, EmptyReportJsonValidatesToo) {
  const LintReport report = lint_blif("blif_clean.blif");
  const std::string json = report_to_json(report);
  std::string error;
  EXPECT_TRUE(obs::check_json("fstg_lint", json, nullptr, &error)) << error;
}

TEST(LintReportFormat, EveryEmittedRuleIsInTheCatalog) {
  const char* fixtures[] = {"fsm_nondeterministic.kiss", "fsm_incomplete.kiss",
                            "fsm_unreachable.kiss", "fsm_no_uio.kiss",
                            "fsm_redundant_row.kiss"};
  for (const char* fixture : fixtures) {
    const LintReport report = lint_kiss(fixture);
    for (const Finding& f : report.findings())
      EXPECT_NE(lint::find_rule(f.rule), nullptr) << f.rule;
  }
}

TEST(LintReportFormat, EveryCatalogRuleIsDocumented) {
  // docs/LINTING.md carries rationale and severity for every rule; a rule
  // added to the catalog without documentation fails here.
  const std::string doc = read_file(FSTG_LINTING_DOC);
  ASSERT_FALSE(doc.empty());
  for (const lint::RuleInfo& rule : lint::rule_catalog()) {
    std::string ticked = "`";
    ticked += rule.id;
    ticked += '`';
    EXPECT_NE(doc.find(ticked), std::string::npos)
        << "rule " << rule.id << " is missing from docs/LINTING.md";
  }
}

TEST(LintReportFormat, FindingsAreSortedByFileRuleAndLocation) {
  const FaultListFile faults =
      parse_fault_list_file(corpus_path("faults_static.flt"));
  const LintReport report = lint_blif("blif_static.blif", &faults);
  ASSERT_GE(report.findings().size(), 2u);
  const auto& fs = report.findings();
  for (std::size_t i = 1; i < fs.size(); ++i) {
    const Finding& a = fs[i - 1];
    const Finding& b = fs[i];
    const bool ordered =
        a.loc.file < b.loc.file ||
        (a.loc.file == b.loc.file &&
         (a.rule < b.rule || (a.rule == b.rule && a.loc.line <= b.loc.line)));
    EXPECT_TRUE(ordered) << a.rule << ":" << a.loc.line << " before "
                         << b.rule << ":" << b.loc.line;
  }
}

TEST(LintReportFormat, FindingOrderIsDeterministic) {
  const FaultListFile faults =
      parse_fault_list_file(corpus_path("faults_bridge.flt"));
  const std::string first = report_to_json(lint_blif("blif_ffr.blif", &faults));
  const std::string second =
      report_to_json(lint_blif("blif_ffr.blif", &faults));
  EXPECT_EQ(first, second);
  EXPECT_EQ(report_to_text(lint_kiss("fsm_no_uio.kiss")),
            report_to_text(lint_kiss("fsm_no_uio.kiss")));
}

TEST(LintReportFormat, TextReportCarriesLocationsAndHints) {
  const LintReport report = lint_blif("blif_undriven.blif");
  const std::string text = report_to_text(report);
  EXPECT_NE(text.find("net-undriven"), std::string::npos);
  EXPECT_NE(text.find("ghost"), std::string::npos);
  EXPECT_NE(text.find("error"), std::string::npos);
}

// --- Harness pre-flight gate ---------------------------------------------

TEST(LintPreflight, ErrorFindingFailsThePipelineAtTheLintStage) {
  const Kiss2Fsm fsm =
      parse_kiss2_file(corpus_path("fsm_nondeterministic.kiss"));
  const robust::Result<CircuitExperiment> result = try_run_fsm(fsm);
  ASSERT_FALSE(result.is_ok());
  const std::string rendered = result.status().to_string();
  EXPECT_NE(rendered.find("stage lint"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("fsm-nondeterministic"), std::string::npos)
      << rendered;
}

TEST(LintPreflight, WarningsDoNotFailThePipeline) {
  // Unreachable state is warn-severity: the circuit must still run.
  const Kiss2Fsm fsm = parse_kiss2_file(corpus_path("fsm_unreachable.kiss"));
  const robust::Result<CircuitExperiment> result = try_run_fsm(fsm);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
}

TEST(LintPreflight, DisabledPreflightFailsLaterInsteadOfAtLint) {
  const Kiss2Fsm fsm =
      parse_kiss2_file(corpus_path("fsm_nondeterministic.kiss"));
  ExperimentOptions options;
  options.lint.enabled = false;
  const robust::Result<CircuitExperiment> result = try_run_fsm(fsm, options);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().to_string().find("stage lint"), std::string::npos);
}

// --- Budget behaviour ----------------------------------------------------

TEST(LintBudget, ExhaustionTruncatesInsteadOfThrowing) {
  const Kiss2Fsm fsm = parse_kiss2_file(corpus_path("fsm_no_uio.kiss"));
  LintOptions options;
  options.budget.max_expansions = 1;
  const LintReport report = run_lint_kiss2(fsm, nullptr, options);
  EXPECT_TRUE(report.truncated);
  // Truncation must still produce schema-valid JSON.
  std::string error;
  EXPECT_TRUE(
      obs::check_json("fstg_lint", report_to_json(report), nullptr, &error))
      << error;
}

}  // namespace
}  // namespace fstg
