#include "lint/lint.h"

#include "base/obs/trace.h"
#include "lint/analysis_lint.h"
#include "netlist/synth.h"
#include "sim/read_back.h"

namespace fstg::lint {

namespace {

/// Completed-table analyses are exhaustive in 2^(pi+sv) evaluations when
/// the table is read back from a netlist; keep that to interactive sizes.
constexpr int kMaxReadBackBits = 16;

void table_lint(const StateTable& table, const LintOptions& options,
                robust::RunGuard& guard, LintReport& report) {
  FsmLintOptions fsm_options;
  fsm_options.uio_max_length = options.uio_max_length;
  lint_state_table(table, fsm_options, guard, report);
}

}  // namespace

LintReport run_lint_kiss2(const Kiss2Fsm& fsm, const FaultListFile* faults,
                          const LintOptions& options) {
  obs::Span span("lint.kiss2", fsm.name);
  LintReport report;
  report.source = fsm.name;
  robust::RunGuard guard(options.budget, "lint.run");

  lint_fsm_symbolic(fsm, guard, report);
  const bool deterministic = report.count_rule("fsm-nondeterministic") == 0;

  if (options.check_table && deterministic && !report.truncated &&
      fsm.num_inputs >= 1 && fsm.num_inputs <= 20 && fsm.num_outputs >= 1 &&
      fsm.num_outputs <= 32) {
    // The specified machine itself, self-loop completed: lint speaks about
    // the source the user wrote, not about one particular encoding of it.
    table_lint(expand_fsm(fsm, FillPolicy::kSelfLoop), options, guard, report);
  }

  if (faults != nullptr && deterministic) {
    // Fault lists name implementation nets, so resolve them against the
    // same synthesis the pipeline would run.
    const SynthesisResult synth = synthesize_scan_circuit(fsm);
    lint_scan_circuit(synth.circuit, guard, report);
    lint_fault_list(*faults, synth.circuit, guard, report);
    lint_static_analysis(synth.circuit, faults, guard, report);
  }

  report.sort_findings();
  record_lint_metrics(report);
  return report;
}

LintReport run_lint_blif(const BlifModel& model, const std::string& source,
                         const FaultListFile* faults,
                         const LintOptions& options) {
  obs::Span span("lint.blif", source);
  LintReport report;
  report.source = source;
  robust::RunGuard guard(options.budget, "lint.run");

  lint_blif_model(model, guard, report);
  if (report.has_errors() || report.truncated) {
    // The strict parser would reject (or the structural pass is partial);
    // there is no circuit to analyze further.
    report.sort_findings();
    record_lint_metrics(report);
    return report;
  }

  const ScanCircuit circuit = parse_blif(model);
  lint_scan_circuit(circuit, guard, report);

  if (options.check_table && circuit.num_sv >= 1 && circuit.num_po >= 1 &&
      circuit.num_po <= 32 && circuit.num_pi >= 1 &&
      circuit.num_pi + circuit.num_sv <= kMaxReadBackBits) {
    table_lint(read_back_table(circuit), options, guard, report);
  }

  if (faults != nullptr) lint_fault_list(*faults, circuit, guard, report);
  lint_static_analysis(circuit, faults, guard, report);

  report.sort_findings();
  record_lint_metrics(report);
  return report;
}

}  // namespace fstg::lint
