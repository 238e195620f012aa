#pragma once

#include "base/robust/budget.h"
#include "fsm/state_table.h"
#include "kiss/kiss2.h"
#include "lint/diagnostic.h"

namespace fstg::lint {

/// Options for the table-based FSM analyses.
struct FsmLintOptions {
  /// UIO length bound L; 0 means the machine's state_bits() (the paper's
  /// N_SV bound — a UIO longer than a scan operation is never applied).
  int uio_max_length = 0;
};

/// Symbolic analyses on the KISS2 rows — no completion or determinization
/// needed, so they run on any parsed machine:
///   fsm-nondeterministic   overlapping rows, conflicting next/output
///   fsm-redundant-row      row subsumed by an earlier row
///   fsm-incomplete         uncovered (state, input) combinations
///   fsm-unreachable-state  not reachable from the reset state
/// `guard` is ticked per row pair / state; on exhaustion the report is
/// marked truncated and the remaining checks are skipped.
void lint_fsm_symbolic(const Kiss2Fsm& fsm, robust::RunGuard& guard,
                       LintReport& report);

/// Functional-testability analyses on the (deterministic, completed) state
/// table the generator will operate on:
///   fsm-equivalent-states  output-equivalent state pairs (reducible)
///   fsm-no-uio             states with no UIO of length <= L, with the
///                          state pairs that block one
/// The table should be the same one the pipeline derives its tests from
/// (read back from the synthesized netlist when available).
void lint_state_table(const StateTable& table, const FsmLintOptions& options,
                      robust::RunGuard& guard, LintReport& report);

}  // namespace fstg::lint
