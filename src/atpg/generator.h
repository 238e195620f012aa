#pragma once

#include "atpg/test.h"
#include "base/robust/budget.h"
#include "seq/uio.h"

namespace fstg {

/// Knobs of the paper's procedure (Section 2 and Tables 8/9).
struct GeneratorOptions {
  /// Maximum UIO length L; 0 = number of state variables (paper default).
  int uio_max_length = 0;
  /// Maximum transfer-sequence length; 1 in the paper's experiments,
  /// 0 disables transfer sequences entirely (Table 8).
  int transfer_max_length = 1;
  /// Postpone starting a test from a transition whose destination has no
  /// UIO (the paper's rule; such starts would force length-one tests).
  bool postpone_no_uio_starts = true;
  /// Work budget forwarded to UIO derivation.
  std::uint64_t uio_eval_budget = 50'000'000;
  /// Resource envelope (wall clock, total expansions, memory estimate)
  /// that bounds the UIO derivation and, separately, all transfer
  /// searches of the run. Exhaustion is *not* an error: states whose UIO
  /// search was cut short are treated as UIO-less, and a cut transfer
  /// search reads as "no transfer" — exactly the paper's own degradation:
  /// the chained test ends with a scan-out, so state-transition coverage
  /// is preserved while cycle count may rise.
  robust::Budget budget;
};

/// Everything the experiments report about one generation run.
struct GeneratorResult {
  TestSet tests;
  UioSet uios;
  /// transition id (state * num_input_combos + input) -> index of the test
  /// that tested it.
  std::vector<int> tested_by;
  /// Number of state-transitions tested by length-one tests (numerator of
  /// Table 5 column `1len`).
  std::size_t transitions_in_length_one = 0;
  double uio_seconds = 0.0;
  double generation_seconds = 0.0;
  /// True iff a budget degraded the run (aborted UIO searches and/or
  /// transfer searches cut short). The tests are still complete — every
  /// state-transition is tested — but chaining is reduced.
  bool degraded = false;

  /// States whose UIO search the budget cut short (subset of the states
  /// the generator fell back to scan-out for).
  int uio_aborted_states() const { return uios.aborted_states(); }
};

/// The paper's functional test generation procedure. Every one of the
/// machine's num_states * num_input_combos state-transitions is tested by
/// exactly one test: applied at a "test point" followed by either the
/// destination's UIO sequence or a scan-out. Transitions traversed inside
/// UIO or transfer segments do not count as tested.
GeneratorResult generate_functional_tests(const StateTable& table,
                                          const GeneratorOptions& options = {});

/// Variant that reuses precomputed UIO sequences (Table 9 sweeps derive
/// them once per length bound).
GeneratorResult generate_functional_tests(const StateTable& table,
                                          const GeneratorOptions& options,
                                          UioSet uios);

}  // namespace fstg
