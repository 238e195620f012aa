#pragma once

#include <string>
#include <vector>

#include "difftest/workload.h"

namespace fstg::difftest {

struct OracleReport {
  /// Human-readable divergence descriptions; empty means every engine,
  /// the reference, and the work counters agree.
  std::vector<std::string> divergences;

  bool ok() const { return divergences.empty(); }
  std::string to_string() const;
};

/// Run `workload` through the fault-simulation engine at 1, 2 and 8
/// threads and cross-check:
///  - the 1-thread run against the independent scalar reference simulator
///    (reference_sim.h): per-fault detection maps (detected_by, full
///    vectors — not counts), effective-test marks and detected totals;
///  - the fault-free batch responses (PO words, X masks, scan-out states)
///    against the reference, lane by lane;
///  - the 2- and 8-thread runs against the 1-thread run, with the same
///    result comparison;
///  - thread-count invariance of the obs work counters across all three.
/// For Workload::check == kCompaction, additionally runs static_compact
/// and verifies per-fault coverage preservation. For kStaticRedundancy,
/// additionally cross-checks the static implication engine's untestability
/// and equivalence proofs against the exhaustive engine.
OracleReport run_oracle(const Workload& workload);

}  // namespace fstg::difftest
