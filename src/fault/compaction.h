#pragma once

#include "fault/fault_sim.h"

namespace fstg {

/// Result of the paper's effective-test selection: simulate the functional
/// tests longest-first and keep only tests that detect new faults.
struct CompactionResult {
  /// The simulation order (tests sorted by decreasing length).
  TestSet ordered_tests;
  /// Only the effective tests, in simulation order (Table 6 `tsts`).
  TestSet effective_tests;
  /// The underlying fault simulation (against `ordered_tests`).
  FaultSimResult sim;

  std::size_t effective_total_length() const {
    return effective_tests.total_length();
  }
};

/// Order tests by decreasing length, fault-simulate with dropping, keep the
/// effective ones. The premise (paper, Section 2): longer tests detect more
/// faults, so simulating them first discards many short tests — every
/// discarded test saves a scan operation regardless of its length.
/// `sim_options` tunes the underlying engine (thread count, precomputed
/// reachability); effective-test selection is bit-identical for any value.
CompactionResult select_effective_tests(const ScanCircuit& circuit,
                                        const TestSet& tests,
                                        const std::vector<FaultSpec>& faults,
                                        const FaultSimOptions& sim_options = {});

/// Budgeted variant: the guard bounds the fault simulation
/// (simulate_faults_guarded semantics). On exhaustion `sim.complete` is
/// false and the effective marks are those of the partial run.
CompactionResult select_effective_tests(
    const ScanCircuit& circuit, const TestSet& tests,
    const std::vector<FaultSpec>& faults, robust::RunGuard& guard,
    const FaultSimOptions& sim_options = {});

}  // namespace fstg
