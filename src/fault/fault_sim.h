#pragma once

#include <vector>

#include "atpg/test.h"
#include "base/robust/budget.h"
#include "netlist/netlist.h"
#include "sim/logic_sim.h"
#include "sim/scan_sim.h"

namespace fstg {

/// Outcome of simulating a fault list against an ordered test set.
struct FaultSimResult {
  std::size_t total_faults = 0;
  std::size_t detected_faults = 0;
  /// fault index -> index (into the given test order) of the *first* test
  /// that detects it; -1 if undetected.
  std::vector<int> detected_by;
  /// test index -> true iff the test detects at least one fault not
  /// detected by any earlier test (the paper's "effective" mark).
  std::vector<bool> test_effective;
  /// False iff a budget guard stopped the simulation early. The partial
  /// result is sound in one direction only: every recorded detection is
  /// real, but an undetected fault may simply not have been simulated
  /// against the remaining tests — coverage numbers from an incomplete
  /// run are lower bounds, and callers must not report them as final.
  bool complete = true;

  std::size_t num_effective_tests() const;
  double coverage_percent() const {
    return total_faults == 0
               ? 100.0
               : 100.0 * static_cast<double>(detected_faults) /
                     static_cast<double>(total_faults);
  }
};

/// Tuning knobs of the fault-simulation engine. The default runs
/// fault-level parallelism at the process-wide default thread count.
struct FaultSimOptions {
  /// Worker count for fault-level parallelism within each test batch:
  /// negative = parallel::default_threads() (hardware concurrency unless
  /// overridden, e.g. by the CLI's --threads), 0 or 1 = serial fallback.
  /// Results are bit-identical for every thread count: each fault's
  /// detection word depends only on the shared immutable good trace, and
  /// detections are reduced on the caller in fault order.
  int threads = -1;
};

/// Word-parallel scan fault simulation with fault dropping: tests run 64
/// per batch (one lane each); each still-undetected fault is injected and
/// the faulty machine, evaluated event-driven against the batch's
/// fault-free trace, compared with it on every observed primary output and
/// on the scanned-out state. Detection is attributed to the lowest-index
/// detecting test, so effectiveness marks match the paper's
/// sequential-simulation semantics exactly — for any thread count (see
/// FaultSimOptions::threads).
///
/// A two-valued test of at least 2 cycles that heads a batch and is at
/// least twice as long as each of the next 63 tests runs alone instead,
/// time-sliced: it is cut into at most 64 segments of ceil(len / 64)
/// cycles, the lanes of one batch. The segment start states come from a
/// fixpoint over the segments' own fault-free runs, and each fault's
/// segments are stitched into the exact verdict of the whole test (see
/// ScanBatchSim::run_faulty), so every result is the one the 64-test
/// layout gives.
FaultSimResult simulate_faults(const ScanCircuit& circuit,
                               const TestSet& tests,
                               const std::vector<FaultSpec>& faults,
                               const FaultSimOptions& options = {});

/// Budgeted variant: the guard is ticked once per (test batch, live fault)
/// pair, weighted by the batch width, and once per continuation pass of a
/// time-sliced test (a fault that trips it there stays undetected).
/// Exhaustion stops the run at a fault boundary and returns the partial
/// result with `complete == false`; under parallelism the shared guard
/// doubles as the cooperative cancellation flag, so the partial result is
/// still well-formed (every recorded detection is real and carries its
/// exact first-detecting test).
FaultSimResult simulate_faults_guarded(const ScanCircuit& circuit,
                                       const TestSet& tests,
                                       const std::vector<FaultSpec>& faults,
                                       robust::RunGuard& guard,
                                       const FaultSimOptions& options = {});

/// The engine over scan patterns, one per test (`detected_by` and
/// `test_effective` index `patterns`). The redundancy classifier runs its
/// exhaustive length-one tests through it.
FaultSimResult simulate_faults_guarded(const ScanCircuit& circuit,
                                       const std::vector<ScanPattern>& patterns,
                                       const std::vector<FaultSpec>& faults,
                                       robust::RunGuard& guard,
                                       const FaultSimOptions& options = {});

/// Convert functional tests (on the completed table, whose state index is
/// the state code) into scan patterns.
std::vector<ScanPattern> to_scan_patterns(const TestSet& tests);

}  // namespace fstg
