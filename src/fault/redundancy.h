#pragma once

#include "fault/fault_sim.h"

namespace fstg {

/// Status of one fault after the paper's two-stage verification.
enum class FaultStatus : std::uint8_t {
  kDetected,           ///< detected by the given functional tests
  kMissedDetectable,   ///< missed by the tests but detected by the
                       ///< exhaustive combinational test set
  kUndetectable,       ///< not detected even exhaustively: combinationally
                       ///< redundant under full scan
};

struct RedundancyResult {
  std::vector<FaultStatus> status;
  std::size_t detected = 0;
  std::size_t missed_detectable = 0;
  std::size_t undetectable = 0;

  /// Coverage of *detectable* faults, the paper's headline claim.
  double detectable_coverage_percent() const {
    const std::size_t detectable = detected + missed_detectable;
    return detectable == 0 ? 100.0
                           : 100.0 * static_cast<double>(detected) /
                                 static_cast<double>(detectable);
  }
};

/// Classify every fault: first against the given tests, then (for misses)
/// against the exhaustive set of length-one scan tests over all 2^sv state
/// codes and 2^pi input combinations — the paper's own method for proving
/// leftover faults undetectable. Requires sv + pi <= 22.
RedundancyResult classify_faults(const ScanCircuit& circuit,
                                 const TestSet& tests,
                                 const std::vector<FaultSpec>& faults);

/// Variant reusing an existing simulation of the same fault list (e.g. the
/// one produced by select_effective_tests), so the test-set pass is not
/// repeated: the misses alone go through one more engine run, over the
/// exhaustive length-one scan tests, and a miss is kMissedDetectable iff
/// that run detects it. `options` sets the engine's thread count; the run
/// is unbudgeted, under its own guard site `redundancy.classify`. Requires
/// sv + pi <= 22 whenever some fault is missed.
RedundancyResult classify_faults_from(const ScanCircuit& circuit,
                                      const std::vector<FaultSpec>& faults,
                                      const std::vector<int>& detected_by,
                                      const FaultSimOptions& options = {});

}  // namespace fstg
