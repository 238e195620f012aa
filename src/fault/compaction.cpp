#include "fault/compaction.h"

#include "base/error.h"

namespace fstg {

CompactionResult select_effective_tests(const ScanCircuit& circuit,
                                        const TestSet& tests,
                                        const std::vector<FaultSpec>& faults,
                                        const FaultSimOptions& sim_options) {
  robust::RunGuard guard(robust::Budget{}, "fault_sim.batch");
  CompactionResult result =
      select_effective_tests(circuit, tests, faults, guard, sim_options);
  if (!result.sim.complete) throw BudgetError(guard.status().message());
  return result;
}

CompactionResult select_effective_tests(const ScanCircuit& circuit,
                                        const TestSet& tests,
                                        const std::vector<FaultSpec>& faults,
                                        robust::RunGuard& guard,
                                        const FaultSimOptions& sim_options) {
  CompactionResult result;
  result.ordered_tests = tests.sorted_by_decreasing_length();
  result.sim = simulate_faults_guarded(circuit, result.ordered_tests, faults,
                                       guard, sim_options);
  for (std::size_t i = 0; i < result.ordered_tests.tests.size(); ++i)
    if (result.sim.test_effective[i])
      result.effective_tests.tests.push_back(result.ordered_tests.tests[i]);
  return result;
}

}  // namespace fstg
