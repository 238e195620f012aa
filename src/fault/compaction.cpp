#include "fault/compaction.h"

#include <utility>

#include "base/error.h"

namespace fstg {

CompactionResult compaction_from_detections(TestSet ordered_tests,
                                            std::vector<int> detected_by,
                                            bool complete) {
  CompactionResult result;
  FaultSimResult& sim = result.sim;
  sim.total_faults = detected_by.size();
  sim.test_effective.assign(ordered_tests.tests.size(), false);
  for (int t : detected_by) {
    if (t < 0) continue;
    sim.test_effective[static_cast<std::size_t>(t)] = true;
    ++sim.detected_faults;
  }
  sim.detected_by = std::move(detected_by);
  sim.complete = complete;
  for (std::size_t i = 0; i < ordered_tests.tests.size(); ++i)
    if (sim.test_effective[i])
      result.effective_tests.tests.push_back(ordered_tests.tests[i]);
  result.ordered_tests = std::move(ordered_tests);
  return result;
}

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
  TestSet ordered = tests.sorted_by_decreasing_length();
  FaultSimResult sim =
      simulate_faults_guarded(circuit, ordered, faults, guard, sim_options);
  return compaction_from_detections(std::move(ordered),
                                    std::move(sim.detected_by), sim.complete);
}

}  // namespace fstg
