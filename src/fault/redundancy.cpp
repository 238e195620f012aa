#include "fault/redundancy.h"

#include "base/error.h"

namespace fstg {

RedundancyResult classify_faults(const ScanCircuit& circuit,
                                 const TestSet& tests,
                                 const std::vector<FaultSpec>& faults) {
  const FaultSimResult by_tests = simulate_faults(circuit, tests, faults);
  return classify_faults_from(circuit, faults, by_tests.detected_by);
}

RedundancyResult classify_faults_from(const ScanCircuit& circuit,
                                      const std::vector<FaultSpec>& faults,
                                      const std::vector<int>& detected_by,
                                      const FaultSimOptions& options) {
  require(detected_by.size() == faults.size(),
          "classify_faults_from: result/fault list size mismatch");

  RedundancyResult result;
  result.status.assign(faults.size(), FaultStatus::kUndetectable);

  std::vector<std::size_t> missed;
  std::vector<FaultSpec> missed_faults;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    if (detected_by[f] >= 0) {
      result.status[f] = FaultStatus::kDetected;
      ++result.detected;
    } else {
      missed.push_back(f);
      missed_faults.push_back(faults[f]);
    }
  }
  if (missed.empty()) return result;
  require(circuit.num_pi + circuit.num_sv <= 22,
          "classify_faults: exhaustive check limited to 22 input+state bits");

  // Exhaustive length-one scan tests: every state code x input combination.
  const std::uint32_t num_codes = 1u << circuit.num_sv;
  const std::uint32_t nic = 1u << circuit.num_pi;
  std::vector<ScanPattern> all;
  all.reserve(static_cast<std::size_t>(num_codes) * nic);
  for (std::uint32_t code = 0; code < num_codes; ++code)
    for (std::uint32_t ic = 0; ic < nic; ++ic)
      all.push_back(ScanPattern{code, {ic}, {}});

  // Unbudgeted, under its own site: an exhaustion injected at the test-set
  // run's `fault_sim.batch` never trips this one.
  robust::RunGuard guard(robust::Budget{}, "redundancy.classify");
  const FaultSimResult exhaustive =
      simulate_faults_guarded(circuit, all, missed_faults, guard, options);
  if (!exhaustive.complete) throw BudgetError(guard.status().message());
  for (std::size_t i = 0; i < missed.size(); ++i) {
    if (exhaustive.detected_by[i] >= 0) {
      result.status[missed[i]] = FaultStatus::kMissedDetectable;
      ++result.missed_detectable;
    } else {
      ++result.undetectable;
    }
  }
  return result;
}

}  // namespace fstg
