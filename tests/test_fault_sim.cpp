#include "fault/fault_sim.h"

#include <gtest/gtest.h>

#include "difftest/reference_sim.h"
#include "fault/bridging.h"
#include "fault/fault.h"
#include "harness/experiment.h"

namespace fstg {
namespace {

TEST(FaultSim, MatchesNaiveReferenceOnLion) {
  CircuitExperiment exp = run_circuit("lion");
  const ScanCircuit& circuit = exp.synth.circuit;
  std::vector<FaultSpec> faults = enumerate_stuck_at(circuit.comb);
  const std::vector<FaultSpec> bridges = enumerate_bridging(circuit.comb);
  faults.insert(faults.end(), bridges.begin(), bridges.end());

  FaultSimResult fast = simulate_faults(circuit, exp.gen.tests, faults);
  EXPECT_EQ(fast.detected_by,
            difftest::reference_simulate(circuit, exp.gen.tests, faults)
                .detected_by);
}

TEST(FaultSim, MatchesNaiveReferenceOnDk17) {
  CircuitExperiment exp = run_circuit("dk17");
  const ScanCircuit& circuit = exp.synth.circuit;
  const std::vector<FaultSpec> faults = enumerate_stuck_at(circuit.comb);
  FaultSimResult fast = simulate_faults(circuit, exp.gen.tests, faults);
  EXPECT_EQ(fast.detected_by,
            difftest::reference_simulate(circuit, exp.gen.tests, faults)
                .detected_by);
}

TEST(FaultSim, EffectivenessMarksMatchFirstDetections) {
  CircuitExperiment exp = run_circuit("dk17");
  const std::vector<FaultSpec> faults =
      enumerate_stuck_at(exp.synth.circuit.comb);
  FaultSimResult r = simulate_faults(exp.synth.circuit, exp.gen.tests, faults);
  std::vector<bool> expected(exp.gen.tests.size(), false);
  for (int t : r.detected_by)
    if (t >= 0) expected[static_cast<std::size_t>(t)] = true;
  EXPECT_EQ(r.test_effective, expected);
  EXPECT_EQ(r.num_effective_tests(),
            static_cast<std::size_t>(
                std::count(expected.begin(), expected.end(), true)));
}

TEST(FaultSim, CoveragePercent) {
  FaultSimResult r;
  r.total_faults = 8;
  r.detected_faults = 6;
  EXPECT_DOUBLE_EQ(r.coverage_percent(), 75.0);
  FaultSimResult empty;
  EXPECT_DOUBLE_EQ(empty.coverage_percent(), 100.0);
}

TEST(FaultSim, ToScanPatterns) {
  TestSet set;
  set.tests.push_back({3, {0, 2}, 1, {}});
  std::vector<ScanPattern> p = to_scan_patterns(set);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0].init_state, 3u);
  EXPECT_EQ(p[0].inputs, (std::vector<std::uint32_t>{0, 2}));
}

TEST(FaultSim, MoreThanSixtyFourTests) {
  // Force multiple batches: per-transition tests of bbara (256 tests).
  CircuitExperiment exp = run_circuit("dk27");
  const ScanCircuit& circuit = exp.synth.circuit;
  const std::vector<FaultSpec> faults = enumerate_stuck_at(circuit.comb);

  // 16 transitions only — craft >64 tests by repeating the test set.
  TestSet many;
  for (int rep = 0; rep < 9; ++rep)
    for (const auto& t : exp.gen.tests.tests) many.tests.push_back(t);
  ASSERT_GT(many.size(), 64u);

  FaultSimResult r = simulate_faults(circuit, many, faults);
  // Every fault detectable by the base set must be detected within the
  // first repetition (same tests, same order).
  FaultSimResult base = simulate_faults(circuit, exp.gen.tests, faults);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    if (base.detected_by[f] >= 0)
      EXPECT_EQ(r.detected_by[f], base.detected_by[f]) << f;
    else
      EXPECT_EQ(r.detected_by[f], -1) << f;
  }
}

}  // namespace
}  // namespace fstg
