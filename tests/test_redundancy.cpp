#include "fault/redundancy.h"

#include <gtest/gtest.h>

#include "base/error.h"
#include "fault/fault.h"
#include "harness/experiment.h"

namespace fstg {
namespace {

TEST(Redundancy, LionStuckAtAllDetected) {
  CircuitExperiment exp = run_circuit("lion");
  const std::vector<FaultSpec> faults =
      enumerate_stuck_at(exp.synth.circuit.comb);
  RedundancyResult r =
      classify_faults(exp.synth.circuit, exp.gen.tests, faults);
  EXPECT_EQ(r.detected, faults.size());
  EXPECT_EQ(r.missed_detectable, 0u);
  EXPECT_EQ(r.undetectable, 0u);
  EXPECT_DOUBLE_EQ(r.detectable_coverage_percent(), 100.0);
}

TEST(Redundancy, CraftedRedundantFaultIsClassified) {
  // y = a | (a & b): the AND gate is functionally redundant, so its
  // stuck-at-0 is undetectable at the output.
  ScanCircuit circuit;
  int a = circuit.comb.add_input("a");
  int b = circuit.comb.add_input("b");
  int y = circuit.comb.add_input("y0");  // state var (unused by logic)
  int and_g = circuit.comb.add_gate(GateType::kAnd, {a, b});
  int or_g = circuit.comb.add_gate(GateType::kOr, {a, and_g});
  int ns = circuit.comb.add_gate(GateType::kBuf, {y});
  circuit.comb.add_output(or_g);
  circuit.comb.add_output(ns);
  circuit.num_pi = 2;
  circuit.num_po = 1;
  circuit.num_sv = 1;

  const std::vector<FaultSpec> faults = {
      FaultSpec::stuck_gate(and_g, false),  // redundant
      FaultSpec::stuck_gate(or_g, true),    // detectable
  };
  // Tests: nothing (so the detectable fault is a "miss"), then exhaustive
  // classification resolves both.
  TestSet no_tests;
  no_tests.tests.push_back({0, {0}, 0, {}});  // a=b=0 keeps output 0: detects or_g s-a-1
  RedundancyResult r = classify_faults(circuit, no_tests, faults);
  EXPECT_EQ(r.status[0], FaultStatus::kUndetectable);
  EXPECT_EQ(r.status[1], FaultStatus::kDetected);

  // With a test set that misses the OR fault, it must be classified as
  // missed-but-detectable.
  TestSet blind;
  blind.tests.push_back({0, {3}, 0, {}});  // a=b=1: output already 1
  RedundancyResult r2 = classify_faults(circuit, blind, faults);
  EXPECT_EQ(r2.status[0], FaultStatus::kUndetectable);
  EXPECT_EQ(r2.status[1], FaultStatus::kMissedDetectable);
  EXPECT_LT(r2.detectable_coverage_percent(), 100.0);
}

TEST(Redundancy, FromPrecomputedSimulationAgrees) {
  CircuitExperiment exp = run_circuit("dk17");
  const std::vector<FaultSpec> faults =
      enumerate_stuck_at(exp.synth.circuit.comb);
  FaultSimResult sim = simulate_faults(exp.synth.circuit, exp.gen.tests, faults);
  RedundancyResult a =
      classify_faults_from(exp.synth.circuit, faults, sim.detected_by);
  RedundancyResult b =
      classify_faults(exp.synth.circuit, exp.gen.tests, faults);
  EXPECT_EQ(a.status, b.status);
}

TEST(Redundancy, SizeMismatchRejected) {
  CircuitExperiment exp = run_circuit("lion");
  const std::vector<FaultSpec> faults =
      enumerate_stuck_at(exp.synth.circuit.comb);
  std::vector<int> wrong(faults.size() + 1, -1);
  EXPECT_THROW(classify_faults_from(exp.synth.circuit, faults, wrong), Error);
}

}  // namespace
}  // namespace fstg
