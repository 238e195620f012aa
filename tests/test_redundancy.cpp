#include "fault/redundancy.h"

#include <gtest/gtest.h>

#include "base/error.h"
#include "difftest/reference_sim.h"
#include "fault/bridging.h"
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

/// The exhaustive verdicts against the scalar reference, which shares no
/// code with the engine: a fault is missed-detectable exactly when some
/// length-one scan test detects it there. The lists are classified apart,
/// as the gate-level run does; lion's (53 stuck-at, 28 bridging faults)
/// are below the engine's 64-live-fault parallel bar, dk27's and dk17's
/// above it, so batches run both on the caller and across the workers.
TEST(Redundancy, ExhaustiveVerdictsMatchReference) {
  for (const char* name : {"lion", "dk27", "dk17"}) {
    const CircuitExperiment exp = run_circuit(name);
    const ScanCircuit& circuit = exp.synth.circuit;
    TestSet exhaustive;
    for (std::uint32_t code = 0; code < (1u << circuit.num_sv); ++code)
      for (std::uint32_t ic = 0; ic < (1u << circuit.num_pi); ++ic)
        exhaustive.tests.push_back({static_cast<int>(code), {ic}, -1, {}});
    for (const std::vector<FaultSpec>& faults :
         {enumerate_stuck_at(circuit.comb), enumerate_bridging(circuit.comb)}) {
      const RedundancyResult r = classify_faults_from(
          circuit, faults, std::vector<int>(faults.size(), -1));
      const difftest::ReferenceResult ref =
          difftest::reference_simulate(circuit, exhaustive, faults);
      for (std::size_t f = 0; f < faults.size(); ++f)
        EXPECT_EQ(r.status[f], ref.detected_by[f] >= 0
                                   ? FaultStatus::kMissedDetectable
                                   : FaultStatus::kUndetectable)
            << exp.fsm.name << ": " << describe_fault(circuit.comb, faults[f]);
    }
  }
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
