#include "fault/podem.h"

#include <gtest/gtest.h>

#include "base/error.h"
#include "fault/fault.h"
#include "fault/redundancy.h"
#include "harness/experiment.h"

namespace fstg {
namespace {

TEST(Podem, DetectsSimpleFaults) {
  // f = a & b: a s-a-0 needs a=b=1; output s-a-1 needs f=0.
  ScanCircuit c;
  int a = c.comb.add_input("a");
  int y = c.comb.add_input("y0");
  int g = c.comb.add_gate(GateType::kAnd, {a, y});
  c.comb.add_output(g);
  c.comb.add_output(y);  // next state = identity
  c.num_pi = 1;
  c.num_po = 1;
  c.num_sv = 1;

  PodemResult r = podem(c, FaultSpec::stuck_gate(a, false));
  ASSERT_EQ(r.status, PodemResult::Status::kDetected);
  EXPECT_EQ(r.pattern.inputs[0], 1u);
  EXPECT_EQ(r.pattern.init_state, 1u);

  PodemResult r2 = podem(c, FaultSpec::stuck_gate(g, true));
  ASSERT_EQ(r2.status, PodemResult::Status::kDetected);
  // Any vector with f = 0 works; verification inside podem() guarantees it.
}

TEST(Podem, ProvesRedundancy) {
  // f = a | (a & b): the AND's s-a-0 is undetectable.
  ScanCircuit c;
  int a = c.comb.add_input("a");
  int b = c.comb.add_input("b");
  int y = c.comb.add_input("y0");
  int and_g = c.comb.add_gate(GateType::kAnd, {a, b});
  int or_g = c.comb.add_gate(GateType::kOr, {a, and_g});
  c.comb.add_output(or_g);
  c.comb.add_output(c.comb.add_gate(GateType::kBuf, {y}));
  c.num_pi = 2;
  c.num_po = 1;
  c.num_sv = 1;

  PodemResult r = podem(c, FaultSpec::stuck_gate(and_g, false));
  EXPECT_EQ(r.status, PodemResult::Status::kRedundant);
  // The OR output s-a-1 IS detectable.
  EXPECT_EQ(podem(c, FaultSpec::stuck_gate(or_g, true)).status,
            PodemResult::Status::kDetected);
}

TEST(Podem, AgreesWithExhaustiveClassificationOnBenchmarks) {
  for (const std::string name : {"lion", "dk27", "ex5"}) {
    SCOPED_TRACE(name);
    CircuitExperiment exp = run_circuit(name);
    const ScanCircuit& circuit = exp.synth.circuit;
    const std::vector<FaultSpec> faults = enumerate_stuck_at(circuit.comb);
    // Oracle: exhaustive classification with an empty-ish test set.
    TestSet nothing;
    nothing.tests.push_back({0, {0}, exp.table.next(0, 0), {}});
    RedundancyResult oracle = classify_faults(circuit, nothing, faults);
    for (std::size_t f = 0; f < faults.size(); ++f) {
      PodemResult r = podem(circuit, faults[f]);
      ASSERT_NE(r.status, PodemResult::Status::kAborted) << f;
      const bool oracle_detectable =
          oracle.status[f] != FaultStatus::kUndetectable;
      EXPECT_EQ(r.status == PodemResult::Status::kDetected, oracle_detectable)
          << "fault " << f << ": " << describe_fault(circuit.comb, faults[f]);
    }
  }
}

TEST(Podem, PinFaults) {
  CircuitExperiment exp = run_circuit("lion");
  const ScanCircuit& circuit = exp.synth.circuit;
  StuckAtOptions options;
  options.collapse = false;
  for (const FaultSpec& fault : enumerate_stuck_at(circuit.comb, options)) {
    if (fault.kind != FaultSpec::Kind::kStuckPin) continue;
    PodemResult r = podem(circuit, fault);
    EXPECT_NE(r.status, PodemResult::Status::kAborted);
  }
}

TEST(GateLevelAtpg, FullCoverageAndCompactTests) {
  for (const std::string name : {"lion", "dk17", "beecount"}) {
    SCOPED_TRACE(name);
    CircuitExperiment exp = run_circuit(name);
    const ScanCircuit& circuit = exp.synth.circuit;
    const std::vector<FaultSpec> faults = enumerate_stuck_at(circuit.comb);
    GateAtpgResult r = gate_level_atpg(circuit, faults);
    EXPECT_EQ(r.aborted, 0u);
    EXPECT_EQ(r.detected + r.redundant, faults.size());
    // The generated set re-simulates to the same coverage.
    FaultSimResult check = simulate_faults(circuit, r.tests, faults);
    EXPECT_EQ(check.detected_faults, r.detected);
    // And it is much smaller than one test per fault.
    EXPECT_LT(r.tests.size(), faults.size() / 2);
    r.tests.validate(exp.table);
  }
}

TEST(Podem, RejectsNonStuckFaults) {
  CircuitExperiment exp = run_circuit("lion");
  EXPECT_THROW(podem(exp.synth.circuit, FaultSpec::bridge_and(3, 5)), Error);
}

}  // namespace
}  // namespace fstg
