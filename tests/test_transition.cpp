#include "fault/transition.h"

#include <gtest/gtest.h>

#include "atpg/per_transition.h"
#include "harness/experiment.h"

namespace fstg {
namespace {

TEST(TransitionFaults, EnumerationSkipsInputsAndConstants) {
  Netlist nl;
  int a = nl.add_input("a");
  int c1 = nl.add_gate(GateType::kConst1, {});
  int g = nl.add_gate(GateType::kAnd, {a, c1});
  int n = nl.add_gate(GateType::kNot, {g});
  nl.add_output(n);
  std::vector<TransitionFault> faults = enumerate_transition_faults(nl);
  EXPECT_EQ(faults.size(), 4u);  // AND and NOT, rise+fall each
  for (const TransitionFault& f : faults) {
    EXPECT_NE(f.gate, a);
    EXPECT_NE(f.gate, c1);
  }
}

TEST(TransitionFaults, Describe) {
  Netlist nl;
  int a = nl.add_input("a");
  int g = nl.add_gate(GateType::kNot, {a}, "inv");
  nl.add_output(g);
  EXPECT_EQ(describe_transition_fault(nl, {g, true}), "inv slow-to-rise");
  EXPECT_EQ(describe_transition_fault(nl, {g, false}), "inv slow-to-fall");
}

TEST(TransitionFaults, LengthOneTestsDetectNothing) {
  CircuitExperiment exp = run_circuit("lion");
  const std::vector<TransitionFault> faults =
      enumerate_transition_faults(exp.synth.circuit.comb);
  TransitionSimResult r = simulate_transition_faults(
      exp.synth.circuit, per_transition_tests(exp.table), faults);
  EXPECT_EQ(r.detected_faults, 0u);
}

TEST(TransitionFaults, ChainedTestsDetectTransitions) {
  CircuitExperiment exp = run_circuit("lion");
  const std::vector<TransitionFault> faults =
      enumerate_transition_faults(exp.synth.circuit.comb);
  TransitionSimResult r = simulate_transition_faults(
      exp.synth.circuit, exp.gen.tests, faults);
  EXPECT_GT(r.detected_faults, 0u);
  EXPECT_EQ(r.detected.size(), faults.size());
}

TEST(TransitionFaults, HandAnalyzedDetection) {
  // A 1-bit toggler: state flips when x=1; output = state. The state bit's
  // driver rises and falls across consecutive cycles of a 2-vector test.
  ScanCircuit c;
  int x = c.comb.add_input("x");
  int y = c.comb.add_input("y");
  int ns = c.comb.add_gate(GateType::kXor, {x, y});
  int po = c.comb.add_gate(GateType::kBuf, {y});
  c.comb.add_output(po);
  c.comb.add_output(ns);
  c.num_pi = 1;
  c.num_po = 1;
  c.num_sv = 1;

  // Test from state 0: x=1 (ns rises 0->1... raw at c0 = 1 with no
  // previous -> no launch), then x=0 at c1 (state now 1, ns raw = 1, po
  // observes state 1): the XOR's raw goes 1 -> 1, no transition. Use
  // x=1,x=1: raw(ns): c0: x^y = 1^0 = 1; c1: 1^1 = 0 (falls).
  TestSet tests;
  tests.tests.push_back({0, {1, 1}, 0, {}});  // states: 0 ->1 ->0
  const TransitionFault str{ns, true};   // slow-to-rise
  const TransitionFault stf{ns, false};  // slow-to-fall

  // slow-to-fall: at c1 raw falls 1->0, delayed keeps 1 -> next state
  // stays 1 instead of 0 -> caught by scan-out.
  TransitionSimResult r =
      simulate_transition_faults(c, tests, {str, stf});
  EXPECT_FALSE(r.detected[0]);  // no rise is launched (c0 has no previous)
  EXPECT_TRUE(r.detected[1]);

  // A three-vector test launches the rise too: x=1,1,1 -> raw(ns):
  // 1, 0, 1 -- the c2 rise is launched from c1.
  TestSet longer;
  longer.tests.push_back({0, {1, 1, 1}, 1, {}});
  TransitionSimResult r2 =
      simulate_transition_faults(c, longer, {str, stf});
  EXPECT_TRUE(r2.detected[0]);
  EXPECT_TRUE(r2.detected[1]);
}

TEST(TransitionFaults, CoverageNeverExceedsStuckAtObservability) {
  // Sanity: chained coverage is a percentage in [0, 100].
  CircuitExperiment exp = run_circuit("dk27");
  const std::vector<TransitionFault> faults =
      enumerate_transition_faults(exp.synth.circuit.comb);
  TransitionSimResult r = simulate_transition_faults(
      exp.synth.circuit, exp.gen.tests, faults);
  EXPECT_GE(r.coverage_percent(), 0.0);
  EXPECT_LE(r.coverage_percent(), 100.0);
}

}  // namespace
}  // namespace fstg
