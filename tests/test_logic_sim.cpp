#include "sim/logic_sim.h"

#include <gtest/gtest.h>

#include "base/rng.h"
#include "fault/bridging.h"
#include "fault/fault.h"
#include "harness/experiment.h"

namespace fstg {
namespace {

Netlist diamond() {
  // n2 = !a; n3 = a & b; n4 = n2 | n3; outputs: n3, n4.
  Netlist nl;
  int a = nl.add_input("a");
  int b = nl.add_input("b");
  int n2 = nl.add_gate(GateType::kNot, {a});
  int n3 = nl.add_gate(GateType::kAnd, {a, b});
  int n4 = nl.add_gate(GateType::kOr, {n2, n3});
  nl.add_output(n3);
  nl.add_output(n4);
  return nl;
}

TEST(LogicSim, MatchesScalarEvaluate) {
  const CircuitExperiment exp = run_circuit("beecount");
  const Netlist& nl = exp.synth.circuit.comb;
  LogicSim sim(nl);
  Rng rng(123);
  // 64 random patterns per word; compare each lane to the scalar oracle.
  std::vector<std::uint64_t> patterns(64);
  for (auto& p : patterns) p = rng.next() & ((1u << nl.num_inputs()) - 1);
  for (int i = 0; i < nl.num_inputs(); ++i) {
    Word w = 0;
    for (int l = 0; l < 64; ++l)
      if ((patterns[static_cast<std::size_t>(l)] >> i) & 1u) w |= Word{1} << l;
    sim.set_input(i, w);
  }
  sim.run();
  for (int l = 0; l < 64; ++l) {
    const std::uint64_t expect =
        nl.evaluate_outputs(patterns[static_cast<std::size_t>(l)]);
    for (int k = 0; k < nl.num_outputs(); ++k)
      ASSERT_EQ((sim.output(k) >> l) & 1u, (expect >> k) & 1u)
          << "lane " << l << " output " << k;
  }
}

TEST(LogicSim, StuckGateFault) {
  Netlist nl = diamond();
  LogicSim sim(nl);
  sim.set_input(0, ~Word{0});  // a = 1 in all lanes
  sim.set_input(1, ~Word{0});  // b = 1
  sim.run(FaultSpec::stuck_gate(3, false));  // n3 (the AND) stuck at 0
  EXPECT_EQ(sim.output(0), Word{0});         // n3 observed 0
  EXPECT_EQ(sim.output(1), Word{0});         // n4 = !a | 0 = 0
}

TEST(LogicSim, StuckPinFaultAffectsOnlyThatGate) {
  Netlist nl = diamond();
  LogicSim sim(nl);
  sim.set_input(0, 0);          // a = 0
  sim.set_input(1, ~Word{0});   // b = 1
  // Pin 0 of the AND gate (input a) stuck at 1: n3 = 1&1 = 1, but the NOT
  // gate still sees the true a=0, so n2 = 1.
  sim.run(FaultSpec::stuck_pin(3, 0, true));
  EXPECT_EQ(sim.output(0), ~Word{0});
  EXPECT_EQ(sim.output(1), ~Word{0});
}

TEST(LogicSim, BridgeAndOrSemantics) {
  // Two disjoint AND gates bridged.
  Netlist nl;
  int a = nl.add_input("a");
  int b = nl.add_input("b");
  int c = nl.add_input("c");
  int d = nl.add_input("d");
  int g1 = nl.add_gate(GateType::kAnd, {a, b});
  int g2 = nl.add_gate(GateType::kAnd, {c, d});
  int o1 = nl.add_gate(GateType::kBuf, {g1});
  int o2 = nl.add_gate(GateType::kBuf, {g2});
  nl.add_output(o1);
  nl.add_output(o2);

  LogicSim sim(nl);
  sim.set_input(0, ~Word{0});
  sim.set_input(1, ~Word{0});  // g1 = 1
  sim.set_input(2, 0);
  sim.set_input(3, ~Word{0});  // g2 = 0

  sim.run(FaultSpec::bridge_and(g1, g2));
  EXPECT_EQ(sim.output(0), Word{0});  // wired-AND pulls both to 0
  EXPECT_EQ(sim.output(1), Word{0});

  sim.run(FaultSpec::bridge_or(g1, g2));
  EXPECT_EQ(sim.output(0), ~Word{0});  // wired-OR pulls both to 1
  EXPECT_EQ(sim.output(1), ~Word{0});

  sim.run();  // fault-free
  EXPECT_EQ(sim.output(0), ~Word{0});
  EXPECT_EQ(sim.output(1), Word{0});
}

TEST(LogicSim, RunConeEquivalentToFullRun) {
  // The event-driven overlay over a fault-free row must give every output
  // exactly what a full faulty evaluation gives, value and X plane, for
  // every stuck-at and bridging fault.
  const CircuitExperiment exp = run_circuit("dk17");
  const Netlist& nl = exp.synth.circuit.comb;
  std::vector<FaultSpec> faults = enumerate_stuck_at(nl);
  const std::vector<FaultSpec> bridges = enumerate_bridging(nl);
  ASSERT_FALSE(bridges.empty());
  faults.insert(faults.end(), bridges.begin(), bridges.end());

  LogicSim full(nl);
  LogicSim overlay(nl);
  Rng rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    // Trials 5..7 leave about a quarter of the input lanes X.
    full.clear_input_x();
    for (int i = 0; i < nl.num_inputs(); ++i) {
      full.set_input(i, rng.next());
      if (trial >= 5) full.set_input_x(i, rng.next() & rng.next());
    }
    full.run();
    const std::vector<Word> base = full.values();
    const std::vector<Word> base_x = full.xvals();
    const Word* bx = full.last_run_had_x() ? base_x.data() : nullptr;
    ASSERT_EQ(bx != nullptr, trial >= 5);
    for (std::size_t f = 0; f < faults.size(); ++f) {
      full.run(faults[f]);
      overlay.run_cone_overlay(faults[f], base.data(), bx);
      for (int k = 0; k < nl.num_outputs(); ++k) {
        ASSERT_EQ(full.output(k), overlay.overlay_output(k, base.data()))
            << "trial " << trial << " fault " << f << " output " << k;
        ASSERT_EQ(full.output_x(k), overlay.overlay_output_xval(k, bx))
            << "trial " << trial << " fault " << f << " output " << k;
      }
    }
  }
}

}  // namespace
}  // namespace fstg
