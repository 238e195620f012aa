#include "sim/logic_sim.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "base/rng.h"
#include "difftest/reference_sim.h"
#include "fault/bridging.h"
#include "fault/fault.h"
#include "harness/experiment.h"
#include "kiss/benchmarks.h"

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

/// Wide AND, NAND, OR and NOR gates (9-16 fanins) over 12 inputs: the NAND
/// reads input 3 on two pins, the OR collects 12 product terms that share
/// their literals pairwise (a fault on a shared literal changes two of its
/// fanins), and `bridge` joins two of the OR's product terms.
Netlist wide_gates(FaultSpec& bridge) {
  Netlist nl;
  std::vector<int> in;
  for (int i = 0; i < 12; ++i)
    in.push_back(nl.add_input("i" + std::to_string(i)));
  std::vector<int> terms;
  for (int k = 0; k < 12; ++k)
    terms.push_back(nl.add_gate(GateType::kAnd, {in[k], in[(k + 1) % 12]}));
  std::vector<int> or_fanins = terms;
  or_fanins.insert(or_fanins.end(), {in[0], in[5], in[7], in[11]});
  const int wide_or = nl.add_gate(GateType::kOr, or_fanins);
  const int wide_and = nl.add_gate(
      GateType::kAnd, {in[0], in[1], in[2], in[3], in[4], in[5], in[6],
                       in[7], terms[8]});
  const int wide_nand = nl.add_gate(
      GateType::kNand, {in[3], in[4], in[3], in[5], in[6], in[7], in[8],
                        in[9], in[10], in[11]});
  const int wide_nor = nl.add_gate(
      GateType::kNor, {terms[0], terms[1], terms[2], terms[3], terms[4],
                       terms[5], in[6], in[7], in[8], in[9], in[10], in[11],
                       wide_and});
  nl.add_output(wide_or);
  nl.add_output(wide_and);
  nl.add_output(wide_nand);
  nl.add_output(wide_nor);
  nl.add_output(nl.add_gate(GateType::kXor, {wide_or, wide_nand}));
  bridge = FaultSpec::bridge_and(terms[2], terms[6]);
  return nl;
}

/// Every stuck-at gate fault, every stuck-at pin fault of every wide gate,
/// every enumerated bridge and `extra` through the overlay over 16 seeded
/// rows (the last 4 with X lanes), against a full faulty evaluation, and
/// fault_excited's lanes against the full evaluation's fault sites.
/// Counts the overlay's O(1) wide-gate evaluations into `incremental`.
void expect_wide_overlay_matches_full_run(const Netlist& nl,
                                          const std::vector<FaultSpec>& extra,
                                          std::uint64_t seed,
                                          std::uint64_t& incremental) {
  std::vector<FaultSpec> faults = enumerate_stuck_at(
      nl, StuckAtOptions{/*include_branches=*/false, /*collapse=*/false});
  std::vector<int> wide;
  LogicSim full(nl);
  for (int g = 0; g < nl.num_gates(); ++g) {
    if (full.wide_word(g) < 0) continue;
    wide.push_back(g);
    for (std::size_t p = 0; p < nl.gate(g).fanins.size(); ++p)
      for (const bool v : {false, true})
        faults.push_back(FaultSpec::stuck_pin(g, static_cast<int>(p), v));
  }
  EXPECT_FALSE(wide.empty());
  const std::vector<FaultSpec> bridges = enumerate_bridging(nl);
  faults.insert(faults.end(), bridges.begin(), bridges.end());
  faults.insert(faults.end(), extra.begin(), extra.end());

  LogicSim overlay(nl);
  Rng rng(seed);
  for (int trial = 0; trial < 16; ++trial) {
    // Input densities of 1/2, 3/4, 1/4 and 7/8 ones, so the AND-type gates
    // get lanes with one or no controlling fanin too.
    full.clear_input_x();
    for (int i = 0; i < nl.num_inputs(); ++i) {
      Word w = rng.next();
      if (trial % 4 == 1) w |= rng.next();
      if (trial % 4 == 2) w &= rng.next();
      if (trial % 4 == 3) w |= rng.next() | rng.next();
      full.set_input(i, w);
      if (trial >= 12) full.set_input_x(i, rng.next() & rng.next());
    }
    full.run();
    const std::vector<Word> base = full.values();
    const std::vector<Word> base_x = full.xvals();
    const Word* bx = full.last_run_had_x() ? base_x.data() : nullptr;
    ASSERT_EQ(bx != nullptr, trial >= 12);
    if (bx == nullptr) {
      // Each two-controlling word against a count of the gate's fanin
      // entries that hold the controlling value.
      for (const int g : wide) {
        const GateType t = nl.gate(g).type;
        const bool control = t == GateType::kOr || t == GateType::kNor;
        Word two = 0;
        for (int l = 0; l < kWordBits; ++l) {
          int count = 0;
          for (const int f : nl.gate(g).fanins)
            count += ((base[static_cast<std::size_t>(f)] >> l) & 1u) ==
                     static_cast<Word>(control);
          if (count >= 2) two |= Word{1} << l;
        }
        ASSERT_EQ(base[static_cast<std::size_t>(full.wide_word(g))], two)
            << "trial " << trial << " gate " << g;
      }
    }
    for (const FaultSpec& fault : faults) {
      full.run(fault);
      const int changed = overlay.run_cone_overlay(fault, base.data(), bx);
      // The excited lanes are those where the full run leaves a fault site
      // (both lines of a bridge) apart from the base in value or X.
      const auto deviates = [&](int g) {
        const std::size_t gi = static_cast<std::size_t>(g);
        return (full.value(g) ^ base[gi]) | (full.xval(g) ^ base_x[gi]);
      };
      Word site_lanes = deviates(fault.gate);
      if (fault.kind == FaultSpec::Kind::kBridge)
        site_lanes |= deviates(fault.gate2_or_pin);
      const Word excited = overlay.fault_excited(fault, base.data(), bx);
      EXPECT_EQ(excited, site_lanes)
          << "trial " << trial << " fault " << describe_fault(nl, fault);
      EXPECT_EQ(excited != 0, changed > 0)
          << "trial " << trial << " fault " << describe_fault(nl, fault);
      for (int k = 0; k < nl.num_outputs(); ++k) {
        ASSERT_EQ(full.output(k), overlay.overlay_output(k, base.data()))
            << "trial " << trial << " fault " << describe_fault(nl, fault)
            << " output " << k;
        ASSERT_EQ(full.output_x(k), overlay.overlay_output_xval(k, bx))
            << "trial " << trial << " fault " << describe_fault(nl, fault)
            << " output " << k;
      }
    }
  }
  incremental = overlay.stats().wide_incremental;
}

TEST(LogicSim, WideGateOverlayMatchesFullRun) {
  // keyb's ORs have 13-40 fanins; dk17's widest gate has 8, so
  // RunConeEquivalentToFullRun never reaches the O(1) update.
  const Netlist keyb =
      synthesize_scan_circuit(load_benchmark("keyb")).circuit.comb;
  std::uint64_t incremental = 0;
  expect_wide_overlay_matches_full_run(keyb, {}, 24, incremental);
  EXPECT_GT(incremental, 0u);
  FaultSpec bridge;
  const Netlist crafted = wide_gates(bridge);
  const FaultSpec or_bridge =
      FaultSpec::bridge_or(bridge.gate, bridge.gate2_or_pin);
  incremental = 0;
  expect_wide_overlay_matches_full_run(crafted, {bridge, or_bridge}, 9,
                                       incremental);
  EXPECT_GT(incremental, 0u);
}

/// Seeded random packs of up to 64 entries over `circuit`'s netlist, each
/// bit checked against the scalar reference (src/difftest/reference_sim)
/// for its entry alone: every gate's value and X. The entries mix stuck-at
/// gate faults, stuck-at pin faults (every pin of a gate with a duplicated
/// fanin among them), AND and OR bridges and, in every other pack, X
/// inputs and X state; their rows, lanes and states are drawn apart.
void expect_packed_bits_match_reference(const ScanCircuit& circuit,
                                        std::uint64_t seed) {
  const Netlist& nl = circuit.comb;
  std::vector<FaultSpec> pool =
      enumerate_stuck_at(nl, StuckAtOptions{true, /*collapse=*/false});
  for (int g = 0; g < nl.num_gates(); ++g) {
    std::vector<int> fanins = nl.gate(g).fanins;
    std::sort(fanins.begin(), fanins.end());
    if (std::adjacent_find(fanins.begin(), fanins.end()) == fanins.end())
      continue;
    for (std::size_t p = 0; p < fanins.size(); ++p)
      for (const bool v : {false, true})
        pool.push_back(FaultSpec::stuck_pin(g, static_cast<int>(p), v));
  }
  const std::vector<FaultSpec> bridges = enumerate_bridging(nl);
  ASSERT_FALSE(bridges.empty());
  pool.insert(pool.end(), bridges.begin(), bridges.end());

  Rng rng(seed);
  const std::size_t gates = static_cast<std::size_t>(nl.num_gates());
  std::vector<std::vector<Word>> rows(8, std::vector<Word>(gates));
  std::vector<std::vector<Word>> rows_x(8, std::vector<Word>(gates));
  LogicSim sim(nl);
  for (int trial = 0; trial < 24; ++trial) {
    const bool with_x = trial % 2 == 1;
    for (std::size_t r = 0; r < rows.size(); ++r)
      for (std::size_t g = 0; g < gates; ++g) {
        rows[r][g] = rng.next();
        rows_x[r][g] = rng.next() & rng.next() & rng.next();
      }
    std::vector<PackedEntry> pack(rng.range(1, 64));
    for (PackedEntry& e : pack) {
      const std::size_t r = rng.below(rows.size());
      e.fault = pool[rng.below(pool.size())];
      e.row = rows[r].data();
      e.lane = static_cast<int>(rng.below(64));
      e.state = static_cast<std::uint32_t>(rng.next());
      if (with_x && rng.chance(1, 2)) e.row_x = rows_x[r].data();
      if (with_x && rng.chance(1, 2))
        e.state_x = static_cast<std::uint32_t>(rng.next() & rng.next());
    }
    sim.run_packed(pack, circuit.num_pi);

    for (std::size_t b = 0; b < pack.size(); ++b) {
      const PackedEntry& e = pack[b];
      std::vector<difftest::RV> inputs;
      const auto rv = [](bool v, bool x) {
        return x ? difftest::RV::kX : v ? difftest::RV::k1 : difftest::RV::k0;
      };
      for (int i = 0; i < nl.num_inputs(); ++i) {
        if (i < circuit.num_pi) {
          const std::size_t g =
              static_cast<std::size_t>(nl.inputs()[static_cast<std::size_t>(i)]);
          inputs.push_back(rv((e.row[g] >> e.lane) & 1u,
                              e.row_x != nullptr && ((e.row_x[g] >> e.lane) & 1u)));
        } else {
          const int k = i - circuit.num_pi;
          inputs.push_back(rv((e.state >> k) & 1u, (e.state_x >> k) & 1u));
        }
      }
      const std::vector<difftest::RV> expect =
          difftest::reference_eval(nl, inputs, e.fault);
      for (int g = 0; g < nl.num_gates(); ++g) {
        const difftest::RV got =
            rv((sim.value(g) >> b) & 1u, (sim.xval(g) >> b) & 1u);
        ASSERT_EQ(got, expect[static_cast<std::size_t>(g)])
            << "trial " << trial << " bit " << b << " gate " << g << " fault "
            << describe_fault(nl, e.fault);
      }
    }
  }
}

TEST(LogicSim, PackedSweepMatchesReferencePerBit) {
  expect_packed_bits_match_reference(run_circuit("dk17").synth.circuit, 17);
  expect_packed_bits_match_reference(run_circuit("keyb").synth.circuit, 5);
  SynthesisOptions multilevel;
  multilevel.multilevel = true;
  multilevel.max_fanin = 3;
  expect_packed_bits_match_reference(
      synthesize_scan_circuit(load_benchmark("mark1"), multilevel).circuit, 1);
  // A netlist whose AND reads one driver on both pins, so the duplicated
  // pin faults are in the pool for sure.
  ScanCircuit dup;
  dup.comb = diamond();
  const int a = dup.comb.inputs()[0];
  const int b = dup.comb.inputs()[1];
  const int both = dup.comb.add_gate(GateType::kAnd, {a, a, b});
  dup.comb.add_output(dup.comb.add_gate(GateType::kXor, {both, a}));
  dup.num_pi = 1;
  dup.num_sv = 1;
  dup.num_po = 2;
  expect_packed_bits_match_reference(dup, 3);
}

}  // namespace
}  // namespace fstg
