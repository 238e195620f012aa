#include "difftest/workload.h"

#include <algorithm>
#include <utility>

#include "base/error.h"
#include "difftest/reference_sim.h"
#include "fault/bridging.h"
#include "fault/fault.h"
#include "kiss/benchmarks.h"
#include "netlist/synth.h"

namespace fstg::difftest {

void append_observers(ScanCircuit& circuit, Rng& rng, int count, bool wide) {
  const Netlist& old = circuit.comb;
  const int n = old.num_gates();
  require(n > 0, "append_observers: empty netlist");

  Netlist enriched;
  for (int id = 0; id < n; ++id) {
    const Gate& g = old.gate(id);
    if (g.type == GateType::kInput)
      enriched.add_input(g.name);
    else
      enriched.add_gate(g.type, g.fanins, g.name);
  }

  std::vector<int> observers;
  observers.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    const GateType type = rng.chance(1, 2) ? GateType::kXor : GateType::kXnor;
    const int arity = rng.chance(1, 2) ? 2 : 3;
    std::vector<int> fanins;
    for (int p = 0; p < arity; ++p)
      fanins.push_back(static_cast<int>(rng.below(static_cast<std::uint64_t>(n))));
    // Deliberate duplicated fanin: the shape where per-driver and per-pin
    // stuck-at forcing disagree.
    if (arity >= 2 && rng.chance(1, 4)) fanins[1] = fanins[0];
    observers.push_back(enriched.add_gate(type, std::move(fanins)));
  }
  // The wide observer: 9-12 fanins, a quarter of the time with a
  // duplicated one.
  if (wide) {
    constexpr GateType kWideTypes[] = {GateType::kAnd, GateType::kNand,
                                       GateType::kOr, GateType::kNor};
    const GateType type = kWideTypes[rng.below(4)];
    const int arity = kWideFanins + 1 + static_cast<int>(rng.below(4));
    std::vector<int> fanins;
    for (int p = 0; p < arity; ++p)
      fanins.push_back(static_cast<int>(rng.below(static_cast<std::uint64_t>(n))));
    if (rng.chance(1, 4)) fanins[1] = fanins[0];
    observers.push_back(enriched.add_gate(type, std::move(fanins)));
  }

  // Rebuild the output list as [old POs][observers][next-state] so the
  // ScanCircuit convention (outputs = [po][sv]) survives the widening.
  for (int k = 0; k < circuit.num_po; ++k)
    enriched.add_output(old.outputs()[static_cast<std::size_t>(k)]);
  for (int id : observers) enriched.add_output(id);
  for (int k = 0; k < circuit.num_sv; ++k)
    enriched.add_output(
        old.outputs()[static_cast<std::size_t>(circuit.num_po + k)]);

  circuit.comb = std::move(enriched);
  circuit.num_po += static_cast<int>(observers.size());
}

namespace {

std::vector<FaultSpec> sample_faults(const ScanCircuit& circuit, Rng& rng) {
  StuckAtOptions sa;
  sa.include_branches = true;
  sa.collapse = rng.chance(1, 2);
  std::vector<FaultSpec> pool = enumerate_stuck_at(circuit.comb, sa);
  std::vector<FaultSpec> bridges = enumerate_bridging(circuit.comb);
  // Bridges vastly outnumber stuck faults on enriched netlists; keep a
  // random slice so the mix stays balanced.
  const std::size_t bridge_cap = 8 + rng.below(40);
  for (std::size_t i = bridges.size(); i > 1; --i)
    std::swap(bridges[i - 1], bridges[rng.below(i)]);
  if (bridges.size() > bridge_cap) bridges.resize(bridge_cap);
  pool.insert(pool.end(), bridges.begin(), bridges.end());

  // Partial Fisher-Yates, then truncate. Target sizes straddle the
  // engine's parallel-dispatch threshold (kMinParallelFaults = 64) so both
  // the serial and the work-stealing reduction paths get exercised.
  const std::size_t target = 8 + rng.below(130);
  for (std::size_t i = pool.size(); i > 1; --i)
    std::swap(pool[i - 1], pool[rng.below(i)]);
  if (pool.size() > target) pool.resize(target);
  return pool;
}

std::uint32_t bit_mask(int bits) {
  return bits >= 32 ? ~0u : (1u << bits) - 1;
}

TestSet sample_tests(const ScanCircuit& circuit, Rng& rng) {
  TestSet tests;
  const std::uint32_t in_mask = bit_mask(circuit.num_pi);
  const std::uint32_t st_mask = bit_mask(circuit.num_sv);
  const std::size_t count = rng.below(14);  // 0 tests is a valid shape
  for (std::size_t t = 0; t < count; ++t) {
    FunctionalTest ft;
    ft.init_state = static_cast<int>(rng.next() & st_mask);
    ft.final_state = 0;  // truthful value filled in by generate_workload
    std::size_t len;
    if (rng.chance(1, 8))
      len = 0;  // scan-in immediately followed by scan-out
    else if (rng.chance(1, 3))
      len = 1;  // single-cycle test
    else
      len = 2 + rng.below(6);
    const bool x_test = rng.chance(1, 3);
    bool any_x = false;
    for (std::size_t c = 0; c < len; ++c) {
      std::uint32_t x = 0;
      if (x_test) {
        if (rng.chance(1, 8))
          x = in_mask;  // all-X vector
        else if (rng.chance(1, 2))
          x = static_cast<std::uint32_t>(rng.next()) & in_mask;
      }
      ft.inputs.push_back(static_cast<std::uint32_t>(rng.next()) & in_mask &
                          ~x);
      ft.input_x.push_back(x);
      any_x = any_x || x != 0;
    }
    if (!any_x) ft.input_x.clear();
    tests.tests.push_back(std::move(ft));
  }
  return tests;
}

/// The shape chaining produces: one two-valued test of 200-2,000 random
/// vectors, at least twice as long as any test sample_tests draws, so the
/// engine cuts it into segments and stitches them per fault.
FunctionalTest long_test(const ScanCircuit& circuit, Rng& rng) {
  FunctionalTest ft;
  ft.init_state = static_cast<int>(rng.next() & bit_mask(circuit.num_sv));
  const std::size_t len = 200 + rng.below(1801);
  for (std::size_t c = 0; c < len; ++c)
    ft.inputs.push_back(static_cast<std::uint32_t>(rng.next()) &
                        bit_mask(circuit.num_pi));
  ft.final_state =
      static_cast<int>(reference_good_trace(circuit, ft).final_state);
  return ft;
}

}  // namespace

Workload generate_workload(std::uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.seed = seed;
  w.name = "seed" + std::to_string(seed);

  const int pi = 1 + static_cast<int>(rng.below(4));
  const int states = 2 + static_cast<int>(rng.below(9));
  const int outputs = 1 + static_cast<int>(rng.below(3));
  const Kiss2Fsm fsm = make_synthetic_fsm(w.name, pi, states, outputs);

  SynthesisOptions opt;
  opt.multilevel = rng.chance(1, 2);
  opt.max_fanin = 3 + static_cast<int>(rng.below(3));
  w.circuit = synthesize_scan_circuit(fsm, opt).circuit;

  if (rng.chance(2, 3))
    append_observers(w.circuit, rng, 1 + static_cast<int>(rng.below(4)));

  w.faults = sample_faults(w.circuit, rng);
  w.tests = sample_tests(w.circuit, rng);

  // Fault simulation ignores the declared final state, but static
  // compaction chains tests on it, so make it truthful (via the scalar
  // reference) wherever it is fully defined — otherwise compaction
  // workloads would only ever merge by accident.
  for (FunctionalTest& t : w.tests.tests) {
    const RefTestTrace trace = reference_good_trace(w.circuit, t);
    if (trace.final_state_x == 0)
      t.final_state = static_cast<int>(trace.final_state);
  }

  // A quarter of the workloads additionally exercise the static-compaction
  // contract (per-fault coverage preservation through merges); a quarter of
  // the rest cross-check the static implication engine's untestability and
  // equivalence proofs against the exhaustive engine. The extra draws come
  // after every content draw, so existing seeds keep their exact circuits.
  if (rng.chance(1, 4))
    w.check = CheckKind::kCompaction;
  else if (rng.chance(1, 3))
    w.check = CheckKind::kStaticRedundancy;

  // A quarter of the workloads lead with one long test. Drawn last, for the
  // same reason: every other seed keeps its circuit, faults and tests.
  if (rng.chance(1, 4))
    w.tests.tests.insert(w.tests.tests.begin(), long_test(w.circuit, rng));

  // Synthesis emits only ORs wider than kWideFanins, and none with a
  // duplicated fanin, so a third of the workloads get one wide AND, NAND,
  // OR or NOR observer too, with its stuck-at stem and pin faults (the
  // O(1) wide-gate update counts a driver on two pins twice). Drawn after
  // everything else: the workload keeps its faults and tests, and an
  // observer changes no state.
  if (rng.chance(1, 3)) {
    append_observers(w.circuit, rng, 0, /*wide=*/true);
    const int g = w.circuit.comb.num_gates() - 1;
    const int pins = static_cast<int>(w.circuit.comb.gate(g).fanins.size());
    for (const bool v : {false, true}) {
      w.faults.push_back(FaultSpec::stuck_gate(g, v));
      for (int p = 0; p < pins; ++p)
        w.faults.push_back(FaultSpec::stuck_pin(g, p, v));
    }
  }
  return w;
}

}  // namespace fstg::difftest
