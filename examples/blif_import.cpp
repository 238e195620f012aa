// "Bring your own implementation": import a gate-level design from BLIF,
// read back its functional state table, generate the paper's functional
// tests for it, and fault-simulate them — no KISS2 description required.
//
//   blif_import                # uses a bundled toggle-counter model
//   blif_import my_design.blif # any supported BLIF with latches

#include <cstdio>
#include <string>

#include "atpg/cycles.h"
#include "harness/experiment.h"
#include "netlist/blif_reader.h"
#include "sim/read_back.h"

namespace {

// A 2-bit resettable counter with carry-out, written by hand:
//   q0' = en & ~rst & ~q0            | ~en & ~rst & q0
//   q1' = en & ~rst & (q0 XOR q1)... | ~en & ~rst & q1
//   carry = en & q0 & q1
constexpr const char* kCounterBlif = R"(
.model counter2
.inputs en rst
.outputs carry
.latch n0 q0 0
.latch n1 q1 0
.names en rst q0 n0
100 1
0-1 1
.names en rst q0 q1 n1
1010 1
1001 1
0--1 1
.names en q0 q1 carry
111 1
.end
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace fstg;

  ScanCircuit circuit = argc > 1 ? parse_blif_file(argv[1])
                                 : parse_blif(kCounterBlif);
  std::printf("imported `%s`: %d gates, %d inputs, %d outputs, %d state "
              "variables\n",
              circuit.name.c_str(), circuit.comb.num_gates(), circuit.num_pi,
              circuit.num_po, circuit.num_sv);

  // The functional model comes straight from the implementation.
  StateTable table = read_back_table(circuit);
  std::printf("completed state table: %d states x %u input combinations\n",
              table.num_states(), table.num_input_combos());

  GeneratorResult gen = generate_functional_tests(table);
  std::printf("functional tests: %zu (total length %zu) covering all %zu "
              "transitions; %d states have UIOs\n",
              gen.tests.size(), gen.tests.total_length(),
              table.num_transitions(), gen.uios.count());

  const std::vector<FaultSpec> faults = enumerate_stuck_at(circuit.comb);
  FaultSimResult sim = simulate_faults(circuit, gen.tests, faults);
  RedundancyResult red =
      classify_faults_from(circuit, faults, sim.detected_by);
  std::printf("stuck-at: %zu/%zu detected (%.2f%%); detectable coverage "
              "%.2f%% (%zu undetectable)\n",
              sim.detected_faults, sim.total_faults, sim.coverage_percent(),
              red.detectable_coverage_percent(), red.undetectable);

  const std::size_t cycles =
      test_application_cycles(circuit.num_sv, gen.tests);
  const std::size_t baseline =
      per_transition_cycles(circuit.num_sv, table.num_transitions());
  std::printf("application cycles: %zu (%.2f%% of the per-transition "
              "baseline's %zu)\n",
              cycles,
              100.0 * static_cast<double>(cycles) /
                  static_cast<double>(baseline),
              baseline);
  return red.detectable_coverage_percent() == 100.0 ? 0 : 1;
}
