// The 64-lane read-back against the scalar reference: read_back_table must
// produce, on every minterm, the next state and outputs one
// ScanCircuit::step computes, whatever the minterm count (fewer than one
// pass of 64, exactly one, or many) and wherever the circuit came from.

#include "sim/read_back.h"

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "netlist/blif_reader.h"
#include "netlist/export.h"

namespace fstg {
namespace {

/// The scalar walk: one ScanCircuit::step per (state code, input) minterm.
StateTable scalar_read_back(const ScanCircuit& circuit) {
  StateTable table(circuit.num_pi, circuit.num_po, 1 << circuit.num_sv);
  for (int code = 0; code < table.num_states(); ++code) {
    for (std::uint32_t ic = 0; ic < table.num_input_combos(); ++ic) {
      std::uint32_t po = 0, ns = 0;
      circuit.step(static_cast<std::uint32_t>(code), ic, po, ns);
      table.set(code, ic, static_cast<int>(ns), po);
    }
  }
  return table;
}

void expect_matches_scalar(const ScanCircuit& circuit) {
  const StateTable lanes = read_back_table(circuit);
  const StateTable scalar = scalar_read_back(circuit);
  ASSERT_EQ(lanes.num_transitions(), scalar.num_transitions());
  for (int s = 0; s < scalar.num_states(); ++s) {
    for (std::uint32_t ic = 0; ic < scalar.num_input_combos(); ++ic) {
      ASSERT_EQ(lanes.next(s, ic), scalar.next(s, ic)) << s << "/" << ic;
      ASSERT_EQ(lanes.output(s, ic), scalar.output(s, ic)) << s << "/" << ic;
    }
  }
  EXPECT_TRUE(lanes == scalar);
}

TEST(ReadBack, MatchesScalarWalkOnRandomMachines) {
  // The property sweep's generator: 2^(pi+sv) from 8 minterms (under one
  // pass) to 2048 (32 passes).
  struct Shape {
    int pi, states, outputs;
  };
  int seed = 0;
  for (const Shape& shape :
       {Shape{1, 3, 1}, Shape{2, 4, 1}, Shape{2, 5, 2}, Shape{3, 8, 2},
        Shape{4, 7, 4}, Shape{4, 12, 2}, Shape{5, 10, 3}, Shape{6, 9, 5},
        Shape{7, 16, 3}}) {
    const Kiss2Fsm fsm =
        make_synthetic_fsm("readback-" + std::to_string(++seed), shape.pi,
                           shape.states, shape.outputs);
    SCOPED_TRACE(fsm.name);
    expect_matches_scalar(synthesize_scan_circuit(fsm).circuit);
  }
}

TEST(ReadBack, MatchesScalarWalkOnBenchmarks) {
  // lion: 16 minterms (one partial pass); bbara 256; cse 2048.
  for (const std::string name : {"lion", "dk27", "bbara", "cse"}) {
    SCOPED_TRACE(name);
    expect_matches_scalar(
        synthesize_scan_circuit(load_benchmark(name)).circuit);
  }
}

TEST(ReadBack, MatchesScalarWalkOnBlifImports) {
  // A hand-written model (4 minterms) and our own export of two benchmarks
  // read back through the BLIF importer.
  expect_matches_scalar(parse_blif(R"(
.model toggle
.inputs en
.outputs out
.latch nxt q 0
.names en q nxt
10 1
01 1
.names q out
1 1
.end
)"));
  for (const std::string name : {"lion", "ex5"}) {
    SCOPED_TRACE(name);
    const SynthesisResult r = synthesize_scan_circuit(load_benchmark(name));
    expect_matches_scalar(parse_blif(to_blif(r.circuit, name)));
  }
}

TEST(ReadBack, SpecifiedRowsAreTableLookups) {
  // The check reads the specified KISS2 rows from the table alone: a table
  // edited on one specified entry fails with the same message the circuit
  // itself would produce.
  const Kiss2Fsm lion = load_benchmark("lion");
  const SynthesisResult r = synthesize_scan_circuit(lion);
  StateTable table = read_back_table(r.circuit, &lion, &r.encoding);
  std::string msg;
  ASSERT_TRUE(circuit_matches_fsm(table, lion, r.encoding, &msg)) << msg;
  table.set(0, 0, table.next(0, 0) ^ 1, table.output(0, 0));
  EXPECT_FALSE(circuit_matches_fsm(table, lion, r.encoding, &msg));
  EXPECT_NE(msg.find("next code"), std::string::npos) << msg;
}

}  // namespace
}  // namespace fstg
