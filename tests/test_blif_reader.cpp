#include "netlist/blif_reader.h"

#include <gtest/gtest.h>

#include "base/error.h"
#include "harness/experiment.h"
#include "netlist/export.h"
#include "sim/read_back.h"

namespace fstg {
namespace {

TEST(BlifReader, RoundTripsOurWriter) {
  for (const std::string name : {"lion", "dk27", "beecount", "ex5"}) {
    SCOPED_TRACE(name);
    CircuitExperiment exp = run_circuit(name);
    ScanCircuit parsed = parse_blif(to_blif(exp.synth.circuit));
    EXPECT_EQ(parsed.num_pi, exp.synth.circuit.num_pi);
    EXPECT_EQ(parsed.num_po, exp.synth.circuit.num_po);
    EXPECT_EQ(parsed.num_sv, exp.synth.circuit.num_sv);
    // Behavioural equality: identical completed state tables.
    StateTable a = read_back_table(exp.synth.circuit);
    StateTable b = read_back_table(parsed);
    EXPECT_TRUE(a == b);
  }
}

TEST(BlifReader, HandWrittenModel) {
  // A 1-bit toggle with enable: next = en XOR q, out = q.
  const char* text = R"(
# toggle
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
)";
  ScanCircuit c = parse_blif(text);
  EXPECT_EQ(c.name, "toggle");
  EXPECT_EQ(c.num_pi, 1);
  EXPECT_EQ(c.num_po, 1);
  EXPECT_EQ(c.num_sv, 1);
  std::uint32_t po, ns;
  c.step(/*state=*/0, /*en=*/1, po, ns);
  EXPECT_EQ(po, 0u);
  EXPECT_EQ(ns, 1u);
  c.step(1, 0, po, ns);
  EXPECT_EQ(po, 1u);
  EXPECT_EQ(ns, 1u);
  c.step(1, 1, po, ns);
  EXPECT_EQ(ns, 0u);
}

TEST(BlifReader, OffSetCover) {
  // f = NOT(a AND b) expressed with output column 0.
  const char* text = R"(
.model offset
.inputs a b
.outputs f
.names a b f
11 0
.end
)";
  ScanCircuit c = parse_blif(text);
  // Pure combinational (0 latches); evaluate directly.
  EXPECT_EQ(c.comb.evaluate_outputs(0b00), 1u);
  EXPECT_EQ(c.comb.evaluate_outputs(0b01), 1u);
  EXPECT_EQ(c.comb.evaluate_outputs(0b11), 0u);
}

TEST(BlifReader, ConstantsAndContinuations) {
  const char* text =
      ".model k\n.inputs a \\\n b\n.outputs one zero f\n"
      ".names one\n1\n.names zero\n.names a b f\n1- 1\n-1 1\n.end\n";
  ScanCircuit c = parse_blif(text);
  EXPECT_EQ(c.comb.evaluate_outputs(0b00) & 0b11u, 0b01u);  // one=1, zero=0
  EXPECT_EQ((c.comb.evaluate_outputs(0b10) >> 2) & 1u, 1u);  // f = a|b
}

TEST(BlifReader, BlocksInAnyOrder) {
  // g depends on f, declared first.
  const char* text = R"(
.model order
.inputs a
.outputs g
.names f g
0 1
.names a f
1 1
.end
)";
  ScanCircuit c = parse_blif(text);
  EXPECT_EQ(c.comb.evaluate_outputs(0), 1u);  // g = !f = !a
  EXPECT_EQ(c.comb.evaluate_outputs(1), 0u);
}

TEST(BlifReader, Rejections) {
  EXPECT_THROW(parse_blif(".model m\n.outputs f\n.end\n"), Error);  // no inputs
  EXPECT_THROW(parse_blif(".model m\n.inputs a\n.end\n"), Error);   // no outputs
  EXPECT_THROW(parse_blif(".model m\n.inputs a\n.outputs f\n"
                          ".names a f\n1 1\n0 0\n.end\n"),
               ParseError);  // mixed polarity
  EXPECT_THROW(parse_blif(".model m\n.inputs a\n.outputs f\n"
                          ".names a f\n11 1\n.end\n"),
               ParseError);  // row width
  EXPECT_THROW(parse_blif(".model m\n.inputs a\n.outputs f\n"
                          ".names x f\n1 1\n.end\n"),
               Error);  // undefined net x
  EXPECT_THROW(parse_blif(".model m\n.inputs a\n.outputs f\n"
                          ".names f g\n1 1\n.names g f\n1 1\n.end\n"),
               Error);  // cycle
  EXPECT_THROW(parse_blif(".model m\n.inputs a\n.outputs f\n.bogus\n"),
               ParseError);
}

}  // namespace
}  // namespace fstg
