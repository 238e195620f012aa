// Multi-level synthesis and encoding styles: the paper's implementation-
// independence claim in executable form. The functional model (read-back
// table up to state relabeling) and the functional tests must not depend
// on how the machine is implemented; the fault lists do.

#include <gtest/gtest.h>

#include "harness/experiment.h"

namespace fstg {
namespace {

SynthesisOptions multilevel_options(int max_fanin,
                                    EncodingStyle style = EncodingStyle::kNatural) {
  SynthesisOptions options;
  options.multilevel = true;
  options.max_fanin = max_fanin;
  options.encoding = style;
  return options;
}

TEST(Multilevel, BehaviourIdenticalToTwoLevel) {
  for (const std::string name : {"lion", "dk17", "beecount", "ex5"}) {
    SCOPED_TRACE(name);
    Kiss2Fsm fsm = load_benchmark(name);
    SynthesisResult two = synthesize_scan_circuit(fsm);
    SynthesisResult multi = synthesize_scan_circuit(fsm, multilevel_options(4));
    // Same encoding -> read-back tables must be bit-identical (the covers
    // are shared; only the structure differs).
    StateTable a = read_back_table(two.circuit, &fsm, &two.encoding);
    StateTable b = read_back_table(multi.circuit, &fsm, &multi.encoding);
    EXPECT_TRUE(a == b);
  }
}

TEST(Multilevel, RespectsFaninBound) {
  Kiss2Fsm fsm = load_benchmark("mark1");
  SynthesisResult r = synthesize_scan_circuit(fsm, multilevel_options(3));
  for (int g = 0; g < r.circuit.comb.num_gates(); ++g)
    EXPECT_LE(r.circuit.comb.gate(g).fanins.size(), 3u) << "gate " << g;
}

TEST(Multilevel, DeeperThanTwoLevel) {
  Kiss2Fsm fsm = load_benchmark("mark1");
  SynthesisResult two = synthesize_scan_circuit(fsm);
  SynthesisResult multi = synthesize_scan_circuit(fsm, multilevel_options(4));
  EXPECT_GT(multi.circuit.comb.depth(), two.circuit.comb.depth());
  EXPECT_TRUE(circuit_matches_fsm(read_back_table(multi.circuit), fsm,
                                  multi.encoding));
}

TEST(EncodingStyles, AllStylesMatchSpecification) {
  Kiss2Fsm fsm = load_benchmark("dk512");
  for (EncodingStyle style : {EncodingStyle::kNatural, EncodingStyle::kGray,
                              EncodingStyle::kRandom}) {
    SynthesisOptions options;
    options.encoding = style;
    SynthesisResult r = synthesize_scan_circuit(fsm, options);
    std::string msg;
    EXPECT_TRUE(
        circuit_matches_fsm(read_back_table(r.circuit), fsm, r.encoding, &msg))
        << msg;
    EXPECT_TRUE(r.encoding.valid());
  }
}

TEST(EncodingStyles, GrayCodesAreGray) {
  Encoding enc = make_encoding(8, EncodingStyle::kGray);
  for (int i = 1; i < 8; ++i) {
    const std::uint32_t diff =
        enc.code_of_state[static_cast<std::size_t>(i)] ^
        enc.code_of_state[static_cast<std::size_t>(i - 1)];
    EXPECT_EQ(diff & (diff - 1), 0u) << i;  // exactly one bit flips
  }
}

TEST(EncodingStyles, RandomIsDeterministicPerName) {
  Encoding a = make_encoding(10, EncodingStyle::kRandom, "seed-a");
  Encoding b = make_encoding(10, EncodingStyle::kRandom, "seed-a");
  Encoding c = make_encoding(10, EncodingStyle::kRandom, "seed-b");
  EXPECT_EQ(a.code_of_state, b.code_of_state);
  EXPECT_NE(a.code_of_state, c.code_of_state);
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(c.valid());
}

TEST(EncodingStyles, FunctionalTestsIndependentOfImplementation) {
  // The paper's core claim: tests generated from the state table stay
  // valid for every implementation. Here: generate tests against the
  // natural-encoding implementation's table; they remain consistent with
  // the *machine* regardless of the multi-level restructuring (same
  // encoding, different structure).
  Kiss2Fsm fsm = load_benchmark("dk17");
  CircuitExperiment exp = run_fsm(fsm);
  SynthesisResult multi = synthesize_scan_circuit(fsm, multilevel_options(4));
  StateTable multi_table = read_back_table(multi.circuit, &fsm, &multi.encoding);
  // Same completed table -> the very same test set validates.
  exp.gen.tests.validate(multi_table);
}

}  // namespace
}  // namespace fstg
