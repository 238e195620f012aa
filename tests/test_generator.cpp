#include "atpg/generator.h"

#include <gtest/gtest.h>

#include "atpg/cycles.h"
#include "base/error.h"
#include "fsm/state_table.h"
#include "kiss/benchmarks.h"

namespace fstg {
namespace {

StateTable table_of(const std::string& name) {
  return expand_fsm(load_benchmark(name), FillPolicy::kSelfLoop);
}

/// Structural invariants every generation run must satisfy, regardless of
/// the machine: full transition coverage (each exactly once), tests
/// consistent with the machine, postponement/1len bookkeeping consistent.
void check_invariants(const StateTable& t, const GeneratorResult& r) {
  r.tests.validate(t);
  ASSERT_EQ(r.tested_by.size(), t.num_transitions());
  std::vector<std::size_t> per_test(r.tests.size(), 0);
  for (std::size_t id = 0; id < r.tested_by.size(); ++id) {
    ASSERT_GE(r.tested_by[id], 0) << "transition " << id << " untested";
    ASSERT_LT(static_cast<std::size_t>(r.tested_by[id]), r.tests.size());
    ++per_test[static_cast<std::size_t>(r.tested_by[id])];
  }
  // Every test tests at least one transition; length-one tests exactly one.
  std::size_t len1_transitions = 0;
  for (std::size_t i = 0; i < r.tests.size(); ++i) {
    EXPECT_GE(per_test[i], 1u) << "useless test " << i;
    if (r.tests.tests[i].length() == 1) {
      EXPECT_EQ(per_test[i], 1u);
      len1_transitions += per_test[i];
    }
  }
  EXPECT_EQ(r.transitions_in_length_one, len1_transitions);
  // A test cannot test more transitions than its length.
  for (std::size_t i = 0; i < r.tests.size(); ++i)
    EXPECT_LE(per_test[i], r.tests.tests[i].inputs.size());
}

TEST(Generator, InvariantsHoldOnLightBenchmarks) {
  for (const std::string& name : benchmark_names(0)) {
    SCOPED_TRACE(name);
    StateTable t = table_of(name);
    GeneratorResult r = generate_functional_tests(t);
    check_invariants(t, r);
    EXPECT_LE(r.tests.size(), t.num_transitions());
  }
}

TEST(Generator, NoTransferVariantInvariants) {
  GeneratorOptions options;
  options.transfer_max_length = 0;
  for (const char* name : {"lion", "bbtas", "dk15", "dk27", "shiftreg"}) {
    SCOPED_TRACE(name);
    StateTable t = table_of(name);
    GeneratorResult r = generate_functional_tests(t, options);
    check_invariants(t, r);
  }
}

TEST(Generator, NoUiosDegradesToPerTransition) {
  // With UIO length 0 effectively disabled (budget 0 finds nothing),
  // every test is a single transition: N tests of length 1.
  GeneratorOptions options;
  options.uio_eval_budget = 0;
  StateTable t = table_of("lion");
  GeneratorResult r = generate_functional_tests(t, options);
  check_invariants(t, r);
  EXPECT_EQ(r.tests.size(), t.num_transitions());
  for (const auto& test : r.tests.tests) EXPECT_EQ(test.length(), 1);
  EXPECT_EQ(r.transitions_in_length_one, t.num_transitions());
}

TEST(Generator, PostponementReducesLengthOneTests) {
  // With postponement disabled, lion's generation starts tests from
  // transitions into UIO-less states, creating more length-one tests.
  StateTable t = table_of("lion");
  GeneratorOptions no_postpone;
  no_postpone.postpone_no_uio_starts = false;
  GeneratorResult without = generate_functional_tests(t, no_postpone);
  GeneratorResult with = generate_functional_tests(t);
  check_invariants(t, without);
  EXPECT_LE(with.transitions_in_length_one,
            without.transitions_in_length_one);
}

TEST(Generator, TransferSequencesImproveChaining) {
  // Paper Tables 5 vs 8: with transfers, at least as many transitions are
  // tested by longer tests (fewer length-one tests).
  for (const char* name : {"lion", "bbtas", "dk15"}) {
    SCOPED_TRACE(name);
    StateTable t = table_of(name);
    GeneratorOptions no_transfer;
    no_transfer.transfer_max_length = 0;
    GeneratorResult with = generate_functional_tests(t);
    GeneratorResult without = generate_functional_tests(t, no_transfer);
    EXPECT_LE(with.tests.size(), without.tests.size());
  }
}

TEST(Generator, RespectsPrecomputedUios) {
  StateTable t = table_of("lion");
  UioSet uios = derive_uio_sequences(t);
  GeneratorResult a = generate_functional_tests(t, {}, uios);
  GeneratorResult b = generate_functional_tests(t);
  EXPECT_EQ(a.tests.tests, b.tests.tests);
}

TEST(Generator, MismatchedUioSetRejected) {
  StateTable t = table_of("lion");
  UioSet wrong;
  wrong.per_state.resize(2);
  EXPECT_THROW(generate_functional_tests(t, {}, wrong), Error);
}

TEST(Generator, UioSegmentsDoNotCountAsTested) {
  // lion tau_1 = (0,(10,00,11,00,01,00),1): the UIO applications at
  // positions 1 and 3 traverse (0,00) which was already tested by tau_0,
  // and the transfer at position 4 traverses (0,01), also already tested.
  // If segments counted as "tested", tau_0 and tau_2 could not both exist.
  StateTable t = table_of("lion");
  GeneratorResult r = generate_functional_tests(t);
  ASSERT_EQ(r.tests.size(), 9u);
  // Transition (1,01)=(state 1, ic 1) is tested by tau_2 (index 2), not by
  // the transfer inside tau_1.
  EXPECT_EQ(r.tested_by[1 * 4 + 1], 2);
}

}  // namespace
}  // namespace fstg
