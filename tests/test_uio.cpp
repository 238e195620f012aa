#include "seq/uio.h"

#include <gtest/gtest.h>

#include "fsm/minimize.h"
#include "fsm/state_table.h"
#include "kiss/benchmarks.h"
#include "seq/distinguishing.h"

namespace fstg {
namespace {

TEST(Uio, LionMatchesPaperTableTwo) {
  StateTable t = expand_fsm(load_benchmark("lion"), FillPolicy::kError);
  UioSet uios = derive_uio_sequences(t);  // default L = state_bits = 2
  EXPECT_EQ(uios.count(), 2);
  EXPECT_EQ(uios.max_length(), 2);
  EXPECT_TRUE(uios.of(0).exists);
  EXPECT_EQ(uios.of(0).inputs, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(uios.of(0).final_state, 0);
  EXPECT_FALSE(uios.of(1).exists);
  EXPECT_TRUE(uios.of(2).exists);
  EXPECT_EQ(uios.of(2).inputs, (std::vector<std::uint32_t>{0, 3}));
  EXPECT_EQ(uios.of(2).final_state, 3);
  EXPECT_FALSE(uios.of(3).exists);
}

TEST(Uio, ShiftregAllStatesHaveLengthThreeUios) {
  // Table 4: shiftreg has a UIO for all 8 states, max length 3 — the
  // output reveals one state bit per clock.
  StateTable t = expand_fsm(load_benchmark("shiftreg"), FillPolicy::kError);
  UioSet uios = derive_uio_sequences(t);
  EXPECT_EQ(uios.count(), 8);
  EXPECT_EQ(uios.max_length(), 3);
}

TEST(Uio, LengthBoundIsRespected) {
  StateTable t = expand_fsm(load_benchmark("lion"), FillPolicy::kError);
  UioOptions options;
  options.max_length = 1;
  UioSet uios = derive_uio_sequences(t, options);
  EXPECT_EQ(uios.count(), 1);  // only state 0's length-1 UIO survives
  for (const auto& u : uios.per_state) {
    if (u.exists) {
      EXPECT_LE(u.length(), 1);
    }
  }
}

TEST(Uio, VerifyUioOracle) {
  StateTable t = expand_fsm(load_benchmark("lion"), FillPolicy::kError);
  EXPECT_TRUE(verify_uio(t, 0, {0}));
  EXPECT_FALSE(verify_uio(t, 1, {0}));     // 1 and 3 both output 1, go to 1
  EXPECT_TRUE(verify_uio(t, 2, {0, 3}));
  EXPECT_FALSE(verify_uio(t, 2, {0}));
  EXPECT_FALSE(verify_uio(t, 0, {}));      // empty sequence never unique
}

TEST(Uio, EquivalentStatesNeverHaveUios) {
  // Machine with two equivalent states (1 and 2): neither can have a UIO.
  StateTable t(1, 1, 3);
  t.set(0, 0, 1, 1);
  t.set(0, 1, 2, 0);
  t.set(1, 0, 0, 0);
  t.set(1, 1, 1, 1);
  t.set(2, 0, 0, 0);
  t.set(2, 1, 2, 1);
  ASSERT_TRUE(states_equivalent(t, 1, 2));
  UioOptions options;
  options.max_length = 6;
  UioSet uios = derive_uio_sequences(t, options);
  EXPECT_FALSE(uios.of(1).exists);
  EXPECT_FALSE(uios.of(2).exists);
}

TEST(Uio, ShortestSequenceIsReturned) {
  // In lion, state 0 has UIOs of many lengths; BFS must find length 1.
  StateTable t = expand_fsm(load_benchmark("lion"), FillPolicy::kError);
  UioOptions options;
  options.max_length = 4;
  UioSet uios = derive_uio_sequences(t, options);
  EXPECT_EQ(uios.of(0).length(), 1);
  EXPECT_EQ(uios.of(2).length(), 2);
}

TEST(Uio, BudgetExhaustionIsSoundNotFatal) {
  StateTable t = expand_fsm(load_benchmark("dk16"), FillPolicy::kSelfLoop);
  UioOptions options;
  options.eval_budget = 1;  // absurdly small
  UioSet uios = derive_uio_sequences(t, options);
  EXPECT_EQ(uios.count(), 0);  // nothing found, nothing wrong
}

TEST(Uio, DerivedSequencesAlwaysVerifyOnBenchmarks) {
  for (const std::string& name : benchmark_names(0)) {
    SCOPED_TRACE(name);
    StateTable t = expand_fsm(load_benchmark(name), FillPolicy::kSelfLoop);
    UioSet uios = derive_uio_sequences(t);
    for (int s = 0; s < t.num_states(); ++s) {
      const UioSequence& u = uios.of(s);
      if (!u.exists) continue;
      EXPECT_TRUE(verify_uio(t, s, u.inputs)) << "state " << s;
      EXPECT_EQ(t.run(s, u.inputs), u.final_state) << "state " << s;
      EXPECT_LE(u.length(), t.state_bits());
    }
  }
}

TEST(Uio, UioAbsenceAgreesWithPairwiseUndistinguishability) {
  // If some other state cannot be distinguished from s at all, s has no
  // UIO of any length. (The converse is not true: pairwise sequences can
  // exist while no single sequence separates s from everyone.)
  for (const char* name : {"lion", "dk27", "ex5"}) {
    SCOPED_TRACE(name);
    StateTable t = expand_fsm(load_benchmark(name), FillPolicy::kSelfLoop);
    UioOptions options;
    options.max_length = 2 * t.state_bits();
    UioSet uios = derive_uio_sequences(t, options);
    for (int s = 0; s < t.num_states(); ++s) {
      bool someone_indistinguishable = false;
      for (int o = 0; o < t.num_states(); ++o)
        if (o != s && !distinguishing_sequence(t, s, o).has_value())
          someone_indistinguishable = true;
      if (someone_indistinguishable) {
        EXPECT_FALSE(uios.of(s).exists) << "state " << s;
      }
    }
  }
}

}  // namespace
}  // namespace fstg
