#include "seq/distinguishing.h"

#include <gtest/gtest.h>

#include "fsm/state_table.h"
#include "kiss/benchmarks.h"

namespace fstg {
namespace {

TEST(Distinguishing, LionPairs) {
  StateTable t = expand_fsm(load_benchmark("lion"), FillPolicy::kError);
  // State 0 outputs 0 under input 00; every other state outputs 1.
  for (int o = 1; o < 4; ++o) {
    auto seq = distinguishing_sequence(t, 0, o);
    ASSERT_TRUE(seq.has_value()) << o;
    EXPECT_EQ(seq->size(), 1u) << o;
    EXPECT_NE(t.trace(0, *seq), t.trace(o, *seq)) << o;
  }
  // 1 vs 3 differ under input 11 (outputs 0 vs 1), so one input suffices.
  auto seq13 = distinguishing_sequence(t, 1, 3);
  ASSERT_TRUE(seq13.has_value());
  EXPECT_EQ(*seq13, (std::vector<std::uint32_t>{3}));
  EXPECT_NE(t.trace(1, *seq13), t.trace(3, *seq13));
}

TEST(Distinguishing, SameStateHasNoSequence) {
  StateTable t = expand_fsm(load_benchmark("lion"), FillPolicy::kError);
  EXPECT_FALSE(distinguishing_sequence(t, 2, 2).has_value());
}

TEST(Distinguishing, EquivalentStatesHaveNoSequence) {
  StateTable t(1, 1, 2);  // two identical states
  t.set(0, 0, 0, 1);
  t.set(0, 1, 1, 0);
  t.set(1, 0, 1, 1);
  t.set(1, 1, 0, 0);
  EXPECT_FALSE(distinguishing_sequence(t, 0, 1).has_value());
}

TEST(Distinguishing, AllDistinctPairsOnBenchmarks) {
  // Minimal machines: every pair must be distinguishable, and the returned
  // sequence must actually distinguish.
  for (const char* name : {"lion", "shiftreg"}) {
    SCOPED_TRACE(name);
    StateTable t = expand_fsm(load_benchmark(name), FillPolicy::kError);
    for (int a = 0; a < t.num_states(); ++a) {
      for (int b = a + 1; b < t.num_states(); ++b) {
        auto seq = distinguishing_sequence(t, a, b);
        ASSERT_TRUE(seq.has_value()) << a << "," << b;
        EXPECT_NE(t.trace(a, *seq), t.trace(b, *seq));
      }
    }
  }
}

}  // namespace
}  // namespace fstg
