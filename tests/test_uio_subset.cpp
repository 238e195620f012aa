#include "seq/uio_subset.h"

#include <gtest/gtest.h>

#include "fsm/state_table.h"
#include "kiss/benchmarks.h"
#include "seq/uio.h"

namespace fstg {
namespace {

StateTable lion_table() {
  return expand_fsm(load_benchmark("lion"), FillPolicy::kError);
}

TEST(UioSubset, LionStateOneGetsACompleteSubset) {
  // State 1 has no single UIO (paper, Section 2), but pairwise sequences
  // exist against 0, 2, and 3, so a subset covers it.
  StateTable t = lion_table();
  UioSubset subset = derive_uio_subset(t, 1);
  EXPECT_TRUE(subset.complete);
  EXPECT_GE(subset.size(), 2u);  // a single sequence would be a UIO
  // Every other state is distinguished by some sequence.
  for (int other : {0, 2, 3}) {
    bool covered = false;
    for (const auto& seq : subset.sequences)
      if (t.trace(1, seq) != t.trace(other, seq)) covered = true;
    EXPECT_TRUE(covered) << other;
  }
}

TEST(UioSubset, StatesWithSingleUioGetSizeOne) {
  StateTable t = lion_table();
  UioSubset subset = derive_uio_subset(t, 0);  // state 0 has UIO (00)
  EXPECT_TRUE(subset.complete);
  EXPECT_EQ(subset.size(), 1u);
}

TEST(UioSubset, EquivalentTwinIsUncoverable) {
  StateTable t(1, 1, 3);
  t.set(0, 0, 1, 1);
  t.set(0, 1, 2, 0);
  t.set(1, 0, 0, 0);
  t.set(1, 1, 1, 1);
  t.set(2, 0, 0, 0);
  t.set(2, 1, 2, 1);  // states 1 and 2 are equivalent
  UioSubset subset = derive_uio_subset(t, 1);
  EXPECT_FALSE(subset.complete);
}

TEST(UioSubset, SequenceBudgetIsRespected) {
  StateTable t = lion_table();
  UioSubsetOptions options;
  options.max_sequences = 1;
  UioSubset subset = derive_uio_subset(t, 1);
  (void)subset;
  UioSubset bounded = derive_uio_subset(t, 1, options);
  EXPECT_LE(bounded.size(), 1u);
}

TEST(UioSubset, StatsAccountForEveryState) {
  for (const std::string name : {"lion", "dk27", "ex5", "bbtas"}) {
    SCOPED_TRACE(name);
    StateTable t = expand_fsm(load_benchmark(name), FillPolicy::kSelfLoop);
    UioSubsetStats stats = uio_subset_stats(t);
    EXPECT_EQ(stats.states_with_single_uio + stats.states_with_subset_only +
                  stats.states_uncoverable,
              t.num_states());
    // Single-UIO count must agree with the UIO engine.
    EXPECT_EQ(stats.states_with_single_uio, derive_uio_sequences(t).count());
    if (stats.states_with_subset_only > 0) {
      EXPECT_GE(stats.average_subset_size, 2.0);
    }
  }
}

TEST(UioSubset, DistinguishedListsMatchSequences) {
  StateTable t = lion_table();
  UioSubset subset = derive_uio_subset(t, 1);
  ASSERT_EQ(subset.distinguished.size(), subset.sequences.size());
  for (std::size_t k = 0; k < subset.sequences.size(); ++k)
    for (int other : subset.distinguished[k])
      EXPECT_NE(t.trace(1, subset.sequences[k]), t.trace(other, subset.sequences[k]));
}

}  // namespace
}  // namespace fstg
