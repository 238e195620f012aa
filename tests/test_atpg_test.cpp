#include "atpg/test.h"

#include <gtest/gtest.h>

#include "base/error.h"
#include "fsm/state_table.h"
#include "kiss/benchmarks.h"

namespace fstg {
namespace {

TEST(FunctionalTest, ToStringIsPaperNotation) {
  FunctionalTest t{0, {2, 0, 3}, 1, {}};
  EXPECT_EQ(t.to_string(2), "(0, (10,00,11), 1)");
  EXPECT_EQ(t.length(), 3);
}

TEST(TestSet, Aggregates) {
  TestSet set;
  set.tests.push_back({0, {1}, 1, {}});
  set.tests.push_back({1, {0, 1, 2}, 0, {}});
  set.tests.push_back({2, {3}, 3, {}});
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.total_length(), 5u);
  EXPECT_EQ(set.length_one_count(), 2u);
}

TEST(TestSet, SortByDecreasingLengthIsStable) {
  TestSet set;
  set.tests.push_back({0, {1}, 1, {}});        // A len 1
  set.tests.push_back({1, {0, 1}, 2, {}});     // B len 2
  set.tests.push_back({2, {3}, 3, {}});        // C len 1 (after A)
  TestSet sorted = set.sorted_by_decreasing_length();
  EXPECT_EQ(sorted.tests[0].init_state, 1);
  EXPECT_EQ(sorted.tests[1].init_state, 0);  // A before C (stable)
  EXPECT_EQ(sorted.tests[2].init_state, 2);
}

TEST(TestSet, ValidateCatchesLies) {
  StateTable t = expand_fsm(load_benchmark("lion"), FillPolicy::kError);
  TestSet good;
  good.tests.push_back({0, {1}, 1, {}});  // 0 --01--> 1, true
  EXPECT_NO_THROW(good.validate(t));

  TestSet wrong_final;
  wrong_final.tests.push_back({0, {1}, 2, {}});
  EXPECT_THROW(wrong_final.validate(t), Error);

  TestSet empty_seq;
  empty_seq.tests.push_back({0, {}, 0, {}});
  EXPECT_THROW(empty_seq.validate(t), Error);

  TestSet bad_state;
  bad_state.tests.push_back({7, {0}, 0, {}});
  EXPECT_THROW(bad_state.validate(t), Error);

  TestSet bad_input;
  bad_input.tests.push_back({0, {9}, 0, {}});
  EXPECT_THROW(bad_input.validate(t), Error);
}

}  // namespace
}  // namespace fstg
