#include "logic/minimize.h"

#include <gtest/gtest.h>

#include "base/rng.h"
#include "logic/tautology.h"

namespace fstg {
namespace {

Cube random_cube(Rng& rng, int num_vars) {
  Cube cube = Cube::full(num_vars);
  for (int v = 0; v < num_vars; ++v) {
    switch (rng.below(3)) {
      case 0: cube.set(v, Lit::kZero); break;
      case 1: cube.set(v, Lit::kOne); break;
      default: break;
    }
  }
  return cube;
}

TEST(MinimizeCover, EmptyOnSetStaysEmpty) {
  Cover on(3), dc(3);
  EXPECT_TRUE(minimize_cover(on, dc).empty());
}

TEST(MinimizeCover, MergesAdjacentMinterms) {
  // on = {00, 01} over 2 vars -> single cube 0-.
  Cover on(2), dc(2);
  on.add(Cube::from_string("00"));
  on.add(Cube::from_string("01"));
  Cover m = minimize_cover(on, dc);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0].to_string(), "0-");
}

TEST(MinimizeCover, UsesDontCares) {
  // on = {00}, dc = {01, 10, 11}: everything is allowed, so a single
  // universal cube is optimal.
  Cover on(2), dc(2);
  on.add(Cube::from_string("00"));
  dc.add(Cube::from_string("01"));
  dc.add(Cube::from_string("1-"));
  Cover m = minimize_cover(on, dc);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0].literal_count(), 0);
}

TEST(MinimizeCover, RemovesRedundantCube) {
  // Classic: ab + a'c + bc — the consensus term bc is redundant.
  // vars: 0=a, 1=b, 2=c.
  Cover on(3), dc(3);
  on.add(Cube::from_string("11-"));  // a b
  on.add(Cube::from_string("0-1"));  // a' c
  on.add(Cube::from_string("-11"));  // b c (redundant)
  Cover m = minimize_cover(on, dc);
  EXPECT_EQ(m.size(), 2u);
}

class MinimizeProperty : public ::testing::TestWithParam<int> {};

TEST_P(MinimizeProperty, ExactOnRandomFunctions) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
  for (int iter = 0; iter < 150; ++iter) {
    const int nv = 2 + static_cast<int>(rng.below(5));
    Cover on(nv), dc(nv);
    const int n_on = static_cast<int>(rng.below(6));
    const int n_dc = static_cast<int>(rng.below(3));
    for (int i = 0; i < n_on; ++i) on.add(random_cube(rng, nv));
    for (int i = 0; i < n_dc; ++i) dc.add(random_cube(rng, nv));

    Cover m = minimize_cover(on, dc);
    // Exactness: m covers every on-minterm not excused by dc, and no
    // minterm outside on ∪ dc.
    for (std::uint32_t p = 0; p < (1u << nv); ++p) {
      const bool in_on = on.eval(p), in_dc = dc.eval(p), in_m = m.eval(p);
      if (in_on && !in_dc) {
        EXPECT_TRUE(in_m) << "dropped on-minterm " << p;
      }
      if (!in_on && !in_dc) {
        EXPECT_FALSE(in_m) << "covers off-minterm " << p;
      }
    }
    // Primality (EXPAND's guarantee): raising any single literal of a
    // result cube covers a minterm outside on ∪ dc.
    for (const Cube& c : m.cubes()) {
      for (int v = 0; v < nv; ++v) {
        if (c.get(v) == Lit::kDC) continue;
        Cube raised = c;
        raised.set(v, Lit::kDC);
        bool covers_off = false;
        for (std::uint32_t p = 0; p < (1u << nv) && !covers_off; ++p)
          covers_off =
              raised.contains_minterm(p) && !on.eval(p) && !dc.eval(p);
        EXPECT_TRUE(covers_off)
            << c.to_string() << " is not prime in variable " << v;
      }
    }
    // Cost sanity: never more cubes than the input on-set.
    EXPECT_LE(m.size(), std::max<std::size_t>(on.size(), 1));
  }
}

TEST_P(MinimizeProperty, IrredundantHasNoRemovableCube) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 99);
  for (int iter = 0; iter < 60; ++iter) {
    const int nv = 2 + static_cast<int>(rng.below(4));
    Cover on(nv), dc(nv);
    for (int i = 0; i < 5; ++i) on.add(random_cube(rng, nv));
    Cover m = minimize_cover(on, dc);
    for (std::size_t drop = 0; drop < m.size(); ++drop) {
      Cover rest(nv);
      for (std::size_t j = 0; j < m.size(); ++j)
        if (j != drop) rest.add(m[j]);
      EXPECT_FALSE(cube_covered(m[drop], rest))
          << "cube " << drop << " is redundant";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizeProperty, ::testing::Range(0, 6));

}  // namespace
}  // namespace fstg
