#include <gtest/gtest.h>

#include "base/error.h"
#include "fsm/reachability.h"
#include "fsm/state_table.h"
#include "kiss/benchmarks.h"
#include "kiss/kiss2_writer.h"

namespace fstg {
namespace {

TEST(Benchmarks, HasAllThirtyOnePaperCircuits) {
  EXPECT_EQ(benchmark_specs().size(), 31u);
}

TEST(Benchmarks, LookupAndUnknown) {
  EXPECT_EQ(benchmark_spec("lion").pi, 2);
  EXPECT_THROW(benchmark_spec("nonexistent"), Error);
  EXPECT_THROW(load_benchmark("nonexistent"), Error);
}

TEST(Benchmarks, WeightsFilter) {
  EXPECT_EQ(benchmark_names(2).size(), 31u);
  EXPECT_LT(benchmark_names(1).size(), 31u);
  EXPECT_LT(benchmark_names(0).size(), benchmark_names(1).size());
  for (const auto& n : benchmark_names(0))
    EXPECT_EQ(benchmark_spec(n).weight, 0) << n;
}

TEST(Benchmarks, AllLoadWithDeclaredDimensions) {
  for (const BenchmarkSpec& spec : benchmark_specs()) {
    SCOPED_TRACE(spec.name);
    Kiss2Fsm fsm = load_benchmark(spec.name);
    EXPECT_EQ(fsm.num_inputs, spec.pi);
    EXPECT_EQ(fsm.num_outputs, spec.outputs);
    EXPECT_EQ(fsm.num_states(), spec.specified_states);
    EXPECT_LE(spec.specified_states, 1 << spec.sv);
    EXPECT_GT(spec.specified_states, 1 << (spec.sv - 1));
    EXPECT_NO_THROW(fsm.check_deterministic());
  }
}

TEST(Benchmarks, LoadsAreDeterministic) {
  for (const char* name : {"bbara", "keyb", "dvram"}) {
    Kiss2Fsm a = load_benchmark(name);
    Kiss2Fsm b = load_benchmark(name);
    EXPECT_EQ(write_kiss2(a), write_kiss2(b)) << name;
  }
}

TEST(Benchmarks, SyntheticMachinesAreCompletelySpecified) {
  for (const BenchmarkSpec& spec : benchmark_specs()) {
    if (spec.pi > 8) continue;  // completely_specified enumerates 2^pi
    SCOPED_TRACE(spec.name);
    EXPECT_TRUE(load_benchmark(spec.name).completely_specified());
  }
}

TEST(Benchmarks, SyntheticMachinesAreStronglyConnected) {
  for (const BenchmarkSpec& spec : benchmark_specs()) {
    if (spec.weight > 0) continue;  // keep the test fast
    SCOPED_TRACE(spec.name);
    StateTable table =
        expand_fsm(load_benchmark(spec.name), FillPolicy::kSelfLoop);
    EXPECT_TRUE(strongly_connected(table));
  }
}

TEST(Benchmarks, LionIsThePaperTable) {
  Kiss2Fsm lion = load_benchmark("lion");
  EXPECT_EQ(lion.num_states(), 4);
  EXPECT_EQ(lion.rows.size(), 16u);
  StateTable t = expand_fsm(lion, FillPolicy::kError);
  // Spot checks against Table 1 (inputs are MSB-first: "01" = 1).
  EXPECT_EQ(t.next(0, 1), 1);
  EXPECT_EQ(t.output(0, 1), 1u);
  EXPECT_EQ(t.next(3, 0), 1);
}

TEST(Benchmarks, ShiftregIsAShiftRegister) {
  StateTable t =
      expand_fsm(load_benchmark("shiftreg"), FillPolicy::kError);
  ASSERT_EQ(t.num_states(), 8);
  for (int s = 0; s < 8; ++s) {
    for (std::uint32_t x = 0; x < 2; ++x) {
      EXPECT_EQ(t.next(s, x), ((s << 1) | static_cast<int>(x)) & 7);
      EXPECT_EQ(t.output(s, x), static_cast<std::uint32_t>((s >> 2) & 1));
    }
  }
}

TEST(MakeSyntheticFsm, RespectsArguments) {
  Kiss2Fsm fsm = make_synthetic_fsm("custom", 3, 5, 4);
  EXPECT_EQ(fsm.num_inputs, 3);
  EXPECT_EQ(fsm.num_outputs, 4);
  EXPECT_EQ(fsm.num_states(), 5);
  EXPECT_TRUE(fsm.completely_specified());
  EXPECT_NO_THROW(fsm.check_deterministic());
}

TEST(MakeSyntheticFsm, ValidatesArguments) {
  EXPECT_THROW(make_synthetic_fsm("x", 0, 4, 1), Error);
  EXPECT_THROW(make_synthetic_fsm("x", 2, 1, 1), Error);
  EXPECT_THROW(make_synthetic_fsm("x", 2, 4, 0), Error);
}

TEST(MakeSyntheticFsm, NameChangesContent) {
  Kiss2Fsm a = make_synthetic_fsm("aaa", 3, 6, 2);
  Kiss2Fsm b = make_synthetic_fsm("bbb", 3, 6, 2);
  EXPECT_NE(write_kiss2(a), write_kiss2(b));
}

}  // namespace
}  // namespace fstg
