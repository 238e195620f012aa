// Coverage for corners the focused suites do not reach: CSV output, file
// loading, explicit minimizer passes, and option plumbing.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "base/error.h"
#include "base/table_printer.h"
#include "harness/tables.h"
#include "kiss/kiss2_parser.h"
#include "kiss/kiss2_writer.h"
#include "logic/minimize.h"
#include "logic/tautology.h"

namespace fstg {
namespace {

TEST(CsvOutput, TablePrinterCsvEscaping) {
  TablePrinter t({"a", "b"});
  t.add_row({"plain", "with,comma"});
  t.add_row({"with\"quote", "multi\nline"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(),
            "a,b\nplain,\"with,comma\"\n\"with\"\"quote\",\"multi\nline\"\n");
}

TEST(CsvOutput, TableBenchesHonorEnv) {
  const std::string dir = ::testing::TempDir() + "/fstg_csv";
  std::remove((dir + "/table4.csv").c_str());
  ASSERT_EQ(setenv("FSTG_CSV_DIR", dir.c_str(), 1), 0);
  // TempDir exists; the csv subdir may not — create it via a portable
  // fallback (mkdir through std::filesystem would be cleaner, but keep the
  // test dependency-free: use the parent directory directly).
  ASSERT_EQ(setenv("FSTG_CSV_DIR", ::testing::TempDir().c_str(), 1), 0);

  CircuitExperiment exp = run_circuit("lion");
  std::ostringstream sink;
  print_table4({compute_table4_row(exp)}, sink);
  unsetenv("FSTG_CSV_DIR");

  std::ifstream csv(::testing::TempDir() + "/table4.csv");
  ASSERT_TRUE(csv.good());
  std::string header;
  std::getline(csv, header);
  EXPECT_EQ(header, "circuit,pi,states,unique,sv,m.len,time");
  std::string row;
  std::getline(csv, row);
  EXPECT_EQ(row.substr(0, 5), "lion,");
}

TEST(Kiss2File, LoadFromDisk) {
  const std::string path = ::testing::TempDir() + "/tiny.kiss";
  {
    std::ofstream f(path);
    f << ".i 1\n.o 1\n0 a b 1\n1 a a 0\n- b b 1\n";
  }
  Kiss2Fsm fsm = parse_kiss2_file(path);
  EXPECT_EQ(fsm.name, "tiny");  // derived from the filename
  EXPECT_EQ(fsm.num_states(), 2);
  std::remove(path.c_str());
  EXPECT_THROW(parse_kiss2_file("/nonexistent/x.kiss"), Error);
}

TEST(MinimizeOptions, MorePassesNeverWorse) {
  // The minimizer keeps the best cover across passes, so more passes can
  // only improve (or tie) the literal cost.
  Cover on(4), dc(4);
  on.add(Cube::from_string("1100"));
  on.add(Cube::from_string("1101"));
  on.add(Cube::from_string("1111"));
  on.add(Cube::from_string("0111"));
  MinimizeOptions one;
  one.passes = 1;
  MinimizeOptions four;
  four.passes = 4;
  const Cover a = minimize_cover(on, dc, one);
  const Cover b = minimize_cover(on, dc, four);
  EXPECT_LE(b.size() * 100 + b.literal_count(),
            a.size() * 100 + a.literal_count());
  // Both stay exact.
  for (std::uint32_t m = 0; m < 16; ++m) {
    EXPECT_EQ(a.eval(m), on.eval(m));
    EXPECT_EQ(b.eval(m), on.eval(m));
  }
}

TEST(GeneratorOptions, ExplicitUioBoundIsUsed) {
  StateTable t = expand_fsm(load_benchmark("lion"), FillPolicy::kError);
  GeneratorOptions options;
  options.uio_max_length = 1;
  GeneratorResult r = generate_functional_tests(t, options);
  EXPECT_EQ(r.uios.count(), 1);  // only state 0's length-1 UIO fits
  for (const auto& u : r.uios.per_state) {
    if (u.exists) {
      EXPECT_LE(u.length(), 1);
    }
  }
}

TEST(Kiss2Writer, SyntheticRoundTripPreservesSemantics) {
  Kiss2Fsm fsm = make_synthetic_fsm("roundtrip", 3, 6, 2);
  Kiss2Fsm again = parse_kiss2(write_kiss2(fsm), fsm.name);
  StateTable a = expand_fsm(fsm, FillPolicy::kSelfLoop);
  StateTable b = expand_fsm(again, FillPolicy::kSelfLoop);
  EXPECT_TRUE(a == b);
}

TEST(ExperimentOptions, TransferLengthPlumbsThrough) {
  ExperimentOptions two;
  two.gen.transfer_max_length = 2;
  CircuitExperiment exp = run_circuit("lion", two);
  exp.gen.tests.validate(exp.table);
  // Longer transfers allow at least as much chaining.
  CircuitExperiment base = run_circuit("lion");
  EXPECT_LE(exp.gen.tests.size(), base.gen.tests.size());
}

}  // namespace
}  // namespace fstg
