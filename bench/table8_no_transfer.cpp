// Reproduces the paper's Table 8: test generation with transfer sequences
// disabled, for the circuits whose functional-test clock-cycle percentage
// reached 100% or more in Table 7. Without transfers, a test ends as soon
// as the post-UIO state has no untested transitions, trading chaining for
// application time.

#include <iostream>

#include "atpg/cycles.h"
#include "base/table_printer.h"
#include "harness/paper_data.h"
#include "harness/tables.h"

int main() {
  using namespace fstg;

  // First pass: find circuits at >= 100% cycles with the default options,
  // mirroring the paper's selection rule ("we only report on circuits for
  // which the percentage ... is 100% or higher in Table 7").
  std::vector<std::string> selected;
  std::vector<CircuitExperiment> baseline;
  for (const std::string& name : benchmark_names()) {
    CircuitExperiment exp = run_circuit(name);
    const int sv = exp.synth.circuit.num_sv;
    const double percent =
        100.0 *
        static_cast<double>(test_application_cycles(sv, exp.gen.tests)) /
        static_cast<double>(
            per_transition_cycles(sv, exp.table.num_transitions()));
    if (percent >= 100.0) selected.push_back(name);
  }
  std::cout << "circuits at >= 100% cycles with transfer sequences: ";
  for (const auto& n : selected) std::cout << n << ' ';
  std::cout << "\n\n";

  ExperimentOptions no_transfer;
  no_transfer.gen.transfer_max_length = 0;

  std::vector<Table8Row> rows;
  for (const std::string& name : selected)
    rows.push_back(compute_table8_row(run_circuit(name, no_transfer)));

  std::cout << "== Table 8 (measured): without transfer sequences ==\n";
  print_table8(rows, std::cout);

  std::cout << "\n== Table 8 (paper; their selection was bbtas, dk15, dk27, "
               "shiftreg) ==\n";
  TablePrinter paper({"circuit", "trans", "tests", "len", "1len", "cycles",
                      "%"});
  for (const auto& r : paper_table8())
    paper.add_row({r.circuit, std::to_string(r.trans), std::to_string(r.tests),
                   std::to_string(r.len),
                   TablePrinter::num(r.onelen_percent),
                   std::to_string(r.cycles), TablePrinter::num(r.percent)});
  paper.print(std::cout);

  // Shape: disabling transfers must not increase application time above
  // the per-transition baseline (that is the point of Table 8).
  int bad = 0;
  for (const auto& r : rows)
    if (r.percent > 100.0) ++bad;
  std::cout << "\nshape violations: " << bad << "\n";
  return bad == 0 ? 0 : 1;
}
