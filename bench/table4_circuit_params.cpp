// Reproduces the paper's Table 4: per-circuit parameters and UIO
// derivation results (number of states with a UIO, maximum UIO length,
// derivation time), followed by the paper's reported values. lion and
// shiftreg are exact reproductions; the other circuits are deterministic
// synthetic stand-ins with the paper's interface dimensions (DESIGN.md).

#include <iostream>

#include "base/table_printer.h"
#include "harness/paper_data.h"
#include "harness/tables.h"

int main() {
  using namespace fstg;
  std::vector<Table4Row> rows;
  for (const std::string& name : benchmark_names())
    rows.push_back(compute_table4_row(run_circuit(name)));

  std::cout << "== Table 4 (measured): circuit parameters ==\n";
  print_table4(rows, std::cout);

  std::cout << "\n== Table 4 (paper, HP J210 seconds) ==\n";
  TablePrinter paper({"circuit", "pi", "states", "unique", "sv", "m.len",
                      "time"});
  for (const auto& r : paper_table4())
    paper.add_row({r.circuit, std::to_string(r.pi), std::to_string(r.states),
                   std::to_string(r.unique), std::to_string(r.sv),
                   std::to_string(r.mlen), TablePrinter::num(r.seconds)});
  paper.print(std::cout);

  // Sanity: interface dimensions must match the paper for every circuit.
  int mismatches = 0;
  for (const auto& r : rows) {
    const PaperTable4Row* p = find_paper_table4(r.circuit);
    if (!p) continue;
    if (p->pi != r.pi || p->states != r.states || p->sv != r.sv) ++mismatches;
  }
  std::cout << "\ninterface-dimension mismatches vs paper: " << mismatches
            << "\n";
  return mismatches == 0 ? 0 : 1;
}
