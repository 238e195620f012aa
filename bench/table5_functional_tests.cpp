// Reproduces the paper's Table 5: functional test generation with the
// paper's parameters (UIO length <= number of state variables, transfer
// sequences of length <= 1). For every circuit the generated tests cover
// all num_states * num_input_combos state-transitions; the table reports
// how strongly the procedure chains transitions into shared tests.

#include <iostream>

#include "base/table_printer.h"
#include "harness/paper_data.h"
#include "harness/tables.h"

int main() {
  using namespace fstg;
  std::vector<Table5Row> rows;
  for (const std::string& name : benchmark_names())
    rows.push_back(compute_table5_row(run_circuit(name)));

  std::cout << "== Table 5 (measured): functional test generation ==\n";
  print_table5(rows, std::cout);

  std::cout << "\n== Table 5 (paper) ==\n";
  TablePrinter paper({"circuit", "trans", "tests", "len", "1len", "time"});
  double onelen_sum = 0;
  for (const auto& r : paper_table5()) {
    paper.add_row({r.circuit, std::to_string(r.trans), std::to_string(r.tests),
                   std::to_string(r.len), TablePrinter::num(r.onelen_percent),
                   TablePrinter::num(r.seconds)});
    onelen_sum += r.onelen_percent;
  }
  paper.add_row({"average", "", "", "",
                 TablePrinter::num(onelen_sum /
                                   static_cast<double>(paper_table5().size())),
                 ""});
  paper.print(std::cout);

  // Shape checks: transition counts match the paper exactly (they are
  // determined by pi and sv); chaining must beat one-test-per-transition.
  int bad = 0;
  for (const auto& r : rows) {
    const PaperTable5Row* p = find_paper_table5(r.circuit);
    if (p && p->trans != r.trans) ++bad;
    if (r.tests > r.trans) ++bad;
  }
  std::cout << "\nshape violations: " << bad << "\n";
  return bad == 0 ? 0 : 1;
}
