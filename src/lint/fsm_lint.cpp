#include "lint/fsm_lint.h"

#include <cstdint>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fsm/minimize.h"
#include "seq/distinguishing.h"
#include "seq/uio.h"

namespace fstg::lint {

namespace {

/// Removing row `b` changes nothing when `a` stays: b's input cube is
/// contained in a's, the next states agree, and every output bit b
/// specifies is specified identically by a.
bool row_subsumes(const Kiss2Row& a, const Kiss2Row& b) {
  if (a.next != b.next) return false;
  for (std::size_t i = 0; i < a.input.size(); ++i)
    if (a.input[i] != '-' && a.input[i] != b.input[i]) return false;
  for (std::size_t i = 0; i < a.output.size(); ++i)
    if (b.output[i] != '-' && a.output[i] != b.output[i]) return false;
  return true;
}

/// MSB-first bit string of an input combination (KISS2 column order).
std::string combo_string(std::uint32_t ic, int bits) {
  std::string s(static_cast<std::size_t>(bits), '0');
  for (int b = 0; b < bits; ++b)
    if ((ic >> b) & 1u) s[static_cast<std::size_t>(bits - 1 - b)] = '1';
  return s;
}

std::string state_label(const StateTable& table, int s) {
  if (s >= 0 && static_cast<std::size_t>(s) < table.state_names.size() &&
      !table.state_names[static_cast<std::size_t>(s)].empty())
    return table.state_names[static_cast<std::size_t>(s)];
  return "s" + std::to_string(s);
}

/// Row indices of each present state, traversed in state_names order so
/// finding order is deterministic.
std::unordered_map<std::string, std::vector<std::size_t>> rows_by_present(
    const Kiss2Fsm& fsm) {
  std::unordered_map<std::string, std::vector<std::size_t>> by_present;
  for (std::size_t i = 0; i < fsm.rows.size(); ++i)
    by_present[fsm.rows[i].present].push_back(i);
  return by_present;
}

}  // namespace

void lint_fsm_symbolic(const Kiss2Fsm& fsm, robust::RunGuard& guard,
                       LintReport& report) {
  const auto by_present = rows_by_present(fsm);

  // --- fsm-nondeterministic / fsm-redundant-row: pairwise within a state.
  for (const std::string& state : fsm.state_names) {
    const auto it = by_present.find(state);
    if (it == by_present.end()) continue;
    const std::vector<std::size_t>& idxs = it->second;
    for (std::size_t i = 0; i < idxs.size(); ++i) {
      for (std::size_t j = i + 1; j < idxs.size(); ++j) {
        if (!guard.tick()) {
          report.truncated = true;
          return;
        }
        const Kiss2Row& a = fsm.rows[idxs[i]];
        const Kiss2Row& b = fsm.rows[idxs[j]];
        // A row that subsumes another shares its minterms, so rows whose
        // input cubes are disjoint fall through every branch.
        if (rows_conflict(a, b)) {
          report.add("fsm-nondeterministic",
                     "state " + state + ": rows at lines " +
                         std::to_string(a.line) + " and " +
                         std::to_string(b.line) + " overlap on inputs " +
                         a.input + " and " + b.input +
                         " with conflicting next state or outputs",
                     "make the input cubes disjoint, or give the rows the "
                     "same next state and compatible outputs",
                     {report.source, b.line});
        } else if (row_subsumes(a, b)) {
          report.add("fsm-redundant-row",
                     "row at line " + std::to_string(b.line) +
                         " is subsumed by the row at line " +
                         std::to_string(a.line) + " (state " + state +
                         ", input " + a.input + " covers " + b.input + ")",
                     "delete the subsumed row",
                     {report.source, b.line});
        } else if (row_subsumes(b, a)) {
          report.add("fsm-redundant-row",
                     "row at line " + std::to_string(a.line) +
                         " is subsumed by the row at line " +
                         std::to_string(b.line) + " (state " + state +
                         ", input " + b.input + " covers " + a.input + ")",
                     "delete the subsumed row",
                     {report.source, a.line});
        }
      }
    }
  }

  // --- fsm-incomplete: uncovered (state, input) combinations. One finding
  // per machine; the per-state breakdown would drown real problems on the
  // benchmark suite, where partial specification is the norm.
  if (fsm.num_inputs <= 20) {
    const std::uint32_t nic = 1u << fsm.num_inputs;
    int incomplete_states = 0;
    std::uint64_t uncovered_total = 0;
    std::string example_state;
    std::uint32_t example_ic = 0;
    for (const std::string& state : fsm.state_names) {
      if (!guard.tick(nic)) {
        report.truncated = true;
        return;
      }
      std::vector<bool> covered(nic, false);
      const auto it = by_present.find(state);
      if (it != by_present.end()) {
        for (std::size_t ri : it->second) {
          const Kiss2Row& row = fsm.rows[ri];
          std::uint32_t value = 0;
          std::vector<int> free_bits;
          for (int b = 0; b < fsm.num_inputs; ++b) {
            const char c =
                row.input[static_cast<std::size_t>(fsm.num_inputs - 1 - b)];
            if (c == '-')
              free_bits.push_back(b);
            else if (c == '1')
              value |= 1u << b;
          }
          const std::uint32_t n_free = 1u << free_bits.size();
          for (std::uint32_t m = 0; m < n_free; ++m) {
            std::uint32_t ic = value;
            for (std::size_t k = 0; k < free_bits.size(); ++k)
              if ((m >> k) & 1u) ic |= 1u << free_bits[k];
            covered[ic] = true;
          }
        }
      }
      std::uint64_t uncovered = 0;
      for (std::uint32_t ic = 0; ic < nic; ++ic) {
        if (covered[ic]) continue;
        if (uncovered == 0 && incomplete_states == 0) {
          example_state = state;
          example_ic = ic;
        }
        ++uncovered;
      }
      if (uncovered > 0) {
        ++incomplete_states;
        uncovered_total += uncovered;
      }
    }
    if (incomplete_states > 0) {
      report.add("fsm-incomplete",
                 std::to_string(incomplete_states) + " of " +
                     std::to_string(fsm.num_states()) +
                     " states leave input combinations unspecified (" +
                     std::to_string(uncovered_total) +
                     " in total; e.g. state " + example_state + ", input " +
                     combo_string(example_ic, fsm.num_inputs) + ")",
                 "add rows for the missing combinations, or rely on the "
                 "synthesizer's completion and treat this as informational");
    }
  }

  // --- fsm-unreachable-state: BFS over the symbolic transition graph.
  if (!fsm.rows.empty()) {
    const std::string start =
        !fsm.reset_state.empty() ? fsm.reset_state : fsm.rows[0].present;
    std::unordered_set<std::string> reached{start};
    std::queue<std::string> frontier;
    frontier.push(start);
    while (!frontier.empty()) {
      const std::string state = std::move(frontier.front());
      frontier.pop();
      const auto it = by_present.find(state);
      if (it == by_present.end()) continue;
      for (std::size_t ri : it->second) {
        if (!guard.tick()) {
          report.truncated = true;
          return;
        }
        const std::string& next = fsm.rows[ri].next;
        if (reached.insert(next).second) frontier.push(next);
      }
    }
    for (const std::string& state : fsm.state_names) {
      if (reached.count(state) > 0) continue;
      int line = 0;
      const auto it = by_present.find(state);
      if (it != by_present.end() && !it->second.empty())
        line = fsm.rows[it->second.front()].line;
      report.add("fsm-unreachable-state",
                 "state " + state + " is not reachable from " +
                     (!fsm.reset_state.empty() ? "reset state "
                                               : "initial state ") +
                     start,
                 "remove the state, or add a transition into it",
                 {report.source, line});
    }
  }
}

void lint_state_table(const StateTable& table, const FsmLintOptions& options,
                      robust::RunGuard& guard, LintReport& report) {
  // --- fsm-equivalent-states: partition refinement; one finding per
  // multi-state equivalence class.
  if (!guard.tick(table.num_transitions())) {
    report.truncated = true;
    return;
  }
  const MinimizationResult min = minimize(table);
  if (min.num_blocks < table.num_states()) {
    std::vector<std::vector<int>> members(
        static_cast<std::size_t>(min.num_blocks));
    for (int s = 0; s < table.num_states(); ++s)
      members[static_cast<std::size_t>(min.block_of_state[s])].push_back(s);
    for (const std::vector<int>& block : members) {
      if (block.size() < 2) continue;
      std::string names;
      for (int s : block) {
        if (!names.empty()) names += ", ";
        names += state_label(table, s);
      }
      report.add("fsm-equivalent-states",
                 "states " + names +
                     " are output-equivalent; the machine is reducible",
                 "merge the equivalent states — none of them can have a "
                 "UIO sequence");
    }
  }

  // --- fsm-no-uio: states without a UIO of length <= L, with the state
  // pairs that block one (every t the state cannot be told apart from
  // within L inputs).
  UioOptions uio_options;
  uio_options.max_length = options.uio_max_length;
  const UioSet uios = derive_uio_sequences(table, uio_options);
  const int max_len = uio_options.effective_max_length(table);
  if (!uios.complete()) report.truncated = true;
  for (int s = 0; s < table.num_states(); ++s) {
    const UioSequence& uio = uios.of(s);
    // An aborted search is a budget artifact, not evidence of absence.
    if (uio.exists || uio.aborted) continue;
    std::vector<std::string> blocking;
    bool pairs_cut = false;
    for (int t = 0; t < table.num_states() && !pairs_cut; ++t) {
      if (t == s) continue;
      const DistinguishingSearch search =
          distinguishing_sequence_guarded(table, s, t, guard);
      if (search.budget_exhausted) {
        pairs_cut = true;
        report.truncated = true;
        break;
      }
      if (!search.seq || static_cast<int>(search.seq->size()) > max_len)
        blocking.push_back(state_label(table, t));
    }
    std::string message = "state " + state_label(table, s) +
                          " has no UIO sequence of length <= " +
                          std::to_string(max_len);
    if (!blocking.empty()) {
      message += "; indistinguishable within " + std::to_string(max_len) +
                 " inputs from ";
      constexpr std::size_t kMaxListed = 4;
      for (std::size_t i = 0; i < blocking.size() && i < kMaxListed; ++i) {
        if (i > 0) message += ", ";
        message += blocking[i];
      }
      if (blocking.size() > kMaxListed)
        message += " (+" + std::to_string(blocking.size() - kMaxListed) +
                   " more)";
    } else if (pairs_cut) {
      message += " (pair analysis cut short by the lint budget)";
    }
    report.add("fsm-no-uio", message,
               "the generator falls back to scan-out for this state; to "
               "restore test chaining, make its output behaviour unique");
    if (pairs_cut) break;
  }
}

}  // namespace fstg::lint
