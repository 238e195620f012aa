#pragma once

#include <string>
#include <vector>

namespace fstg {

/// One KISS2 product-term row: `input present next output`.
/// `input` is over {0,1,-} (length = num_inputs); `output` is over {0,1,-}
/// (length = num_outputs). States are symbolic names.
struct Kiss2Row {
  std::string input;
  std::string present;
  std::string next;
  std::string output;
  /// 1-based line in the source text (0 for rows built in memory). Carried
  /// so lint findings can point back at the offending KISS2 line.
  int line = 0;
};

/// The KISS2 row-conflict rule: two rows conflict iff they share a present
/// state, their input cubes share a minterm, and they differ in next state
/// or in an output bit both specify (0 against 1). A machine is
/// deterministic iff no two of its rows conflict.
bool rows_conflict(const Kiss2Row& a, const Kiss2Row& b);

/// An FSM as read from (or written to) a KISS2 file. This is the *symbolic*
/// representation; encoding and completion happen downstream (fsm/, netlist/).
struct Kiss2Fsm {
  std::string name;
  int num_inputs = 0;   ///< number of binary input lines (.i)
  int num_outputs = 0;  ///< number of binary output lines (.o)
  std::string reset_state;  ///< .r, empty if absent
  /// State names in order of first appearance (present before next).
  std::vector<std::string> state_names;
  std::vector<Kiss2Row> rows;

  int num_states() const { return static_cast<int>(state_names.size()); }

  /// Index of a state name; -1 if unknown.
  int state_index(const std::string& name) const;

  /// Registers the name if new; returns its index.
  int intern_state(const std::string& name);

  /// Throws Error if two rows conflict (rows_conflict). O(rows^2).
  void check_deterministic() const;

  /// True if every (state, input combination) is covered by some row.
  bool completely_specified() const;
};

}  // namespace fstg
