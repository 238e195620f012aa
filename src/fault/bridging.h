#pragma once

#include <vector>

#include "base/robust/budget.h"
#include "netlist/netlist.h"
#include "sim/logic_sim.h"

namespace fstg {

/// Enumerate non-feedback bridging faults per the paper's conditions:
///  (1) both lines are outputs of multi-input gates;
///  (2) the lines are inputs of different gates (no shared consumer);
///  (3) there is no structural path between the two lines in either
///      direction (so the bridge cannot create a feedback loop).
/// Both an AND-type and an OR-type fault are produced for each pair.
std::vector<FaultSpec> enumerate_bridging(const Netlist& nl);

/// Typed partial result of a budgeted enumeration. The pair scan is
/// quadratic in multi-input gates; on exhaustion the faults found so far
/// are returned with `complete == false` (they are each individually
/// valid bridging faults — the list is merely a prefix).
struct BridgingEnumeration {
  std::vector<FaultSpec> faults;
  bool complete = true;
};

/// Budgeted variant: the guard is ticked per candidate pair and charged
/// for the reachability matrix the conditions need.
BridgingEnumeration enumerate_bridging_guarded(const Netlist& nl,
                                               robust::RunGuard& guard);

/// Cap an enumerated list at about `cap` faults by a deterministic stride
/// over its AND/OR pairs (adjacent in enumeration order), so both
/// polarities of a kept bridge survive. `cap == 0` or a list already
/// within the cap comes back unchanged.
std::vector<FaultSpec> sample_bridging(std::vector<FaultSpec> faults,
                                       std::size_t cap);

}  // namespace fstg
