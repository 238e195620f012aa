#include "fault/bridging.h"

#include "base/error.h"
#include "netlist/reach.h"

namespace fstg {

std::vector<FaultSpec> enumerate_bridging(const Netlist& nl) {
  robust::RunGuard guard(robust::Budget{}, "bridging.pairs");
  BridgingEnumeration e = enumerate_bridging_guarded(nl, guard);
  if (!e.complete) throw BudgetError(guard.status().message());
  return std::move(e.faults);
}

BridgingEnumeration enumerate_bridging_guarded(const Netlist& nl,
                                               robust::RunGuard& guard) {
  BridgingEnumeration result;
  std::vector<FaultSpec>& faults = result.faults;

  // Candidate lines: outputs of multi-input gates.
  std::vector<int> candidates;
  for (int g = 0; g < nl.num_gates(); ++g) {
    const Gate& gate = nl.gate(g);
    switch (gate.type) {
      case GateType::kAnd:
      case GateType::kOr:
      case GateType::kNand:
      case GateType::kNor:
      case GateType::kXor:
      case GateType::kXnor:
        if (gate.fanins.size() >= 2) candidates.push_back(g);
        break;
      default:
        break;
    }
  }
  if (candidates.size() < 2) return result;

  const std::vector<std::vector<int>> fanouts = nl.fanouts();
  robust::Result<std::vector<BitVec>> reach_r =
      forward_reachability_guarded(nl, guard);
  if (!reach_r.is_ok()) {
    result.complete = false;
    return result;
  }
  const std::vector<BitVec> reach = reach_r.take();

  // Consumer sets as bit vectors for the shared-consumer test.
  const std::size_t n = static_cast<std::size_t>(nl.num_gates());
  std::vector<BitVec> consumers(n);
  for (int g : candidates) {
    BitVec& c = consumers[static_cast<std::size_t>(g)];
    c.resize(n);
    for (int f : fanouts[static_cast<std::size_t>(g)])
      c.set(static_cast<std::size_t>(f));
  }

  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const int g1 = candidates[i];
    for (std::size_t j = i + 1; j < candidates.size(); ++j) {
      if (!guard.tick()) {
        result.complete = false;  // prefix of the fault list: still valid
        return result;
      }
      const int g2 = candidates[j];
      // (2) Both lines feed at least one gate, and no gate consumes both.
      if (fanouts[static_cast<std::size_t>(g1)].empty() ||
          fanouts[static_cast<std::size_t>(g2)].empty())
        continue;
      if (consumers[static_cast<std::size_t>(g1)].intersects(
              consumers[static_cast<std::size_t>(g2)]))
        continue;
      // (3) No structural path either way.
      if (reach[static_cast<std::size_t>(g1)].test(static_cast<std::size_t>(g2)) ||
          reach[static_cast<std::size_t>(g2)].test(static_cast<std::size_t>(g1)))
        continue;
      faults.push_back(FaultSpec::bridge_and(g1, g2));
      faults.push_back(FaultSpec::bridge_or(g1, g2));
    }
  }
  return result;
}

std::vector<FaultSpec> sample_bridging(std::vector<FaultSpec> faults,
                                       std::size_t cap) {
  if (cap == 0 || faults.size() <= cap) return faults;
  const std::size_t pairs = faults.size() / 2;
  const std::size_t want_pairs = cap / 2;
  const std::size_t stride = (pairs + want_pairs - 1) / want_pairs;
  std::vector<FaultSpec> sampled;
  sampled.reserve(2 * (pairs / stride + 1));
  for (std::size_t p = 0; p < pairs; p += stride) {
    sampled.push_back(faults[2 * p]);
    sampled.push_back(faults[2 * p + 1]);
  }
  return sampled;
}

}  // namespace fstg
