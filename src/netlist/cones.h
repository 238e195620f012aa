#pragma once

#include <vector>

namespace fstg {

class Netlist;

/// Partition of a combinational netlist into fanout-free regions (FFRs):
/// maximal single-output subtrees. A gate is a *head* when its value is
/// observable beyond one place — it feeds an output of the netlist, has
/// fanout count != 1, or feeds a head through reconvergence; every other
/// gate belongs to the cone of the unique head it funnels into.
///
/// Faults inside one cone share the head's transitive fanout almost
/// entirely, so the fault-simulation engine sorts fault batches by cone:
/// consecutive faults re-touch the same overlay working set (cache-warm).
struct ConePartition {
  /// head[g] = id of the FFR head gate g funnels into (head[h] == h).
  std::vector<int> head;
  /// cone_id[g] = dense index (0..num_cones-1) of g's cone, ordered by
  /// ascending head id (deterministic for any netlist).
  std::vector<int> cone_id;
  /// cone_head[i] = head gate id of cone i (ascending).
  std::vector<int> cone_head;

  int num_cones() const { return static_cast<int>(cone_head.size()); }
};

/// Compute the fanout-free cone partition of `nl`. One reverse-topological
/// sweep (netlist ids are topological): O(gates + edges).
ConePartition fanout_free_cones(const Netlist& nl);

/// Sentinel ids for output_dominators(): `kDominatorSink` marks a gate whose
/// only post-dominator is the virtual sink behind all primary outputs (no
/// single gate funnels every path); `kDominatorDead` marks a gate from which
/// no primary output is reachable at all.
inline constexpr int kDominatorSink = -1;
inline constexpr int kDominatorDead = -2;

/// Immediate post-dominator of every gate toward the primary outputs:
/// dom[g] is the unique closest gate that every output path from g passes
/// through, kDominatorSink when the paths only reconverge at the virtual
/// sink (or g itself drives an output), and kDominatorDead when g is
/// unobservable. Every fault effect at g must pass through the whole chain
/// dom[g], dom[dom[g]], ... — the static unpropagatability check walks it.
/// One reverse-topological sweep with Cooper-Harvey-Kennedy intersection:
/// O(edges * chain length), in practice near-linear.
std::vector<int> output_dominators(const Netlist& nl);

}  // namespace fstg
