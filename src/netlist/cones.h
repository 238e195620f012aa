#pragma once

#include <vector>

namespace fstg {

class Netlist;

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
