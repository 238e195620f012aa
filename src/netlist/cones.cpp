#include "netlist/cones.h"

#include "netlist/netlist.h"

namespace fstg {

std::vector<int> output_dominators(const Netlist& nl) {
  const int n = nl.num_gates();
  // The virtual sink gets the one id larger than every gate id, so the
  // invariant "a post-dominator's id is larger than the gate's" holds for
  // the intersection walks below (fanout ids exceed fanin ids).
  const int sink = n;
  std::vector<int> dom(static_cast<std::size_t>(n), kDominatorDead);
  if (n == 0) return dom;

  std::vector<std::vector<int>> fanouts = nl.fanouts();
  std::vector<char> is_output(static_cast<std::size_t>(n), 0);
  for (int o : nl.outputs()) is_output[static_cast<std::size_t>(o)] = 1;

  // idom[g] in gate ids with `sink` for the virtual sink; kDominatorDead
  // for unobservable gates. Gate ids are topological, so descending order
  // visits every fanout before its fanins.
  std::vector<int> idom(static_cast<std::size_t>(n), kDominatorDead);
  auto intersect = [&](int a, int b) {
    while (a != b) {
      while (a < b) a = a == sink ? sink : idom[static_cast<std::size_t>(a)];
      while (b < a) b = b == sink ? sink : idom[static_cast<std::size_t>(b)];
    }
    return a;
  };
  for (int id = n - 1; id >= 0; --id) {
    const std::size_t s = static_cast<std::size_t>(id);
    int d = is_output[s] ? sink : kDominatorDead;
    for (int f : fanouts[s]) {
      const int fd = idom[static_cast<std::size_t>(f)];
      if (fd == kDominatorDead) continue;  // no output beyond this fanout
      d = d == kDominatorDead ? f : intersect(d, f);
    }
    idom[s] = d;
  }
  for (int id = 0; id < n; ++id) {
    const int d = idom[static_cast<std::size_t>(id)];
    dom[static_cast<std::size_t>(id)] = d == sink ? kDominatorSink : d;
  }
  return dom;
}

}  // namespace fstg
