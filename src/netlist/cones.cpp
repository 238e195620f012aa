#include "netlist/cones.h"

#include "netlist/netlist.h"

namespace fstg {

ConePartition fanout_free_cones(const Netlist& nl) {
  const int n = nl.num_gates();
  ConePartition part;
  part.head.assign(static_cast<std::size_t>(n), -1);
  part.cone_id.assign(static_cast<std::size_t>(n), -1);
  if (n == 0) return part;

  // Fanout counts + the single fanout (when unique), without materializing
  // the full fanout lists.
  std::vector<int> fanout_count(static_cast<std::size_t>(n), 0);
  std::vector<int> single_fanout(static_cast<std::size_t>(n), -1);
  for (int id = 0; id < n; ++id) {
    for (int f : nl.gate(id).fanins) {
      const std::size_t fs = static_cast<std::size_t>(f);
      ++fanout_count[fs];
      single_fanout[fs] = id;
    }
  }
  std::vector<char> is_output(static_cast<std::size_t>(n), 0);
  for (int o : nl.outputs()) is_output[static_cast<std::size_t>(o)] = 1;

  // Reverse topological sweep: a gate's head is itself unless it has
  // exactly one fanout, is not observable as an output, and that fanout's
  // head is already known (ids are topological, so it is).
  for (int id = n - 1; id >= 0; --id) {
    const std::size_t s = static_cast<std::size_t>(id);
    if (fanout_count[s] == 1 && !is_output[s])
      part.head[s] = part.head[static_cast<std::size_t>(single_fanout[s])];
    else
      part.head[s] = id;
  }

  // Dense cone ids ordered by ascending head id (canonical for a given
  // netlist), then member fill.
  for (int id = 0; id < n; ++id) {
    if (part.head[static_cast<std::size_t>(id)] == id) {
      part.cone_id[static_cast<std::size_t>(id)] =
          static_cast<int>(part.cone_head.size());
      part.cone_head.push_back(id);
    }
  }
  for (int id = 0; id < n; ++id) {
    const int h = part.head[static_cast<std::size_t>(id)];
    part.cone_id[static_cast<std::size_t>(id)] =
        part.cone_id[static_cast<std::size_t>(h)];
  }
  return part;
}

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
