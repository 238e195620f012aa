#include "seq/transfer.h"

#include <algorithm>
#include <deque>

#include "base/error.h"

namespace fstg {

SuccessorLists successor_lists(const StateTable& table) {
  const auto num_states = static_cast<std::size_t>(table.num_states());
  SuccessorLists lists(num_states);
  // listed_in[t] = the last state whose list received t.
  std::vector<int> listed_in(num_states, -1);
  for (int s = 0; s < table.num_states(); ++s) {
    for (std::uint32_t a = 0; a < table.num_input_combos(); ++a) {
      const int t = table.next(s, a);
      if (listed_in[static_cast<std::size_t>(t)] == s) continue;
      listed_in[static_cast<std::size_t>(t)] = s;
      lists[static_cast<std::size_t>(s)].push_back({t, a});
    }
  }
  return lists;
}

std::optional<std::vector<std::uint32_t>> find_transfer(
    const StateTable& table, int from, int max_length,
    const std::function<bool(int)>& target) {
  robust::RunGuard guard(robust::Budget{}, "transfer.bfs");
  return find_transfer_guarded(successor_lists(table), from, max_length,
                               target, guard)
      .seq;
}

TransferSearch find_transfer_guarded(const SuccessorLists& successors,
                                     int from, int max_length,
                                     const std::function<bool(int)>& target,
                                     robust::RunGuard& guard) {
  require(from >= 0 && from < static_cast<int>(successors.size()),
          "find_transfer: bad state");
  TransferSearch result;
  if (max_length <= 0) return result;

  struct Node {
    int state;
    int parent;
    std::uint32_t via;
    int depth;
  };
  std::vector<Node> arena;
  std::deque<int> queue;
  std::vector<bool> seen(successors.size(), false);

  arena.push_back({from, -1, 0, 0});
  queue.push_back(0);
  seen[static_cast<std::size_t>(from)] = true;

  while (!queue.empty()) {
    const int id = queue.front();
    queue.pop_front();
    const Node node = arena[static_cast<std::size_t>(id)];
    if (node.depth >= max_length) continue;
    for (const auto [t, a] : successors[static_cast<std::size_t>(node.state)]) {
      if (!guard.tick()) {
        result.budget_exhausted = true;
        return result;
      }
      if (target(t)) {
        std::vector<std::uint32_t> seq{a};
        for (int cur = id; cur > 0;
             cur = arena[static_cast<std::size_t>(cur)].parent)
          seq.push_back(arena[static_cast<std::size_t>(cur)].via);
        std::reverse(seq.begin(), seq.end());
        result.seq = std::move(seq);
        return result;
      }
      if (seen[static_cast<std::size_t>(t)]) continue;
      seen[static_cast<std::size_t>(t)] = true;
      arena.push_back({t, id, a, node.depth + 1});
      queue.push_back(static_cast<int>(arena.size()) - 1);
    }
  }
  return result;
}

}  // namespace fstg
