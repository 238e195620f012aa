#include "logic/minimize.h"

#include <algorithm>

#include "base/error.h"
#include "logic/tautology.h"

namespace fstg {

namespace {

Cover union_covers(const Cover& a, const Cover& b) {
  Cover u(a.num_vars());
  for (const Cube& c : a.cubes()) u.add(c);
  for (const Cube& c : b.cubes()) u.add(c);
  return u;
}

}  // namespace

Cover expand_cover(const Cover& cover, const Cover& off_set, int rotation) {
  Cover out(cover.num_vars());
  for (const Cube& cube : cover.cubes()) {
    Cube c = cube;
    for (int k = 0; k < cover.num_vars(); ++k) {
      int v = (k + rotation) % cover.num_vars();
      if (c.get(v) == Lit::kDC) continue;
      Cube raised = c;
      raised.set(v, Lit::kDC);
      if (std::none_of(off_set.cubes().begin(), off_set.cubes().end(),
                       [&](const Cube& off) { return off.intersects(raised); }))
        c = raised;
    }
    out.add(c);
  }
  out.remove_single_cube_contained();
  return out;
}

Cover irredundant_cover(const Cover& cover, const Cover& dc_set) {
  // Greedy: try dropping cubes one at a time, largest-last so big cubes
  // (cheap in literals) are kept preferentially.
  std::vector<Cube> cubes = cover.cubes();
  std::vector<bool> keep(cubes.size(), true);
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    // Only cubes that meet cubes[i] survive its cofactor, so the rest are
    // left out up front.
    Cover rest(cover.num_vars());
    for (std::size_t j = 0; j < cubes.size(); ++j)
      if (j != i && keep[j] && cubes[j].intersects(cubes[i]))
        rest.add(cubes[j]);
    for (const Cube& d : dc_set.cubes())
      if (d.intersects(cubes[i])) rest.add(d);
    if (cube_covered(cubes[i], rest)) keep[i] = false;
  }
  Cover out(cover.num_vars());
  for (std::size_t i = 0; i < cubes.size(); ++i)
    if (keep[i]) out.add(cubes[i]);
  return out;
}

Cover minimize_cover(const Cover& on_set, const Cover& dc_set,
                     const MinimizeOptions& options) {
  require(on_set.num_vars() == dc_set.num_vars() || dc_set.empty(),
          "minimize_cover: variable count mismatch");
  if (on_set.empty()) return on_set;

  const Cover off_set = complement_cover(union_covers(on_set, dc_set));
  Cover current = on_set;
  current.remove_single_cube_contained();
  std::size_t best_cost = static_cast<std::size_t>(-1);
  Cover best = current;
  for (int pass = 0; pass < options.passes; ++pass) {
    current = expand_cover(current, off_set,
                           pass * 7);  // rotate the raising order per pass
    current = irredundant_cover(current, dc_set);
    std::size_t cost = current.size() * 100 + current.literal_count();
    if (cost < best_cost) {
      best_cost = cost;
      best = current;
    }
  }
  return best;
}

}  // namespace fstg
