#pragma once

#include "logic/cover.h"

namespace fstg {

/// Options for the two-level minimizer.
struct MinimizeOptions {
  /// Number of EXPAND + IRREDUNDANT passes (each pass rotates the literal
  /// raising order, which lets stuck covers improve).
  int passes = 2;
};

/// Heuristic two-level minimization of a single-output function given its
/// on-set and dc-set covers: espresso's EXPAND and IRREDUNDANT cores. The
/// OFF-set, the complement of on ∪ dc, is computed once per function;
/// each pass EXPANDs against it and then runs IRREDUNDANT, and the
/// cheapest pass wins. The result covers every on-set minterm, never
/// covers an off-set minterm, and contains no single-cube-redundant or
/// fully-redundant cubes.
Cover minimize_cover(const Cover& on_set, const Cover& dc_set,
                     const MinimizeOptions& options = {});

/// EXPAND each cube of `cover` (which must not meet `off_set`): try each
/// variable once, in the order (k + rotation) % num_vars, and raise it to
/// don't-care iff the raised cube meets no cube of `off_set`. Cubes that
/// end up inside another one are dropped.
Cover expand_cover(const Cover& cover, const Cover& off_set, int rotation);

/// Remove cubes whose minterms are already covered by the rest ∪ dc.
Cover irredundant_cover(const Cover& cover, const Cover& dc_set);

}  // namespace fstg
