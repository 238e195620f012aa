#pragma once

#include "logic/cover.h"

namespace fstg {

/// Is the cover a tautology (covers every minterm)? Recursion with two leaf
/// rules — a universal cube is a tautology; cubes whose minterm counts sum
/// to less than the space are not — and splitting on the most binate
/// variable.
bool is_tautology(const Cover& cover);

/// Is cube `c` completely covered by `cover`? (Tautology of the cofactor.)
bool cube_covered(const Cube& c, const Cover& cover);

/// Complement of a cover (recursive Shannon expansion with binate variable
/// selection). Used to extract the unspecified portion of a state's input
/// space as don't-cares during synthesis.
Cover complement_cover(const Cover& cover);

}  // namespace fstg
