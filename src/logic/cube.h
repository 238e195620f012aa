#pragma once

#include <cstdint>
#include <string>

namespace fstg {

/// Value of one variable inside a cube.
enum class Lit : std::uint8_t {
  kZero = 1,  ///< variable must be 0 (complemented literal)
  kOne = 2,   ///< variable must be 1 (positive literal)
  kDC = 3,    ///< variable unconstrained
};

/// A product term in positional cube notation: two bits per variable
/// (01 = 0-literal, 10 = 1-literal, 11 = don't care). Supports up to 32
/// variables, which covers every function in this project
/// (inputs + state variables <= 18 on the largest circuit, nucpwr).
class Cube {
 public:
  Cube() = default;
  /// The universal cube (all don't-cares) over `num_vars` variables.
  static Cube full(int num_vars);
  /// Cube matching exactly one minterm.
  static Cube minterm(int num_vars, std::uint32_t minterm_bits);
  /// Parse from a {0,1,-} string (index 0 = variable 0).
  static Cube from_string(const std::string& s);

  int num_vars() const { return num_vars_; }

  Lit get(int var) const {
    return static_cast<Lit>((bits_ >> (2 * var)) & 3u);
  }
  void set(int var, Lit lit) {
    bits_ = (bits_ & ~(std::uint64_t{3} << (2 * var))) |
            (static_cast<std::uint64_t>(lit) << (2 * var));
  }

  /// Number of non-DC positions.
  int literal_count() const;

  /// True if this cube covers (is a superset of) `o`.
  bool covers(const Cube& o) const { return (bits_ | o.bits_) == bits_; }

  /// True if the two cubes share at least one minterm.
  bool intersects(const Cube& o) const;

  /// Intersection; only valid when intersects(o).
  Cube intersect(const Cube& o) const;

  /// Smallest cube containing both (bitwise or).
  Cube supercube(const Cube& o) const;

  /// Both bits of every variable this cube fixes to 0 or 1. OR-ing it into
  /// another cube (raise()) raises those variables to don't-care.
  std::uint64_t fixed_mask() const;

  /// This cube with the positions set in `mask` raised (bitwise or).
  Cube raise(std::uint64_t mask) const {
    Cube c = *this;
    c.bits_ |= mask;
    return c;
  }

  /// Does this cube contain the given minterm?
  bool contains_minterm(std::uint32_t minterm_bits) const;

  /// Number of minterms = 2^(#DC vars).
  std::uint64_t minterm_count() const;

  std::string to_string() const;

  bool operator==(const Cube& o) const {
    return num_vars_ == o.num_vars_ && bits_ == o.bits_;
  }
  bool operator<(const Cube& o) const {
    return bits_ != o.bits_ ? bits_ < o.bits_ : num_vars_ < o.num_vars_;
  }

  std::uint64_t raw_bits() const { return bits_; }

 private:
  std::uint64_t bits_ = 0;
  int num_vars_ = 0;
};

}  // namespace fstg
