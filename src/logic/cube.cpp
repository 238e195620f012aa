#include "logic/cube.h"

#include <bit>

#include "base/error.h"

namespace fstg {

namespace {
// Mask with bit pattern 01 repeated for the first n variables.
std::uint64_t low_bits_mask(int num_vars) {
  return num_vars >= 32 ? 0x5555555555555555ull
                        : ((std::uint64_t{1} << (2 * num_vars)) - 1) &
                              0x5555555555555555ull;
}
}  // namespace

Cube Cube::full(int num_vars) {
  require(num_vars >= 0 && num_vars <= 32, "Cube supports up to 32 variables");
  Cube c;
  c.num_vars_ = num_vars;
  c.bits_ = num_vars == 32 ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << (2 * num_vars)) - 1;
  return c;
}

Cube Cube::minterm(int num_vars, std::uint32_t minterm_bits) {
  Cube c = full(num_vars);
  for (int v = 0; v < num_vars; ++v)
    c.set(v, ((minterm_bits >> v) & 1u) ? Lit::kOne : Lit::kZero);
  return c;
}

Cube Cube::from_string(const std::string& s) {
  Cube c = full(static_cast<int>(s.size()));
  for (int v = 0; v < c.num_vars_; ++v) {
    switch (s[static_cast<std::size_t>(v)]) {
      case '0': c.set(v, Lit::kZero); break;
      case '1': c.set(v, Lit::kOne); break;
      case '-': break;
      default: throw Error("Cube::from_string: bad character in " + s);
    }
  }
  return c;
}

int Cube::literal_count() const {
  // A position is a literal iff its two bits are not both set.
  std::uint64_t both = bits_ & (bits_ >> 1) & low_bits_mask(num_vars_);
  return num_vars_ - std::popcount(both);
}

bool Cube::intersects(const Cube& o) const {
  std::uint64_t t = bits_ & o.bits_;
  // Empty iff some variable position has both bits zero.
  std::uint64_t nonempty = (t | (t >> 1)) & low_bits_mask(num_vars_);
  return nonempty == low_bits_mask(num_vars_);
}

Cube Cube::intersect(const Cube& o) const {
  Cube c;
  c.num_vars_ = num_vars_;
  c.bits_ = bits_ & o.bits_;
  return c;
}

Cube Cube::supercube(const Cube& o) const {
  Cube c;
  c.num_vars_ = num_vars_;
  c.bits_ = bits_ | o.bits_;
  return c;
}

std::uint64_t Cube::fixed_mask() const {
  const std::uint64_t fixed =
      ~(bits_ & (bits_ >> 1)) & low_bits_mask(num_vars_);
  return fixed | (fixed << 1);
}

bool Cube::contains_minterm(std::uint32_t minterm_bits) const {
  for (int v = 0; v < num_vars_; ++v) {
    Lit lit = get(v);
    if (lit == Lit::kDC) continue;
    bool bit = (minterm_bits >> v) & 1u;
    if (bit != (lit == Lit::kOne)) return false;
  }
  return true;
}

std::uint64_t Cube::minterm_count() const {
  return std::uint64_t{1} << (num_vars_ - literal_count());
}

std::string Cube::to_string() const {
  std::string s(static_cast<std::size_t>(num_vars_), '?');
  for (int v = 0; v < num_vars_; ++v) {
    switch (get(v)) {
      case Lit::kZero: s[static_cast<std::size_t>(v)] = '0'; break;
      case Lit::kOne: s[static_cast<std::size_t>(v)] = '1'; break;
      case Lit::kDC: s[static_cast<std::size_t>(v)] = '-'; break;
    }
  }
  return s;
}

}  // namespace fstg
