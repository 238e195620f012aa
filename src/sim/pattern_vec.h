#pragma once

#include <bit>
#include <cstdint>

namespace fstg {

/// One 64-pattern lane word: the simulation width of every word-parallel
/// simulator (one pattern per bit).
using Word = std::uint64_t;
inline constexpr int kWordBits = 64;

/// Lane operations over a lane word, so the simulator templates name the
/// lane type once. All members are branch-light and inline.
template <class V>
struct LaneOps;

template <>
struct LaneOps<Word> {
  static constexpr int kBits = kWordBits;
  static constexpr int kWords = 1;

  static Word zero() { return 0; }
  static Word ones() { return ~Word{0}; }
  static bool any(Word v) { return v != 0; }
  static bool none(Word v) { return v == 0; }
  static bool test(const Word& v, int lane) { return (v >> lane) & 1u; }
  static void set(Word& v, int lane) { v |= Word{1} << lane; }
  static Word word(const Word& v, int i) {
    (void)i;
    return v;
  }
  /// Lanes 0..n-1 set (n in 1..kBits).
  static Word low_mask(int n) {
    return n >= kWordBits ? ~Word{0} : (Word{1} << n) - 1;
  }
  /// Lowest set lane; v must be nonzero.
  static int first_lane(Word v) { return std::countr_zero(v); }
  static int popcount(Word v) { return std::popcount(v); }
  /// Lanes strictly below the lowest set lane (all lanes if none set).
  static Word below_lowest(Word v) {
    if (v == 0) return ~Word{0};
    return (v & (~v + 1)) - 1;
  }
};

/// Visit every set lane of `v` in ascending lane order: fn(int lane).
template <class V, class Fn>
inline void for_each_lane(const V& v, Fn&& fn) {
  using O = LaneOps<V>;
  for (int i = 0; i < O::kWords; ++i) {
    for (Word w = O::word(v, i); w != 0; w &= w - 1)
      fn(i * kWordBits + std::countr_zero(w));
  }
}

}  // namespace fstg
