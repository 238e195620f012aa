#pragma once

#include <cstdint>
#include <span>

namespace fstg {

/// One 64-pattern lane word: the simulation width of every word-parallel
/// simulator (one pattern per bit).
using Word = std::uint64_t;
inline constexpr int kWordBits = 64;

/// Lane `lane`'s bits of bit-sliced words: bit k of the result is the lane's
/// bit of words[k] (a lane's state out of one word per state variable).
inline std::uint32_t lane_bits(std::span<const Word> words, int lane) {
  std::uint32_t bits = 0;
  for (std::size_t k = 0; k < words.size(); ++k)
    bits |= static_cast<std::uint32_t>((words[k] >> lane) & 1u) << k;
  return bits;
}

}  // namespace fstg
