#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fstg {

/// Dynamically sized bit vector used for state sets, fault masks, and
/// structural reachability rows. Stores 64 bits per word; all operations
/// outside the logical size read as zero and writes beyond the size are
/// undefined (checked in debug via assert-like tests).
class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t n, bool value = false);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void resize(std::size_t n, bool value = false);
  void clear();

  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void reset(std::size_t i) {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void assign_bit(std::size_t i, bool v) {
    if (v) set(i); else reset(i);
  }

  /// Set/clear every bit.
  void set_all();
  void reset_all();

  /// Number of set bits.
  std::size_t count() const;
  bool any() const;
  bool none() const { return !any(); }

  /// Index of the first set bit at or after `from`, or npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t find_first(std::size_t from = 0) const;

  BitVec& operator|=(const BitVec& o);
  BitVec& operator&=(const BitVec& o);
  BitVec& operator^=(const BitVec& o);
  /// this &= ~o
  BitVec& and_not(const BitVec& o);

  bool operator==(const BitVec& o) const;

  /// True if (this & o) has any set bit.
  bool intersects(const BitVec& o) const;
  /// True if every set bit of this is also set in o.
  bool is_subset_of(const BitVec& o) const;

 private:
  void trim_tail();

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace fstg
