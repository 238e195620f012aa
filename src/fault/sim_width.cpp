#include "fault/sim_width.h"

#include "sim/pattern_vec.h"

namespace fstg {

int default_lane_bits() { return kWordBits; }

bool default_lane_bits_is_auto() { return true; }

std::string cpu_features() {
  std::string s;
  const auto add = [&s](const char* f) {
    if (!s.empty()) s += ',';
    s += f;
  };
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("sse4.2")) add("sse4.2");
  if (__builtin_cpu_supports("avx2")) add("avx2");
  if (__builtin_cpu_supports("avx512f")) add("avx512f");
  if (__builtin_cpu_supports("avx512bw")) add("avx512bw");
#endif
  if (s.empty()) s = "baseline";
  return s;
}

}  // namespace fstg
