#pragma once

#include <string>

namespace fstg {

/// Lane width of the fault-simulation engine, for perf records. The engine
/// simulates 64 pattern lanes per pass (one Word, sim/pattern_vec.h), so
/// this is always 64.
int default_lane_bits();
/// True: the width is not configurable, so it is never an explicit choice.
bool default_lane_bits_is_auto();

/// Comma-separated CPU SIMD feature summary for perf records
/// (e.g. "avx2,avx512f,avx512bw"); "baseline" when none detected.
std::string cpu_features();

}  // namespace fstg
