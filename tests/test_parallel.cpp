#include "base/parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace fstg::parallel {
namespace {

TEST(Parallel, HardwareThreadsAtLeastOne) {
  EXPECT_GE(hardware_threads(), 1);
}

TEST(Parallel, ResolveThreads) {
  set_default_threads(3);
  EXPECT_EQ(resolve_threads(-1), 3);  // negative = process default
  EXPECT_EQ(resolve_threads(0), 1);   // 0 = serial fallback
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_EQ(resolve_threads(7), 7);
  EXPECT_EQ(resolve_threads(kMaxThreads + 100), kMaxThreads);
  set_default_threads(0);
  EXPECT_EQ(resolve_threads(-1), 1);
  set_default_threads(hardware_threads());
}

TEST(Parallel, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, /*grain=*/7, /*threads=*/4,
               [&](int, std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i)
                   hits[i].fetch_add(1, std::memory_order_relaxed);
               });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Parallel, EmptyRangeAndZeroGrain) {
  bool called = false;
  parallel_for(0, 16, 4, [&](int, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
  // grain 0 is promoted to 1 instead of dividing by zero.
  std::vector<int> hits(5, 0);
  parallel_for(5, 0, 1, [&](int, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 5);
}

TEST(Parallel, SlotIdsWithinRange) {
  constexpr int kThreads = 4;
  std::atomic<bool> bad{false};
  parallel_for(256, 1, kThreads, [&](int slot, std::size_t, std::size_t) {
    if (slot < 0 || slot >= kThreads) bad.store(true);
    if (!in_parallel_region()) bad.store(true);
  });
  EXPECT_FALSE(bad.load());
  EXPECT_FALSE(in_parallel_region());  // region state restored on the caller
}

TEST(Parallel, NestedRegionsRunInline) {
  // A nested parallel_for must run on the calling slot (no deadlock, no
  // oversubscription); the inner region then reports slot 0.
  std::atomic<int> inner_calls{0};
  parallel_for(8, 1, 4, [&](int, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      parallel_for(3, 1, 4, [&](int slot, std::size_t a, std::size_t b) {
        EXPECT_EQ(slot, 0);
        inner_calls.fetch_add(static_cast<int>(b - a));
      });
    }
  });
  EXPECT_EQ(inner_calls.load(), 8 * 3);
}

TEST(Parallel, FirstExceptionPropagates) {
  EXPECT_THROW(
      parallel_for(64, 1, 4,
                   [&](int, std::size_t lo, std::size_t) {
                     if (lo == 13) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool is still usable afterwards.
  std::atomic<int> n{0};
  parallel_for(10, 1, 4,
               [&](int, std::size_t lo, std::size_t hi) {
                 n.fetch_add(static_cast<int>(hi - lo));
               });
  EXPECT_EQ(n.load(), 10);
}

TEST(Parallel, SerialWhenOneThread) {
  // threads=1 and threads=0 both run everything inline on the caller.
  for (int t : {0, 1}) {
    std::vector<int> order;
    parallel_for(6, 2, t, [&](int slot, std::size_t lo, std::size_t hi) {
      EXPECT_EQ(slot, 0);
      for (std::size_t i = lo; i < hi; ++i)
        order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  }
}

TEST(Parallel, UnevenWorkStillCovers) {
  // Chunks with wildly different costs (work stealing's reason to exist):
  // correctness here is full coverage, not balance.
  constexpr std::size_t kN = 200;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, 3, 8, [&](int, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      volatile std::uint64_t sink = 0;
      const std::uint64_t spin = (i % 17 == 0) ? 20000 : 10;
      for (std::uint64_t k = 0; k < spin; ++k) sink = sink + k;
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

}  // namespace
}  // namespace fstg::parallel
