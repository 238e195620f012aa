#pragma once

// Width-generic body of the batched fault-simulation loop. Included ONLY by
// the per-width engine TUs (fault_sim_w64/w256/w512.cpp): each instantiates
// run_engine<V> with its lane type under its own ISA flags. Do not include
// this from portably-compiled code — that is what fault_sim_width.h is for.

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "base/obs/metrics.h"
#include "base/obs/trace.h"
#include "base/parallel/thread_pool.h"
#include "fault/fault_sim_width.h"
#include "sim/scan_sim.h"

namespace fstg::detail {

/// Fault-level parallelism only pays off once a batch carries enough live
/// faults to amortize the fork/join of one parallel region.
inline constexpr std::size_t kMinParallelFaults = 64;

/// A batch's excitation index is built across the worker slots only once
/// it spans this many 64-cycle words; shorter batches sweep faster than a
/// fork/join.
inline constexpr std::size_t kMinParallelIndexWords = 8;

/// Split the live-fault list (already in cone-sorted schedule order) into
/// chunks of roughly equal summed work, snapping chunk boundaries to FFR
/// cone boundaries (bounded: a chunk stops growing at 2x its target even
/// mid-cone). Equal-*weight* chunks are the fix for the fixed-stripe
/// granularity bug: cone sizes vary by 3 orders of magnitude, so
/// equal-*count* stripes left some workers with all the big cones.
static std::vector<std::pair<std::size_t, std::size_t>> weight_chunks(
    const std::vector<std::size_t>& alive,
    const std::vector<int>& fault_cone, const std::vector<std::size_t>& weight,
    int threads) {
  std::size_t total = 0;
  for (std::size_t f : alive) total += weight[f] + 1;
  // ~4 chunks per worker gives the stealing deques slack to rebalance.
  const std::size_t target = std::max<std::size_t>(
      1, total / (static_cast<std::size_t>(threads) * 4));
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  std::size_t lo = 0;
  std::size_t acc = 0;
  for (std::size_t i = 0; i < alive.size(); ++i) {
    acc += weight[alive[i]] + 1;
    if (acc < target) continue;
    // Snap the cut to the end of the current cone group, within 2x target.
    std::size_t end = i + 1;
    while (end < alive.size() && acc < 2 * target &&
           fault_cone[alive[end]] == fault_cone[alive[i]]) {
      acc += weight[alive[end]] + 1;
      ++end;
    }
    chunks.emplace_back(lo, end);
    lo = end;
    acc = 0;
    i = end - 1;
  }
  if (lo < alive.size()) chunks.emplace_back(lo, alive.size());
  return chunks;
}

template <class V>
void run_engine(FaultSimEngineContext& ctx) {
  using Lanes = LaneOps<V>;
  FaultSimResult& result = ctx.result;

  static const obs::Counter c_batches = obs::counter("fault_sim.batches");
  static const obs::Counter c_simulated =
      obs::counter("fault_sim.faults_simulated");
  static const obs::Counter c_dropped = obs::counter("fault_sim.faults_dropped");
  static const obs::Counter c_chunks = obs::counter("fault_sim.chunks");
  static const obs::Gauge g_alive = obs::gauge("fault_sim.faults_alive");
  static const obs::Histogram h_batch_live =
      obs::histogram("fault_sim.batch_live_faults");
  static const obs::Histogram h_chunk_faults =
      obs::histogram("fault_sim.chunk_faults");
  static const obs::Histogram h_chunk_weight =
      obs::histogram("fault_sim.chunk_weight");

  // One simulator per worker slot; slot 0 (the caller) doubles as the
  // good-trace simulator. The good trace itself is immutable and shared.
  std::vector<std::unique_ptr<ScanBatchSimT<V>>> sims;
  std::vector<ScanBatchSimT<V>*> slots;
  sims.reserve(static_cast<std::size_t>(ctx.threads));
  for (int s = 0; s < ctx.threads; ++s) {
    sims.push_back(std::make_unique<ScanBatchSimT<V>>(ctx.circuit));
    slots.push_back(sims.back().get());
  }

  std::vector<std::size_t> alive = ctx.schedule;  // cone-sorted fault order
  std::vector<std::size_t> still_alive;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;

  for (std::size_t base = 0;
       base < ctx.patterns.size() && !alive.empty();
       base += static_cast<std::size_t>(Lanes::kBits)) {
    const std::size_t count = std::min<std::size_t>(
        static_cast<std::size_t>(Lanes::kBits), ctx.patterns.size() - base);
    const std::span<const ScanPattern> batch =
        ctx.patterns.subspan(base, count);
    c_batches.inc();
    c_simulated.add(alive.size());  // per-batch (fault, test-batch) evals
    h_batch_live.observe(alive.size());
    GoodTraceT<V> good;
    {
      obs::Span span("fault_sim.good_trace");
      good = sims[0]->run_good(batch);
    }
    // One excitation/observability index per batch, shared read-only by
    // every worker; its words split across the slots (same index for any
    // split). Event-driven only: the full-cone baseline (serial_seed) must
    // keep paying its historical cost, not ours.
    if (ctx.mode == FaultyEval::kEventDriven) {
      obs::Span span("fault_sim.excitation_index");
      const std::size_t words = (good.active.size() + 63) / 64;
      ScanBatchSimT<V>::build_excitation_index(
          good, std::span<ScanBatchSimT<V>* const>(slots).first(
                    words >= kMinParallelIndexWords ? slots.size() : 1));
    }

    // Each live fault is simulated independently against the shared good
    // trace; detected_by writes are disjoint per fault, so workers need no
    // synchronization beyond the guard. A tripped guard cancels every
    // worker cooperatively (tick turns false on all threads); faults it
    // skips simply stay undetected in the partial result.
    const auto simulate_range = [&](int slot, std::size_t lo, std::size_t hi) {
      ScanBatchSimT<V>& sim = *sims[static_cast<std::size_t>(slot)];
      for (std::size_t i = lo; i < hi; ++i) {
        if (!ctx.guard.tick(count)) return;
        const std::size_t f = alive[i];
        const V det =
            sim.run_faulty(batch, good, ctx.faults[f], &ctx.cones[f], ctx.mode);
        if (Lanes::any(det)) {
          result.detected_by[f] = static_cast<int>(
              base + static_cast<std::size_t>(Lanes::first_lane(det)));
        }
      }
    };
    if (ctx.threads > 1 && alive.size() >= kMinParallelFaults) {
      chunks = weight_chunks(alive, ctx.fault_cone, ctx.weight, ctx.threads);
      c_chunks.add(chunks.size());
      for (const auto& [lo, hi] : chunks) {
        h_chunk_faults.observe(hi - lo);
        std::size_t w = 0;
        for (std::size_t i = lo; i < hi; ++i) w += ctx.weight[alive[i]] + 1;
        h_chunk_weight.observe(w);
      }
      parallel::parallel_for(
          chunks.size(), 1, ctx.threads,
          [&](int slot, std::size_t clo, std::size_t chi) {
            for (std::size_t c = clo; c < chi; ++c)
              simulate_range(slot, chunks[c].first, chunks[c].second);
          });
    } else {
      simulate_range(0, 0, alive.size());
    }

    // Deterministic reduction: per-fault marks are disjoint and the
    // effectiveness/coverage aggregates are order-independent unions, so
    // the result is bit-identical for any thread count, chunking, schedule
    // permutation — and any lane width (a wider batch only moves block
    // boundaries; each test keeps its global index via base + lane).
    still_alive.clear();
    still_alive.reserve(alive.size());
    for (std::size_t f : alive) {
      const int t = result.detected_by[f];
      if (t >= 0) {
        result.test_effective[static_cast<std::size_t>(t)] = true;
        ++result.detected_faults;
      } else {
        still_alive.push_back(f);
      }
    }
    c_dropped.add(still_alive.size() <= alive.size()
                      ? alive.size() - still_alive.size()
                      : 0);
    alive.swap(still_alive);
    g_alive.set(static_cast<std::int64_t>(alive.size()));

    if (ctx.guard.exhausted()) {
      // Partial result: detections so far stand; the rest is unknown.
      result.complete = false;
      break;
    }
  }
  for (const auto& sim : sims) {
    ctx.logic_stats += sim->sim_stats();
    ctx.scan_stats += sim->stats();
  }
}

// ---------------------------------------------------------------------------
// Micro-kernel bodies (bench/micro_kernels.cpp measures these through the
// per-width wrappers): deterministic synthetic input, checksummed output.
// ---------------------------------------------------------------------------

/// Deterministic per-call input generator (xorshift; no global state).
static std::uint64_t kernel_rng(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

template <class V>
V kernel_rand_vec(std::uint64_t& s) {
  V v = LaneOps<V>::zero();
  for (int i = 0; i < LaneOps<V>::kWords; ++i) {
    const Word w = kernel_rng(s);
    for (int b = 0; b < kWordBits; ++b)
      if ((w >> b) & 1u) LaneOps<V>::set(v, i * kWordBits + b);
  }
  return v;
}

/// Full fault-free levelized sweeps with fresh random inputs each rep.
template <class V>
std::uint64_t kernel_eval_sweep_impl(const ScanCircuit& c, int reps) {
  LogicSimT<V> sim(c.comb);
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  std::uint64_t checksum = 0;
  for (int r = 0; r < reps; ++r) {
    for (int i = 0; i < c.comb.num_inputs(); ++i)
      sim.set_input(i, kernel_rand_vec<V>(seed));
    sim.run();
    for (int k = 0; k < c.comb.num_outputs(); ++k)
      checksum += static_cast<std::uint64_t>(
          LaneOps<V>::popcount(sim.output(k)));
  }
  return checksum;
}

/// Three-valued sweeps: half the inputs carry X lanes, exercising the
/// X-plane merge rules (pessimistic AND/OR, parity X-absorption).
template <class V>
std::uint64_t kernel_x_merge_impl(const ScanCircuit& c, int reps) {
  LogicSimT<V> sim(c.comb);
  std::uint64_t seed = 0xc2b2ae3d27d4eb4full;
  std::uint64_t checksum = 0;
  for (int r = 0; r < reps; ++r) {
    sim.clear_input_x();
    for (int i = 0; i < c.comb.num_inputs(); ++i) {
      sim.set_input(i, kernel_rand_vec<V>(seed));
      if ((i & 1) != 0) sim.set_input_x(i, kernel_rand_vec<V>(seed));
    }
    sim.run();
    for (int k = 0; k < c.comb.num_outputs(); ++k)
      checksum += static_cast<std::uint64_t>(
          LaneOps<V>::popcount(sim.output_x(k)));
  }
  return checksum;
}

/// Event-driven overlay evaluations against a fixed fault-free base,
/// cycling the forced stuck-at site across the netlist.
template <class V>
std::uint64_t kernel_cone_overlay_impl(const ScanCircuit& c, int reps) {
  LogicSimT<V> sim(c.comb);
  std::uint64_t seed = 0x165667b19e3779f9ull;
  for (int i = 0; i < c.comb.num_inputs(); ++i)
    sim.set_input(i, kernel_rand_vec<V>(seed));
  sim.run();
  const std::vector<V> base = sim.values();
  const std::vector<int> no_cone;
  std::uint64_t checksum = 0;
  const int n = c.comb.num_gates();
  for (int r = 0; r < reps; ++r) {
    const int gate = static_cast<int>(kernel_rng(seed) % static_cast<std::uint64_t>(n));
    const FaultSpec fault = FaultSpec::stuck_gate(gate, (r & 1) != 0);
    checksum += static_cast<std::uint64_t>(
        sim.run_cone_overlay(fault, no_cone, base.data()));
  }
  return checksum;
}

}  // namespace fstg::detail
