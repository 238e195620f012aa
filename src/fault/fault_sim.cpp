#include "fault/fault_sim.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <span>
#include <utility>

#include "base/error.h"
#include "base/obs/metrics.h"
#include "base/obs/telemetry.h"
#include "base/obs/trace.h"
#include "base/parallel/thread_pool.h"
#include "netlist/cones.h"
#include "netlist/reach.h"

namespace fstg {

/// Output cone of each fault (sorted gate ids needing re-evaluation in the
/// single-fault-propagation fast path). Stuck faults include their own
/// gate; bridges exclude the two forced gates.
std::vector<std::vector<int>> compute_fault_cones(
    const Netlist& nl, const std::vector<FaultSpec>& faults) {
  return compute_fault_cones(nl, faults, forward_reachability(nl));
}

std::vector<std::vector<int>> compute_fault_cones(
    const Netlist& nl, const std::vector<FaultSpec>& faults,
    const std::vector<BitVec>& reach) {
  require(reach.size() == static_cast<std::size_t>(nl.num_gates()),
          "compute_fault_cones: reachability matrix size mismatch");
  std::vector<std::vector<int>> cones(faults.size());
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const FaultSpec& fault = faults[f];
    std::vector<int>& cone = cones[f];
    switch (fault.kind) {
      case FaultSpec::Kind::kNone:
        break;
      case FaultSpec::Kind::kStuckGate:
      case FaultSpec::Kind::kStuckPin: {
        cone.push_back(fault.gate);
        const BitVec& r = reach[static_cast<std::size_t>(fault.gate)];
        for (std::size_t g = r.find_first(); g != BitVec::npos;
             g = r.find_first(g + 1))
          if (static_cast<int>(g) != fault.gate)
            cone.push_back(static_cast<int>(g));
        std::sort(cone.begin(), cone.end());
        break;
      }
      case FaultSpec::Kind::kBridge: {
        BitVec u = reach[static_cast<std::size_t>(fault.gate)];
        u |= reach[static_cast<std::size_t>(fault.gate2_or_pin)];
        u.reset(static_cast<std::size_t>(fault.gate));
        u.reset(static_cast<std::size_t>(fault.gate2_or_pin));
        for (std::size_t g = u.find_first(); g != BitVec::npos;
             g = u.find_first(g + 1))
          cone.push_back(static_cast<int>(g));
        break;
      }
    }
  }
  return cones;
}

std::size_t FaultSimResult::num_effective_tests() const {
  std::size_t n = 0;
  for (bool e : test_effective) n += e ? 1 : 0;
  return n;
}

std::vector<ScanPattern> to_scan_patterns(const TestSet& tests) {
  std::vector<ScanPattern> patterns;
  patterns.reserve(tests.tests.size());
  for (const auto& t : tests.tests) {
    ScanPattern p;
    p.init_state = static_cast<std::uint32_t>(t.init_state);
    p.inputs = t.inputs;
    p.input_x = t.input_x;
    patterns.push_back(std::move(p));
  }
  return patterns;
}

FaultSimResult simulate_faults(const ScanCircuit& circuit,
                               const TestSet& tests,
                               const std::vector<FaultSpec>& faults,
                               const FaultSimOptions& options) {
  robust::RunGuard guard(robust::Budget{}, "fault_sim.batch");
  FaultSimResult result =
      simulate_faults_guarded(circuit, tests, faults, guard, options);
  if (!result.complete) throw BudgetError(guard.status().message());
  return result;
}

namespace {

/// Fold the simulators' thread-confined tallies into the global registry: one
/// registry write per counter per run, so the hot loops carry only plain
/// increments.
void flush_sim_stats(const LogicSimStats& logic, const ScanSimStats& scan) {
  static const obs::Counter c_pushes = obs::counter("sim.event_pushes");
  static const obs::Counter c_pops = obs::counter("sim.event_pops");
  static const obs::Counter c_calls = obs::counter("sim.overlay_calls");
  static const obs::Counter c_unexcited = obs::counter("sim.overlay_unexcited");
  static const obs::Counter c_changed = obs::counter("sim.overlay_gates_changed");
  static const obs::Counter c_wide =
      obs::counter("sim.overlay_wide_incremental");
  static const obs::Counter c_skipped = obs::counter("scan.cycles_skipped");
  static const obs::Counter c_overlay = obs::counter("scan.cycles_overlay");
  static const obs::Counter c_full = obs::counter("scan.cycles_full");
  static const obs::Counter c_dirty_on = obs::counter("scan.dirty_activations");
  static const obs::Counter c_dirty_off = obs::counter("scan.dirty_clears");
  static const obs::Counter c_continued =
      obs::counter("fault_sim.continuations");
  static const obs::Counter c_sweeps = obs::counter("scan.packed_sweeps");
  static const obs::Counter c_packed = obs::counter("scan.packed_lanes");
  c_pushes.add(logic.event_pushes);
  c_pops.add(logic.event_pops);
  c_calls.add(logic.overlay_calls);
  c_unexcited.add(logic.overlay_unexcited);
  c_changed.add(logic.gates_changed);
  c_wide.add(logic.wide_incremental);
  c_skipped.add(scan.cycles_skipped);
  c_overlay.add(scan.cycles_overlay);
  c_full.add(scan.cycles_full);
  c_dirty_on.add(scan.dirty_activations);
  c_dirty_off.add(scan.dirty_clears);
  c_continued.add(scan.continued_faults);
  c_sweeps.add(scan.packed_sweeps);
  c_packed.add(scan.packed_lanes);
}

/// Representative gate of a fault for cone assignment (the site whose FFR
/// the fault lives in). kNone faults have no site; use gate 0 arbitrarily.
int fault_site(const FaultSpec& f) {
  switch (f.kind) {
    case FaultSpec::Kind::kNone:
      return 0;
    case FaultSpec::Kind::kStuckGate:
    case FaultSpec::Kind::kStuckPin:
      return f.gate;
    case FaultSpec::Kind::kBridge:
      return std::min(f.gate, f.gate2_or_pin);
  }
  return 0;
}

/// One batch of the engine's schedule: tests [first, first + count), one
/// per lane, or (sliced) test `first` alone, cut into segments that are the
/// batch's lanes.
struct Batch {
  std::size_t first = 0;
  std::size_t count = 0;
  bool sliced = false;
};

/// Walk the tests in order. A two-valued test of at least 2 cycles that
/// heads a batch and is at least twice as long as each of the next 63
/// tests runs alone as a sliced batch; otherwise the batch is the next 64
/// tests. Chaining makes one test per circuit far longer than the rest, so
/// without slicing its batch would run 63 idle lanes for its whole length.
std::vector<Batch> batch_layout(const std::vector<ScanPattern>& patterns) {
  std::vector<Batch> batches;
  for (std::size_t first = 0; first < patterns.size();) {
    const std::size_t count =
        std::min<std::size_t>(kWordBits, patterns.size() - first);
    const std::size_t len = patterns[first].inputs.size();
    bool sliced = len >= 2 && !patterns[first].has_x();
    for (std::size_t t = first + 1; sliced && t < first + count; ++t)
      sliced = len >= 2 * patterns[t].inputs.size();
    batches.push_back({first, sliced ? 1 : count, sliced});
    first += sliced ? 1 : count;
  }
  return batches;
}

/// Cut `test` into at most 64 segments of ceil(len / 64) cycles. Every
/// segment starts from the test's scan-in state until sliced_good_trace
/// settles the starts.
std::vector<ScanPattern> cut_segments(const ScanPattern& test) {
  const std::size_t len = test.inputs.size();
  const std::size_t seg = (len + kWordBits - 1) / kWordBits;
  std::vector<ScanPattern> segments;
  for (std::size_t at = 0; at < len; at += seg) {
    ScanPattern s;
    s.init_state = test.init_state;
    s.inputs.assign(test.inputs.begin() + static_cast<std::ptrdiff_t>(at),
                    test.inputs.begin() +
                        static_cast<std::ptrdiff_t>(std::min(len, at + seg)));
    segments.push_back(std::move(s));
  }
  return segments;
}

/// Fault-free trace of a sliced batch. Each round runs the segments and
/// sets every segment's start to its predecessor's simulated end, until no
/// start changes. Segment 0 starts at the scan-in state, so after round r
/// segments 0..r-1 are exact and the loop ends within one round per
/// segment; on exit every segment starts where its predecessor ends, so the
/// last round is the test's true fault-free trace.
GoodTrace sliced_good_trace(ScanBatchSim& sim,
                            std::vector<ScanPattern>& segments,
                            std::uint64_t& rounds) {
  for (;;) {
    GoodTrace good = sim.run_good(segments);
    ++rounds;
    bool moved = false;
    for (std::size_t j = 1; j < segments.size(); ++j) {
      const std::uint32_t end =
          lane_bits(good.final_state, static_cast<int>(j) - 1);
      if (segments[j].init_state == end) continue;
      segments[j].init_state = end;
      moved = true;
    }
    if (!moved) {
      good.sliced = true;
      return good;
    }
  }
}

/// Fault-level parallelism, and a batch's excitation index, only pay off
/// once the batch carries enough live faults to amortize the fork/join of
/// one parallel region and the index's sweep.
constexpr std::size_t kMinParallelFaults = 64;

}  // namespace

FaultSimResult simulate_faults_guarded(const ScanCircuit& circuit,
                                       const TestSet& tests,
                                       const std::vector<FaultSpec>& faults,
                                       robust::RunGuard& guard,
                                       const FaultSimOptions& options) {
  return simulate_faults_guarded(circuit, to_scan_patterns(tests), faults,
                                 guard, options);
}

FaultSimResult simulate_faults_guarded(const ScanCircuit& circuit,
                                       const std::vector<ScanPattern>& patterns,
                                       const std::vector<FaultSpec>& faults,
                                       robust::RunGuard& guard,
                                       const FaultSimOptions& options) {
  FaultSimResult result;
  result.total_faults = faults.size();
  result.detected_by.assign(faults.size(), -1);
  result.test_effective.assign(patterns.size(), false);

  static const obs::Counter c_runs = obs::counter("fault_sim.runs");
  static const obs::Counter c_batches_expected =
      obs::counter("fault_sim.batches_expected");
  static const obs::Counter c_batches = obs::counter("fault_sim.batches");
  static const obs::Counter c_simulated =
      obs::counter("fault_sim.faults_simulated");
  static const obs::Counter c_dropped = obs::counter("fault_sim.faults_dropped");
  static const obs::Counter c_sliced = obs::counter("fault_sim.sliced_tests");
  static const obs::Counter c_rounds = obs::counter("fault_sim.slice_rounds");
  static const obs::Gauge g_alive = obs::gauge("fault_sim.faults_alive");
  static const obs::Histogram h_batch_live =
      obs::histogram("fault_sim.batch_live_faults");
  c_runs.inc();
  obs::StageScope run_scope("fault_sim.run",
                            std::to_string(faults.size()) + " faults / " +
                                std::to_string(patterns.size()) + " tests");

  const std::vector<std::vector<int>> cones =
      options.reachability
          ? compute_fault_cones(circuit.comb, faults, *options.reachability)
          : compute_fault_cones(circuit.comb, faults);
  const int threads = parallel::resolve_threads(options.threads);
  const std::vector<Batch> layout = batch_layout(patterns);
  // Scheduled batch count for the live-telemetry progress pair: the batch
  // loop bumps fault_sim.batches as it goes, this is the denominator. Both
  // are monotone counters, so a telemetry reader can never see progress
  // move backwards; early exits (all faults dead, budget tripped) simply
  // leave done < expected.
  c_batches_expected.add(layout.size());

  // Cone-sorted fault schedule: group faults whose sites share a
  // fanout-free cone so consecutive faults re-touch the same overlay
  // working set. The schedule is a permutation of the simulation order
  // only — per-fault results are position-independent, so this cannot
  // change any detection.
  const ConePartition part = fanout_free_cones(circuit.comb);
  std::vector<int> fault_cone(faults.size(), 0);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const int site = fault_site(faults[f]);
    if (site >= 0 && site < circuit.comb.num_gates())
      fault_cone[f] = part.cone_id[static_cast<std::size_t>(site)];
  }
  std::vector<std::size_t> alive(faults.size());
  for (std::size_t f = 0; f < faults.size(); ++f) alive[f] = f;
  std::stable_sort(alive.begin(), alive.end(),
                   [&fault_cone](std::size_t a, std::size_t b) {
                     return fault_cone[a] < fault_cone[b];
                   });

  // One simulator per worker slot; slot 0 (the caller) doubles as the
  // good-trace simulator. The good trace itself is immutable and shared.
  std::vector<std::unique_ptr<ScanBatchSim>> sims;
  std::vector<ScanBatchSim*> slots;
  sims.reserve(static_cast<std::size_t>(threads));
  for (int s = 0; s < threads; ++s) {
    sims.push_back(std::make_unique<ScanBatchSim>(circuit));
    slots.push_back(sims.back().get());
  }

  std::vector<std::size_t> still_alive;
  std::vector<ScanPattern> segments;
  for (const Batch& b : layout) {
    if (alive.empty()) break;
    c_batches.inc();
    c_simulated.add(alive.size());  // per-batch (fault, test-batch) evals
    h_batch_live.observe(alive.size());
    std::span<const ScanPattern> batch =
        std::span<const ScanPattern>(patterns).subspan(b.first, b.count);
    GoodTrace good;
    {
      obs::Span span("fault_sim.good_trace");
      if (b.sliced) {
        c_sliced.inc();
        segments = cut_segments(patterns[b.first]);
        std::uint64_t rounds = 0;
        good = sliced_good_trace(*sims[0], segments, rounds);
        c_rounds.add(rounds);
        batch = segments;
      } else {
        good = sims[0]->run_good(batch);
      }
    }
    // One excitation/observability index per batch, shared read-only by
    // every worker; its words split across the slots (same index for any
    // split). It costs about one extra good simulation, so a batch builds
    // it only where it carries enough live faults to pay that back; below
    // the bar each fault tests excitation cycle by cycle. The index only
    // skips cycles that change no output or next state, so the results
    // are the same either way.
    if (alive.size() >= kMinParallelFaults) {
      obs::Span span("fault_sim.excitation_index");
      ScanBatchSim::build_excitation_index(good, slots);
    }

    // Each live fault is simulated independently against the shared good
    // trace; a chunk's faults go to its slot's simulator together, so their
    // diverged cycles share packed sweeps. detected_by writes are disjoint
    // per fault, so workers need no synchronization beyond the guard. A
    // tripped guard cancels every worker cooperatively (tick turns false on
    // all threads); faults it skips simply stay undetected in the partial
    // result.
    const auto simulate_range = [&](int slot, std::size_t lo, std::size_t hi) {
      std::vector<FaultJob> chunk(hi - lo);
      for (std::size_t i = lo; i < hi; ++i)
        chunk[i - lo] = {&faults[alive[i]], &cones[alive[i]]};
      sims[static_cast<std::size_t>(slot)]->run_faulty(batch, good, chunk,
                                                       &guard);
      for (std::size_t i = lo; i < hi; ++i) {
        const Word det = chunk[i - lo].detected;
        if (det != 0)
          result.detected_by[alive[i]] = static_cast<int>(
              b.first + static_cast<std::size_t>(std::countr_zero(det)));
      }
    };
    // Equal-count chunks of about 1/16 of a worker's share of the
    // cone-sorted list: neighbouring faults share cones, and the stealing
    // deques even out the uneven per-fault cost.
    const int workers = alive.size() >= kMinParallelFaults ? threads : 1;
    parallel::parallel_for(
        alive.size(),
        std::max<std::size_t>(
            1, alive.size() / (16 * static_cast<std::size_t>(workers))),
        workers, simulate_range);

    // Deterministic reduction: per-fault marks are disjoint and the
    // effectiveness/coverage aggregates are order-independent unions, so
    // the result is bit-identical for any thread count, chunking and
    // schedule permutation.
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
    c_dropped.add(alive.size() - still_alive.size());
    alive.swap(still_alive);
    g_alive.set(static_cast<std::int64_t>(alive.size()));

    if (guard.exhausted()) {
      // Partial result: detections so far stand; the rest is unknown.
      result.complete = false;
      break;
    }
  }

  LogicSimStats logic_stats;
  ScanSimStats scan_stats;
  for (const auto& sim : sims) {
    logic_stats += sim->sim_stats();
    scan_stats += sim->stats();
  }
  flush_sim_stats(logic_stats, scan_stats);
  return result;
}

}  // namespace fstg
