#include "sim/scan_sim.h"

#include <algorithm>
#include <bit>

#include "base/error.h"
#include "base/parallel/thread_pool.h"

namespace fstg {

namespace {

constexpr Word kOnes = ~Word{0};

/// Lanes 0..n-1 set (n in 0..64).
inline Word low_mask(int n) {
  return n >= kWordBits ? kOnes : (Word{1} << n) - 1;
}

/// Lanes strictly below the lowest set lane of `v` (all lanes if none set).
inline Word below_lowest(Word v) {
  if (v == 0) return kOnes;
  return (v & (~v + 1)) - 1;
}

/// `a` where `m` is set, `b` elsewhere.
inline Word blend(Word m, Word a, Word b) { return (a & m) | (b & ~m); }

/// Index of the first set bit >= `from` in a bitset of `nwords` words
/// (64*nwords if none).
inline std::size_t next_set_bit(const std::uint64_t* words, std::size_t nwords,
                                std::size_t from) {
  std::size_t w = from >> 6;
  if (w >= nwords) return nwords << 6;
  std::uint64_t cur = words[w] & (~std::uint64_t{0} << (from & 63));
  while (cur == 0) {
    if (++w >= nwords) return nwords << 6;
    cur = words[w];
  }
  return (w << 6) + static_cast<std::size_t>(std::countr_zero(cur));
}

}  // namespace

GoodTrace ScanBatchSim::run_good(std::span<const ScanPattern> batch) {
  require(!batch.empty() && batch.size() <= kWordBits,
          "batch size exceeds lane width");
  GoodTrace trace;
  trace.num_lanes = static_cast<int>(batch.size());
  for (const auto& p : batch) trace.has_x = trace.has_x || p.has_x();

  std::size_t max_len = 0;
  for (const auto& p : batch) max_len = std::max(max_len, p.inputs.size());
  // One row per cycle, sized up front: growing by doubling would hold up to
  // twice a long batch's rows at its peak.
  trace.active.reserve(max_len);
  trace.gate_values.reserve(max_len);

  const int num_pi = circuit_->num_pi;
  const int num_po = circuit_->num_po;
  const std::size_t sv = static_cast<std::size_t>(circuit_->num_sv);
  // The state entering each cycle, bit-sliced like the faulty state in
  // evaluate: one value and one X word per state variable. A lane whose
  // test has ended keeps its last state.
  std::vector<Word> state(sv, 0);
  std::vector<Word> state_x(sv, 0);
  for (std::size_t l = 0; l < batch.size(); ++l)
    for (std::size_t k = 0; k < sv; ++k)
      if ((batch[l].init_state >> k) & 1u) state[k] |= Word{1} << l;

  for (std::size_t c = 0; c < max_len; ++c) {
    Word active = 0;
    for (std::size_t l = 0; l < batch.size(); ++l)
      if (c < batch[l].inputs.size()) active |= Word{1} << l;

    // Gather the cycle's primary inputs lane by lane (an ended lane reads
    // 0); the state comes in as words.
    sim_.clear_input_x();
    for (int b = 0; b < num_pi; ++b) {
      Word w = 0;
      Word wx = 0;
      for (std::size_t l = 0; l < batch.size(); ++l) {
        if (c >= batch[l].inputs.size()) continue;
        if ((batch[l].inputs[c] >> b) & 1u) w |= Word{1} << l;
        if (c < batch[l].input_x.size() && ((batch[l].input_x[c] >> b) & 1u))
          wx |= Word{1} << l;
      }
      sim_.set_input(b, w);
      sim_.set_input_x(b, wx);
    }
    for (std::size_t k = 0; k < sv; ++k) {
      sim_.set_input(num_pi + static_cast<int>(k), state[k]);
      sim_.set_input_x(num_pi + static_cast<int>(k), state_x[k]);
    }
    sim_.run();
    // Bit-packed X plane: the per-cycle summary decides whether this
    // cycle's X plane is stored at all. sim_.last_run_had_x() is exact —
    // the state X words entering the cycle feed set_input_x, so a clean
    // flag really means every signal this cycle is defined.
    const bool cx = trace.has_x && sim_.last_run_had_x();
    if (trace.has_x) {
      trace.cycle_x.push_back(cx ? 1 : 0);
      trace.gate_x.push_back(cx ? sim_.xvals() : std::vector<Word>{});
    }
    trace.gate_values.push_back(sim_.values());
    trace.active.push_back(active);
    // The active lanes take their next state; the others keep theirs.
    for (std::size_t k = 0; k < sv; ++k) {
      const int out = num_po + static_cast<int>(k);
      state[k] = blend(active, sim_.output(out), state[k]);
      state_x[k] = blend(active, sim_.output_x(out), state_x[k]);
    }
  }
  trace.final_state = std::move(state);
  trace.final_state_x = std::move(state_x);
  return trace;
}

void ScanBatchSim::build_excitation_index(
    GoodTrace& good, std::span<ScanBatchSim* const> slots) {
  require(!slots.empty(), "excitation index needs a simulator");
  const std::size_t W = (good.active.size() + 63) / 64;
  // One word per chunk. Only the slots parallel_for hands work to get
  // scratch: at most one per word, and just the caller's when this runs
  // nested in another region (inline).
  const std::size_t used = parallel::in_parallel_region()
                               ? 1
                               : std::clamp<std::size_t>(W, 1, slots.size());
  for (std::size_t s = 0; s < used; ++s) slots[s]->prepare_index_scratch();
  const std::vector<int>& fanin_begin = slots.front()->sim_.fanin_begin();
  const std::size_t n = fanin_begin.size() - 1;
  const std::size_t entries = static_cast<std::size_t>(fanin_begin[n]);
  good.exc_words = W;
  good.exc_any1.assign(n * W, 0);
  good.exc_any0.assign(n * W, 0);
  good.exc_obs1.assign(n * W, 0);
  good.exc_obs0.assign(n * W, 0);
  good.exc_pin_base.assign(fanin_begin.begin(), fanin_begin.end());
  good.exc_pin_obs1.assign(entries * W, 0);
  good.exc_pin_obs0.assign(entries * W, 0);
  good.exc_x.assign(W, 0);
  parallel::parallel_for(
      W, 1, static_cast<int>(used),
      [&](int slot, std::size_t lo, std::size_t hi) {
        slots[static_cast<std::size_t>(slot)]->sweep_index_words(good, lo, hi);
      });
  good.exc_built = true;
}

void ScanBatchSim::prepare_index_scratch() {
  const std::vector<int>& fanin_begin = sim_.fanin_begin();
  const std::vector<int>& fanins = sim_.fanins();
  const std::size_t n = fanin_begin.size() - 1;
  if (idx_head_.size() == n) return;
  // FFR structure (same head rule as netlist/cones.cpp): a gate is a head
  // iff it drives a circuit output or has other than exactly one fanout
  // *entry* — counting entries, not distinct gates, so a gate feeding two
  // pins of the same fanout is a head too and the single-path sensitivity
  // composition below never applies to it.
  std::vector<int> fanout_entries(n, 0);
  for (int f : fanins) ++fanout_entries[static_cast<std::size_t>(f)];
  idx_head_.assign(n, 0);
  for (std::size_t g = 0; g < n; ++g)
    if (fanout_entries[g] != 1) idx_head_[g] = 1;
  for (int out : circuit_->comb.outputs())
    idx_head_[static_cast<std::size_t>(out)] = 1;
  idx_sens_.assign(n, 0);
}

void ScanBatchSim::sweep_index_words(GoodTrace& good, std::size_t w_lo,
                                     std::size_t w_hi) {
  const std::vector<GateType>& types = sim_.gate_types();
  const int* const pin_base = sim_.fanin_begin().data();
  const int* const fanins = sim_.fanins().data();
  const std::size_t n = types.size();
  const std::size_t rows = good.active.size();
  const std::size_t entries = static_cast<std::size_t>(pin_base[n]);
  // S[g] = per-lane sensitivity of g's FFR head to g, valid for the cycle
  // being swept: an interior gate's unique fanout has a higher id (the
  // netlist is topological), so the descending sweep writes S[g] before g
  // is visited. Heads never read their slot.
  Word* const S = idx_sens_.data();
  const std::uint8_t* const is_head = idx_head_.data();
  for (std::size_t c = w_lo * 64; c < std::min(rows, w_hi * 64); ++c) {
    const std::uint64_t bit = std::uint64_t{1} << (c & 63);
    const std::size_t w = c >> 6;
    if (good.cycle_has_x(c)) {
      // X cycles are candidates for every fault; no per-gate bits needed.
      good.exc_x[w] |= bit;
      continue;
    }
    const Word active = good.active[c];
    const Word* row = good.gate_values[c].data();
    for (std::size_t gi = n; gi-- > 0;) {
      const Word Sg = is_head[gi] ? active : S[gi];
      const Word v = row[gi];
      const std::size_t at = w * n + gi;
      if ((v & active) != 0) good.exc_any1[at] |= bit;
      if ((~v & active) != 0) good.exc_any0[at] |= bit;
      const std::size_t begin = static_cast<std::size_t>(pin_base[gi]);
      const std::size_t k = static_cast<std::size_t>(pin_base[gi + 1]) - begin;
      const int* fan = fanins + begin;
      if (Sg == 0) {
        // Blocked everywhere: no lane of this gate reaches its head, so its
        // obs and pin bits stay clear and so does every fanin's sensitivity.
        for (std::size_t p = 0; p < k; ++p) {
          const std::size_t f = static_cast<std::size_t>(fan[p]);
          if (!is_head[f]) S[f] = 0;
        }
        continue;
      }
      if ((v & Sg) != 0) good.exc_obs1[at] |= bit;
      if ((~v & Sg) != 0) good.exc_obs0[at] |= bit;
      if (k == 0) continue;
      const std::size_t pin_at = w * entries + begin;
      // Per-pin work (two-valued; X cycles never reach this sweep):
      //  - pin observability bits: a stuck pin deviates the gate where its
      //    driver disagrees with the stuck value AND the pin is locally
      //    sensitive (every other fanin non-controlling); the deviation
      //    changes the head where the gate is head-sensitive on such a lane.
      //  - head sensitivity pushed down to interior fanins:
      //    S_fanin = S_g AND the pin's local sensitivity.
      const auto emit = [&](std::size_t p, Word reach) {
        const Word vd = row[fan[p]];
        if ((vd & reach) != 0) good.exc_pin_obs1[pin_at + p] |= bit;
        if ((~vd & reach) != 0) good.exc_pin_obs0[pin_at + p] |= bit;
        const std::size_t f = static_cast<std::size_t>(fan[p]);
        if (!is_head[f]) S[f] = reach;
      };
      switch (types[gi]) {
        case GateType::kBuf:
        case GateType::kNot:
        case GateType::kXor:
        case GateType::kXnor:
          // A toggle on any input always toggles the output.
          for (std::size_t p = 0; p < k; ++p) emit(p, Sg);
          break;
        case GateType::kAnd:
        case GateType::kNand:
        case GateType::kOr:
        case GateType::kNor: {
          // Pin p is sensitive where every *other* fanin entry is
          // non-controlling (controlling: 0 for AND/NAND, 1 for OR/NOR).
          // Counted to two over the entries, that is where fewer than two
          // control if p does and none does otherwise.
          const Word flip = controlling_flip(types[gi]);
          Word one = 0;
          Word two = 0;
          for (std::size_t p = 0; p < k; ++p) {
            const Word c = row[fan[p]] ^ flip;
            two |= one & c;
            one |= c;
          }
          for (std::size_t p = 0; p < k; ++p)
            emit(p, Sg & ~(two | (one & ~(row[fan[p]] ^ flip))));
          break;
        }
        default:
          break;  // inputs/constants have no fanins
      }
    }
  }
}

void ScanBatchSim::candidate_bits(const GoodTrace& good, const FaultSpec& fault,
                                  std::vector<std::uint64_t>& cand) {
  cand.clear();
  if (!good.exc_built) return;
  const std::size_t W = good.exc_words;
  // Word-major index: a gate's (or fanin entry's) bitset is one word per
  // block, so consecutive words are one block stride apart.
  const std::size_t gates = good.exc_pin_base.size() - 1;
  const std::size_t entries = good.exc_pin_base.back();
  cand.assign(W, 0);
  const auto any1 = [&](int g) {
    return good.exc_any1.data() + static_cast<std::size_t>(g);
  };
  const auto any0 = [&](int g) {
    return good.exc_any0.data() + static_cast<std::size_t>(g);
  };
  const auto obs1 = [&](int g) {
    return good.exc_obs1.data() + static_cast<std::size_t>(g);
  };
  const auto obs0 = [&](int g) {
    return good.exc_obs0.data() + static_cast<std::size_t>(g);
  };
  switch (fault.kind) {
    case FaultSpec::Kind::kNone:
      return;  // never excited: all-zero bitset
    case FaultSpec::Kind::kStuckGate: {
      // Exact (for X-free cycles): s-a-v deviates in the lanes where the
      // site's fault-free value differs from v, and changes its FFR head's
      // output iff one of those lanes is head-sensitive. Cycles whose
      // deviation dies inside the FFR never become candidates.
      const std::uint64_t* sel =
          fault.value ? obs0(fault.gate) : obs1(fault.gate);
      for (std::size_t w = 0; w < W; ++w)
        cand[w] = sel[w * gates] | good.exc_x[w];
      return;
    }
    case FaultSpec::Kind::kStuckPin: {
      // Exact (for X-free cycles): the pin deviates the gate where its
      // driver differs from v while the pin is locally sensitive, and the
      // deviation reaches the FFR head where the gate is head-sensitive on
      // such a lane — precisely the per-entry pin observability bits.
      const std::size_t entry =
          static_cast<std::size_t>(good.exc_pin_base[fault.gate]) +
          static_cast<std::size_t>(fault.gate2_or_pin);
      const std::uint64_t* sel =
          (fault.value ? good.exc_pin_obs0.data() : good.exc_pin_obs1.data()) +
          entry;
      for (std::size_t w = 0; w < W; ++w)
        cand[w] = sel[w * entries] | good.exc_x[w];
      return;
    }
    case FaultSpec::Kind::kBridge: {
      // Superset: an AND-type bridge (value=false) deviates a line only
      // where it is 1 while the other line has a 0-lane, and a *single*
      // deviating line only matters where it is head-sensitive; OR-type
      // dually. When both lines can deviate in the same cycle their
      // downstream effects may interact nonlinearly (two FFR paths
      // reconverging), so head sensitivity proves nothing — any such cycle
      // stays a candidate. Per-lane coincidence is re-checked on visit.
      const int a = fault.gate;
      const int b = fault.gate2_or_pin;
      const std::uint64_t* sa = fault.value ? obs0(a) : obs1(a);
      const std::uint64_t* sb = fault.value ? obs0(b) : obs1(b);
      const std::uint64_t* da = fault.value ? any0(a) : any1(a);
      const std::uint64_t* db = fault.value ? any0(b) : any1(b);
      const std::uint64_t* oa = fault.value ? any1(a) : any0(a);
      const std::uint64_t* ob = fault.value ? any1(b) : any0(b);
      for (std::size_t w = 0; w < W; ++w) {
        const std::size_t at = w * gates;
        const std::uint64_t dev_a = da[at] & ob[at];  // line a can deviate
        const std::uint64_t dev_b = db[at] & oa[at];  // line b can deviate
        cand[w] = (sa[at] & ob[at]) | (sb[at] & oa[at]) |
                           (dev_a & dev_b) | good.exc_x[w];
      }
      return;
    }
  }
}

void ScanBatchSim::run_faulty(std::span<const ScanPattern> batch,
                              const GoodTrace& good, std::span<FaultJob> jobs,
                              robust::RunGuard* guard) {
  require(static_cast<int>(batch.size()) == good.num_lanes,
          "batch/trace size mismatch");
  for (FaultJob& job : jobs) job.detected = 0;
  runnable_.clear();
  parked_.clear();
  pack_.clear();
  pack_cursor_.clear();
  constexpr std::uint32_t kNoCursor = ~std::uint32_t{0};
  std::size_t next_job = 0;
  std::uint32_t overflow = kNoCursor;  // parked, its entries waiting for a pack
  for (;;) {
    // Fill the pack: run resumed cursors first, then start new faults, each
    // until it parks or is done. A cursor whose entries do not fit waits
    // for the next pack.
    while (overflow == kNoCursor) {
      std::uint32_t id = kNoCursor;
      if (!runnable_.empty()) {
        id = runnable_.back();
        runnable_.pop_back();
      } else if (next_job < jobs.size()) {
        if (guard != nullptr && !guard->tick(batch.size())) {
          next_job = jobs.size();  // the rest stay undetected
          continue;
        }
        if (free_cursors_.empty()) {
          free_cursors_.push_back(static_cast<std::uint32_t>(cursors_.size()));
          cursors_.emplace_back();
        }
        id = free_cursors_.back();
        free_cursors_.pop_back();
        start(cursors_[id], jobs[next_job++], good);
      } else {
        break;
      }
      Cursor& k = cursors_[id];
      if (!advance(k, good, guard)) {
        free_cursors_.push_back(id);
        continue;
      }
      if (pack_.size() + static_cast<std::size_t>(std::popcount(k.queued)) >
          static_cast<std::size_t>(kWordBits)) {
        overflow = id;
        break;
      }
      queue(id, good);
    }
    if (pack_.empty()) return;
    sweep_pack();
    for (const std::uint32_t id : parked_) {
      finish_cycle(cursors_[id], good);
      runnable_.push_back(id);
    }
    parked_.clear();
    pack_.clear();
    pack_cursor_.clear();
    if (overflow != kNoCursor) {
      queue(overflow, good);
      overflow = kNoCursor;
    }
  }
}

void ScanBatchSim::start(Cursor& k, FaultJob& job, const GoodTrace& good) {
  k.job = &job;
  const FaultSpec& fault = *job.fault;
  const std::vector<int>& cone = *job.cone;
  // Candidate-cycle jumping (build_excitation_index): while no lane has
  // diverged, cycles outside the fault's candidate bitset are provably
  // unexcited and are skipped in blocks.
  candidate_bits(good, fault, k.cand);

  // Only outputs inside the fault's cone — or that are fault sites
  // themselves (compute_fault_cones removes a bridge's two lines from its
  // cone, but the overlay stamps them directly) — can ever be stamped; the
  // per-cycle PO/next-state scans probe just those.
  k.po_cone.clear();
  k.sv_cone.clear();
  const int num_po = circuit_->num_po;
  const std::vector<int>& outs = circuit_->comb.outputs();
  const int site = fault.gate;
  const int site2 =
      fault.kind == FaultSpec::Kind::kBridge ? fault.gate2_or_pin : -1;
  for (int o = 0; o < num_po + circuit_->num_sv; ++o) {
    const int out = outs[static_cast<std::size_t>(o)];
    if (out != site && out != site2 &&
        !std::binary_search(cone.begin(), cone.end(), out))
      continue;
    if (o < num_po)
      k.po_cone.push_back(o);
    else
      k.sv_cone.push_back(o - num_po);
  }
  k.stage = good.sliced ? Cursor::Stage::kFirstPass : Cursor::Stage::kBatch;
  begin_pass(k, low_mask(good.num_lanes), -1, 0);
}

void ScanBatchSim::begin_pass(Cursor& k, Word lanes, int start_lane,
                              std::uint32_t start_state) {
  const std::size_t sv = static_cast<std::size_t>(circuit_->num_sv);
  k.lanes = lanes;
  k.cycle = 0;
  k.detected = 0;
  k.dirty = 0;
  k.fstate.assign(sv, 0);
  k.fstate_x.assign(sv, 0);
  if (start_lane >= 0) {
    for (std::size_t v = 0; v < sv; ++v)
      if ((start_state >> v) & 1u) k.fstate[v] |= Word{1} << start_lane;
    k.dirty |= Word{1} << start_lane;
    ++stats_.dirty_activations;
  }
}

bool ScanBatchSim::advance(Cursor& k, const GoodTrace& good,
                           robust::RunGuard* guard) {
  for (;;) {
    if (evaluate(k, good)) return true;
    if (!next_pass(k, good, guard)) return false;
  }
}

bool ScanBatchSim::finish(Cursor& k, Word detected) {
  k.job->detected = detected;
  return false;
}

bool ScanBatchSim::next_pass(Cursor& k, const GoodTrace& good,
                             robust::RunGuard* guard) {
  const Word test_detects = 1;
  const int last = good.num_lanes - 1;
  const Word last_lane = Word{1} << last;
  switch (k.stage) {
    case Cursor::Stage::kBatch: {
      // Scan-out comparison of the final state. Clean lanes track the good
      // trace by construction, so only the diverged lanes can differ; lanes
      // at or above the lowest detecting lane cannot change the attribution
      // (and their state may be stale), so the pass leaves them out. A
      // state bit that is X on either side is not a detection.
      Word detected = k.detected;
      for (std::size_t v = 0; v < k.fstate.size(); ++v)
        detected |= (k.fstate[v] ^ good.final_state[v]) & ~k.fstate_x[v] &
                    ~good.final_state_x[v] & k.end_dirty;
      return finish(k, detected);
    }
    case Cursor::Stage::kFirstPass: {
      // `first_det` is the lowest segment that detects if it is exact; the
      // segments that end diverged below it were all tracked to their ends.
      const Word det = k.detected | (k.end_dirty & last_lane);
      k.first_det = det != 0 ? std::countr_zero(det) : last + 1;
      k.diverged = k.end_dirty & ~last_lane;
      if (k.diverged == 0)
        return finish(k, k.first_det <= last ? test_detects : 0);
      k.ends = k.fstate;
      ++stats_.continued_faults;
      k.exact_from = 0;
      break;
    }
    case Cursor::Stage::kContinue: {
      if (k.detected != 0) return finish(k, test_detects);
      const bool dirty = k.end_dirty != 0;
      if (k.segment == last) return finish(k, dirty ? test_detects : 0);
      if (dirty)
        return continue_at(k, k.segment + 1, true,
                           lane_bits(k.fstate, k.segment), guard);
      // Above first_det the first pass tracked nothing, so the
      // continuation runs on; at or below it the first pass is exact again
      // from this boundary.
      if (k.segment + 1 > k.first_det)
        return continue_at(k, k.segment + 1, false, 0, guard);
      k.exact_from = k.segment + 1;
      break;
    }
  }
  // First-pass outcomes are exact from segment `exact_from` on, up to the
  // lowest segment that ends diverged there. Continue the fault from that
  // segment's real faulty end state until it detects, reaches the scan-out,
  // or ends a segment in the fault-free state.
  const Word ahead = k.diverged & ~low_mask(k.exact_from);
  if (ahead == 0) return finish(k, k.first_det <= last ? test_detects : 0);
  const int j = std::countr_zero(ahead);
  return continue_at(k, j + 1, true, lane_bits(k.ends, j), guard);
}

bool ScanBatchSim::continue_at(Cursor& k, int segment, bool dirty,
                               std::uint32_t from, robust::RunGuard* guard) {
  if (guard != nullptr && !guard->tick()) return finish(k, 0);
  k.stage = Cursor::Stage::kContinue;
  k.segment = segment;
  begin_pass(k, Word{1} << segment, dirty ? segment : -1, from);
  return true;
}

Word ScanBatchSim::take_overlay(Cursor& k, const Word* base,
                                const Word* base_x, Word m) {
  for (const int o : k.po_cone)
    k.detected |= sim_.overlay_output_det_diff(o, base, base_x) & m;
  // Lanes whose faulty next state differs from the good next state in ANY
  // way (value or X-ness) become dirty and take their faulty next state.
  // Tracking only detectable differences here would lose defined->X state
  // transitions and mis-simulate later cycles.
  const int num_po = circuit_->num_po;
  Word ns_diff = 0;
  for (const int v : k.sv_cone)
    ns_diff |= sim_.overlay_output_any_diff(num_po + v, base, base_x);
  ns_diff &= m;
  if (ns_diff == 0) return 0;
  for (std::size_t v = 0; v < k.fstate.size(); ++v) {
    const int out = num_po + static_cast<int>(v);
    k.fstate[v] = blend(ns_diff, sim_.overlay_output(out, base), k.fstate[v]);
    k.fstate_x[v] =
        blend(ns_diff, sim_.overlay_output_xval(out, base_x), k.fstate_x[v]);
  }
  return ns_diff;
}

bool ScanBatchSim::evaluate(Cursor& k, const GoodTrace& good) {
  const FaultSpec& fault = *k.job->fault;
  const std::size_t rows = good.active.size();
  for (std::size_t c = k.cycle; c < rows; ++c) {
    if (!k.cand.empty() && k.dirty == 0) {
      // A diverged lane evolves state every cycle, so jumping pauses while
      // `dirty` is nonzero and resumes when the lanes reconverge.
      const std::size_t next = next_set_bit(k.cand.data(), good.exc_words, c);
      if (next != c) {
        const std::size_t stop = std::min(next, rows);
        stats_.cycles_skipped += static_cast<std::uint64_t>(stop - c);
        if (stop == rows) break;
        c = stop;  // fall through: this iteration processes the candidate
      }
    }
    // Once a lane detects, only *earlier* tests can change the
    // first-detection attribution, so later lanes stop mattering.
    const Word active = good.active[c] & below_lowest(k.detected) & k.lanes;
    if (active == 0) break;  // active masks only shrink; nothing left to see

    // The good row, and its X plane (bit-packed: nullptr for the clean
    // cycles even in an X-bearing batch).
    const Word* base = good.gate_values[c].data();
    const Word* base_x = good.gate_x_of(c);
    // The diverged lanes go to a pack.
    const Word queued = k.dirty & active;

    if (queued == 0) {
      // Every tracked lane is in the fault-free state: evaluate against the
      // good trace through the event-driven overlay (no copying). An
      // unexcited cycle (the ~97% case) is decided by the seeding predicate
      // alone — for a stuck-at-gate fault one load and compare — without
      // paying the overlay's epoch/heap setup.
      if (!sim_.fault_excited(fault, base, base_x) ||
          sim_.run_cone_overlay(fault, base, base_x) == 0) {
        ++stats_.cycles_skipped;
        continue;  // not excited: outputs and next state match fault-free
      }
      ++stats_.cycles_overlay;
      const Word ns_diff = take_overlay(k, base, base_x, active);
      if ((below_lowest(k.detected) & k.lanes) == 0)
        break;  // the lowest tracked lane detected: nothing left to see
      k.dirty |= ns_diff;
      stats_.dirty_activations +=
          static_cast<std::uint64_t>(std::popcount(ns_diff));
      continue;
    }

    // A diverged step: the clean lanes, whose faulty state is the good
    // row's, take the overlay (a cycle outside the candidate bitset changes
    // no head in any active lane); the queued lanes park for a pack.
    ++stats_.cycles_full;
    const Word clean = active & ~queued;
    const std::uint64_t cand_bit =
        k.cand.empty() ? 1 : (k.cand[c >> 6] >> (c & 63)) & 1u;
    k.ns_diff = 0;
    if (clean != 0 && cand_bit != 0 &&
        sim_.fault_excited(fault, base, base_x) &&
        sim_.run_cone_overlay(fault, base, base_x) != 0) {
      k.ns_diff = take_overlay(k, base, base_x, clean);
      if ((below_lowest(k.detected) & k.lanes) == 0) break;
    }
    k.cycle = c;
    k.active = active;
    k.queued = queued;
    return true;
  }
  k.cycle = rows;
  k.end_dirty = k.dirty & below_lowest(k.detected) & k.lanes;
  return false;
}

void ScanBatchSim::finish_cycle(Cursor& k, const GoodTrace& good) {
  if ((below_lowest(k.detected) & k.lanes) == 0) {
    // The lowest tracked lane detected: the pass is over.
    k.cycle = good.active.size();
    return;
  }
  // The active lanes take their faulty next state and are dirty iff it
  // differs from the good one in value or X-ness (inactive lanes keep
  // their bits and their state).
  stats_.dirty_activations +=
      static_cast<std::uint64_t>(std::popcount(k.ns_diff & ~k.dirty));
  stats_.dirty_clears += static_cast<std::uint64_t>(
      std::popcount(k.dirty & k.active & ~k.ns_diff));
  k.dirty = (k.dirty & ~k.active) | k.ns_diff;
  ++k.cycle;
}

void ScanBatchSim::queue(std::uint32_t id, const GoodTrace& good) {
  Cursor& k = cursors_[id];
  const Word* row = good.gate_values[k.cycle].data();
  const Word* row_x = good.gate_x_of(k.cycle);
  for (Word q = k.queued; q != 0; q &= q - 1) {
    const int lane = std::countr_zero(q);
    pack_.push_back({*k.job->fault, row, row_x, lane,
                     lane_bits(k.fstate, lane), lane_bits(k.fstate_x, lane)});
    pack_cursor_.push_back(id);
  }
  parked_.push_back(id);
  stats_.packed_lanes += static_cast<std::uint64_t>(std::popcount(k.queued));
}

void ScanBatchSim::sweep_pack() {
  const int num_po = circuit_->num_po;
  const std::size_t sv = static_cast<std::size_t>(circuit_->num_sv);
  const std::vector<int>& outs = circuit_->comb.outputs();
  sim_.run_packed(pack_, circuit_->num_pi);
  ++stats_.packed_sweeps;
  // Each entry's good outputs, gathered into the entry's bit, and the
  // entries whose POs detect (both sides defined and opposite) or whose
  // next state differs in value or X-ness.
  Word det = 0;
  Word ns_diff = 0;
  for (std::size_t o = 0; o < outs.size(); ++o) {
    const int g = outs[o];
    Word gv = 0;
    Word gx = 0;
    for (std::size_t b = 0; b < pack_.size(); ++b) {
      const PackedEntry& e = pack_[b];
      gv |= ((e.row[g] >> e.lane) & 1u) << b;
      if (e.row_x != nullptr) gx |= ((e.row_x[g] >> e.lane) & 1u) << b;
    }
    const Word v = sim_.value(g);
    const Word x = sim_.xval(g);
    if (o < static_cast<std::size_t>(num_po))
      det |= (v ^ gv) & ~x & ~gx;
    else
      ns_diff |= (v ^ gv) | (x ^ gx);
  }
  for (std::size_t b = 0; b < pack_.size(); ++b) {
    Cursor& k = cursors_[pack_cursor_[b]];
    const int lane = pack_[b].lane;
    const Word bit = Word{1} << lane;
    k.detected |= ((det >> b) & 1u) << lane;
    k.ns_diff |= ((ns_diff >> b) & 1u) << lane;
    for (std::size_t v = 0; v < sv; ++v) {
      const int g = outs[static_cast<std::size_t>(num_po) + v];
      k.fstate[v] = (k.fstate[v] & ~bit) | (((sim_.value(g) >> b) & 1u) << lane);
      k.fstate_x[v] =
          (k.fstate_x[v] & ~bit) | (((sim_.xval(g) >> b) & 1u) << lane);
    }
  }
}

}  // namespace fstg
