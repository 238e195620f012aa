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
  int max_fanins = 0;
  for (std::size_t g = 0; g < n; ++g)
    max_fanins = std::max(max_fanins, fanin_begin[g + 1] - fanin_begin[g]);
  for (int f : fanins) ++fanout_entries[static_cast<std::size_t>(f)];
  idx_head_.assign(n, 0);
  for (std::size_t g = 0; g < n; ++g)
    if (fanout_entries[g] != 1) idx_head_[g] = 1;
  for (int out : circuit_->comb.outputs())
    idx_head_[static_cast<std::size_t>(out)] = 1;
  idx_sens_.assign(n, 0);
  idx_prefix_.assign(static_cast<std::size_t>(max_fanins) + 1, 0);
  idx_suffix_.assign(static_cast<std::size_t>(max_fanins) + 1, 0);
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
  Word* const prefix = idx_prefix_.data();
  Word* const suffix = idx_suffix_.data();
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
        case GateType::kNand: {
          // Pin p is sensitive where every *other* fanin is 1.
          prefix[0] = Sg;
          for (std::size_t p = 0; p < k; ++p)
            prefix[p + 1] = prefix[p] & row[fan[p]];
          suffix[k] = kOnes;
          for (std::size_t p = k; p-- > 0;)
            suffix[p] = suffix[p + 1] & row[fan[p]];
          for (std::size_t p = 0; p < k; ++p)
            emit(p, prefix[p] & suffix[p + 1]);
          break;
        }
        case GateType::kOr:
        case GateType::kNor: {
          // Pin p is sensitive where every *other* fanin is 0.
          prefix[0] = 0;
          for (std::size_t p = 0; p < k; ++p)
            prefix[p + 1] = prefix[p] | row[fan[p]];
          suffix[k] = 0;
          for (std::size_t p = k; p-- > 0;)
            suffix[p] = suffix[p + 1] | row[fan[p]];
          for (std::size_t p = 0; p < k; ++p)
            emit(p, Sg & ~(prefix[p] | suffix[p + 1]));
          break;
        }
        default:
          break;  // inputs/constants have no fanins
      }
    }
  }
}

const std::uint64_t* ScanBatchSim::candidate_bits(const GoodTrace& good,
                                                  const FaultSpec& fault) {
  if (!good.exc_built) return nullptr;
  const std::size_t W = good.exc_words;
  // Word-major index: a gate's (or fanin entry's) bitset is one word per
  // block, so consecutive words are one block stride apart.
  const std::size_t gates = good.exc_pin_base.size() - 1;
  const std::size_t entries = good.exc_pin_base.back();
  scratch_cand_.assign(W, 0);
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
      return scratch_cand_.data();  // never excited: all-zero bitset
    case FaultSpec::Kind::kStuckGate: {
      // Exact (for X-free cycles): s-a-v deviates in the lanes where the
      // site's fault-free value differs from v, and changes its FFR head's
      // output iff one of those lanes is head-sensitive. Cycles whose
      // deviation dies inside the FFR never become candidates.
      const std::uint64_t* sel =
          fault.value ? obs0(fault.gate) : obs1(fault.gate);
      for (std::size_t w = 0; w < W; ++w)
        scratch_cand_[w] = sel[w * gates] | good.exc_x[w];
      return scratch_cand_.data();
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
        scratch_cand_[w] = sel[w * entries] | good.exc_x[w];
      return scratch_cand_.data();
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
        scratch_cand_[w] = (sa[at] & ob[at]) | (sb[at] & oa[at]) |
                           (dev_a & dev_b) | good.exc_x[w];
      }
      return scratch_cand_.data();
    }
  }
  return nullptr;
}

Word ScanBatchSim::run_faulty(std::span<const ScanPattern> batch,
                              const GoodTrace& good, const FaultSpec& fault,
                              const std::vector<int>* cone,
                              robust::RunGuard* guard) {
  require(static_cast<int>(batch.size()) == good.num_lanes,
          "batch/trace size mismatch");
  if (good.sliced) return run_sliced(batch, good, fault, cone, guard);
  Word detected = evaluate(good, fault, cone,
                           low_mask(static_cast<int>(batch.size())), -1, 0);

  // Scan-out comparison of the final state. Clean lanes track the good
  // trace by construction, so only the diverged lanes can differ; lanes at
  // or above the lowest detecting lane cannot change the attribution (and
  // their state may be stale), so evaluate leaves them out. A state bit
  // that is X on either side is not a detection.
  for (std::size_t k = 0; k < fstate_.size(); ++k)
    detected |= (fstate_[k] ^ good.final_state[k]) & ~fstate_x_[k] &
                ~good.final_state_x[k] & end_dirty_;
  return detected;
}

Word ScanBatchSim::run_sliced(std::span<const ScanPattern> segments,
                              const GoodTrace& good, const FaultSpec& fault,
                              const std::vector<int>* cone,
                              robust::RunGuard* guard) {
  const Word test_detects = 1;
  const int last = static_cast<int>(segments.size()) - 1;
  const Word last_lane = Word{1} << last;

  // First pass: every segment from its fault-free start. `first_det` is
  // the lowest segment that detects if it is exact; the segments that end
  // diverged below it were all tracked to their ends.
  const Word po = evaluate(good, fault, cone, low_mask(last + 1), -1, 0);
  const Word det = po | (end_dirty_ & last_lane);
  const int first_det = det != 0 ? std::countr_zero(det) : last + 1;
  const Word diverged = end_dirty_ & ~last_lane;
  if (diverged == 0) return first_det <= last ? test_detects : 0;
  scratch_ends_ = fstate_;
  ++stats_.continued_faults;

  // First-pass outcomes are exact from segment `exact_from` on, up to the
  // lowest segment that ends diverged there. Continue the fault from that
  // segment's real faulty end state until it detects, reaches the scan-out,
  // or ends a segment in the fault-free state. At or below first_det the
  // first pass is exact again from that boundary; above it the first pass
  // tracked nothing, so the continuation runs on.
  int exact_from = 0;
  for (;;) {
    const Word ahead = diverged & ~low_mask(exact_from);
    if (ahead == 0) return first_det <= last ? test_detects : 0;
    int j = std::countr_zero(ahead);
    std::uint32_t from = lane_bits(scratch_ends_, j);
    bool dirty = true;
    for (++j;; ++j) {
      if (guard != nullptr && !guard->tick()) return 0;
      if (evaluate(good, fault, cone, Word{1} << j, dirty ? j : -1, from) != 0)
        return test_detects;
      dirty = end_dirty_ != 0;
      if (j == last) return dirty ? test_detects : 0;
      if (dirty) {
        from = lane_bits(fstate_, j);
      } else if (j + 1 <= first_det) {
        exact_from = j + 1;
        break;
      }
    }
  }
}

Word ScanBatchSim::evaluate(const GoodTrace& good, const FaultSpec& fault,
                            const std::vector<int>* cone, Word lanes,
                            int start_lane, std::uint32_t start_state) {
  Word detected = 0;
  const int num_pi = circuit_->num_pi;
  const int num_po = circuit_->num_po;
  const int num_sv = circuit_->num_sv;
  const std::vector<int>& ins = circuit_->comb.inputs();
  const std::vector<int>& outs = circuit_->comb.outputs();
  const std::size_t sv = static_cast<std::size_t>(num_sv);

  // Lazily tracked faulty state, bit-sliced: word k of fstate_ (and of its
  // X mask fstate_x_) holds state variable k of every lane, meaningful only
  // in the lanes of `dirty` (faulty state differs from the good trace in
  // value or X-ness); every other lane's faulty state IS the good row's. A
  // fault that never perturbs the state (the dominant case, thanks to
  // cycle skipping) costs no state work per cycle.
  fstate_.assign(sv, 0);
  fstate_x_.assign(sv, 0);
  Word dirty = 0;
  if (start_lane >= 0) {
    for (std::size_t k = 0; k < sv; ++k)
      if ((start_state >> k) & 1u) fstate_[k] |= Word{1} << start_lane;
    dirty |= Word{1} << start_lane;
    ++stats_.dirty_activations;
  }

  // Candidate-cycle jumping (build_excitation_index): while no
  // lane has diverged, cycles outside the fault's candidate bitset are
  // provably unexcited and are skipped in blocks — the iteration jumps from
  // set bit to set bit instead of testing excitation cycle by cycle. A
  // diverged lane evolves state every cycle, so jumping pauses while
  // `dirty` is nonzero and resumes when the lanes reconverge.
  const std::uint64_t* cand =
      cone != nullptr ? candidate_bits(good, fault) : nullptr;

  // Only outputs inside the fault's cone — or that are fault sites
  // themselves (compute_fault_cones removes a bridge's two lines from its
  // cone, but the overlay stamps them directly) — can ever be stamped; the
  // per-cycle PO/next-state scans probe just those.
  scratch_po_cone_.clear();
  scratch_sv_cone_.clear();
  if (cone != nullptr) {
    const int site = fault.gate;
    const int site2 =
        fault.kind == FaultSpec::Kind::kBridge ? fault.gate2_or_pin : -1;
    for (int k = 0; k < num_po + num_sv; ++k) {
      const int out = outs[static_cast<std::size_t>(k)];
      if (out != site && out != site2 &&
          !std::binary_search(cone->begin(), cone->end(), out))
        continue;
      if (k < num_po)
        scratch_po_cone_.push_back(k);
      else
        scratch_sv_cone_.push_back(k - num_po);
    }
  }

  for (std::size_t c = 0; c < good.active.size(); ++c) {
    if (cand != nullptr && dirty == 0) {
      const std::size_t next = next_set_bit(cand, good.exc_words, c);
      if (next != c) {
        const std::size_t stop = std::min(next, good.active.size());
        stats_.cycles_skipped += static_cast<std::uint64_t>(stop - c);
        if (stop == good.active.size()) break;
        c = stop;  // fall through: this iteration processes the candidate
      }
    }
    // Once a lane detects, only *earlier* tests can change the
    // first-detection attribution, so later lanes stop mattering.
    const Word relevant = below_lowest(detected) & lanes;
    const Word active = good.active[c] & relevant;
    if (active == 0) break;  // active masks only shrink; nothing left to see

    // The good row, and its X plane (bit-packed: nullptr for the clean
    // cycles even in an X-bearing batch).
    const Word* base = good.gate_values[c].data();
    const Word* base_x = good.gate_x_of(c);
    const auto good_x = [base_x](int g) {
      return base_x == nullptr ? Word{0} : base_x[g];
    };

    if ((dirty & active) == 0 && cone != nullptr) {
      // Every tracked lane is in the fault-free state: evaluate against the
      // good trace through the event-driven overlay (no copying). An
      // unexcited cycle (the ~97% case) is decided by the seeding predicate
      // alone — for a stuck-at-gate fault one load and compare — without
      // paying the overlay's epoch/heap setup.
      if (!sim_.fault_excited(fault, base, base_x)) {
        ++stats_.cycles_skipped;
        continue;  // not excited: outputs and next state match fault-free
      }
      if (sim_.run_cone_overlay(fault, base, base_x) == 0) {
        ++stats_.cycles_skipped;
        continue;
      }
      ++stats_.cycles_overlay;
      for (int k : scratch_po_cone_)
        detected |= sim_.overlay_output_det_diff(k, base, base_x) & active;
      if ((below_lowest(detected) & lanes) == 0)
        break;  // the lowest tracked lane detected: nothing left to see
      // Lanes whose faulty next state differs from the good next state in
      // ANY way (value or X-ness) become dirty and take their faulty next
      // state. Tracking only detectable differences here would lose
      // defined->X state transitions and mis-simulate later cycles.
      Word ns_diff = 0;
      for (int k : scratch_sv_cone_)
        ns_diff |= sim_.overlay_output_any_diff(num_po + k, base, base_x);
      ns_diff &= active;
      if (ns_diff == 0) continue;
      for (std::size_t k = 0; k < sv; ++k) {
        const int out = num_po + static_cast<int>(k);
        fstate_[k] = blend(ns_diff, sim_.overlay_output(out, base), fstate_[k]);
        fstate_x_[k] =
            blend(ns_diff, sim_.overlay_output_xval(out, base_x), fstate_x_[k]);
      }
      dirty |= ns_diff;
      stats_.dirty_activations +=
          static_cast<std::uint64_t>(std::popcount(ns_diff));
      continue;
    }

    // A diverged (or cone-less) cycle evaluates the whole faulty machine,
    // its inputs loaded as words: the primary inputs from the good row, the
    // state from the good row outside the dirty lanes and from the faulty
    // state words inside them. A dirty lane can carry an X state bit into
    // a cycle whose good row is X-free, so the state X words are loaded
    // whatever the row.
    ++stats_.cycles_full;
    sim_.clear_input_x();
    for (int b = 0; b < num_pi; ++b) {
      const int g = ins[static_cast<std::size_t>(b)];
      sim_.set_input(b, base[g]);
      if (base_x != nullptr) sim_.set_input_x(b, base_x[g]);
    }
    for (std::size_t k = 0; k < sv; ++k) {
      const int i = num_pi + static_cast<int>(k);
      const int g = ins[static_cast<std::size_t>(i)];
      sim_.set_input(i, blend(dirty, fstate_[k], base[g]));
      sim_.set_input_x(i, blend(dirty, fstate_x_[k], good_x(g)));
    }
    sim_.run(fault);
    for (int k = 0; k < num_po; ++k) {
      const int g = outs[static_cast<std::size_t>(k)];
      // Detection requires both responses defined; X on either side masks
      // the lane out for this output.
      const Word diff = (sim_.value(g) ^ base[g]) & ~sim_.xval(g) & ~good_x(g);
      detected |= diff & active;
    }
    if ((below_lowest(detected) & lanes) == 0)
      break;  // the lowest tracked lane detected: nothing left to see
    // The good row's next-state outputs are every active lane's good next
    // state: the active lanes take their faulty next state and are dirty
    // iff it differs in value or X-ness (inactive lanes keep their bits
    // and their state).
    Word ns_diff = 0;
    for (std::size_t k = 0; k < sv; ++k) {
      const int g = outs[static_cast<std::size_t>(num_po) + k];
      const Word v = sim_.value(g);
      const Word x = sim_.xval(g);
      ns_diff |= (v ^ base[g]) | (x ^ good_x(g));
      fstate_[k] = blend(active, v, fstate_[k]);
      fstate_x_[k] = blend(active, x, fstate_x_[k]);
    }
    ns_diff &= active;
    stats_.dirty_activations +=
        static_cast<std::uint64_t>(std::popcount(ns_diff & ~dirty));
    stats_.dirty_clears +=
        static_cast<std::uint64_t>(std::popcount(dirty & active & ~ns_diff));
    dirty = (dirty & ~active) | ns_diff;
  }

  end_dirty_ = dirty & below_lowest(detected) & lanes;
  return detected;
}

}  // namespace fstg
