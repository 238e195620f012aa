#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "base/robust/budget.h"
#include "netlist/netlist.h"
#include "sim/logic_sim.h"

namespace fstg {

/// One full-scan functional test as applied to hardware: scan in
/// `init_state`, apply `inputs` one per clock (observing the primary
/// outputs each clock), scan out the final state.
///
/// `input_x`, when non-empty, is a per-cycle X mask over the primary-input
/// bits (same length as `inputs`): a set bit marks that input as unknown
/// that cycle. The scanned-in state is always fully defined (the scan chain
/// loads definite values), but X inputs can drive state bits to X in later
/// cycles.
struct ScanPattern {
  std::uint32_t init_state = 0;
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> input_x;

  bool has_x() const {
    for (std::uint32_t m : input_x)
      if (m != 0) return true;
    return false;
  }
};

/// Tallies of the lazy dirty-lane machinery in run_faulty, plain increments
/// like LogicSimStats (instances are thread-confined); flushed by the
/// fault-simulation engine (counters scan.*).
struct ScanSimStats {
  std::uint64_t cycles_skipped = 0;     ///< unexcited cycles skipped whole
  std::uint64_t cycles_overlay = 0;     ///< cycles evaluated event-driven
  std::uint64_t cycles_full = 0;        ///< diverged steps, per fault
  std::uint64_t dirty_activations = 0;  ///< lanes turning dirty
  std::uint64_t dirty_clears = 0;       ///< dirty lanes reconverging
  std::uint64_t continued_faults = 0;   ///< sliced faults continued past a
                                        ///< diverged segment end
  std::uint64_t packed_sweeps = 0;      ///< packed evaluations run
  std::uint64_t packed_lanes = 0;       ///< (fault, lane) steps they carried

  ScanSimStats& operator+=(const ScanSimStats& o) {
    cycles_skipped += o.cycles_skipped;
    cycles_overlay += o.cycles_overlay;
    cycles_full += o.cycles_full;
    dirty_activations += o.dirty_activations;
    dirty_clears += o.dirty_clears;
    continued_faults += o.continued_faults;
    packed_sweeps += o.packed_sweeps;
    packed_lanes += o.packed_lanes;
    return *this;
  }
};

/// One fault of a run_faulty chunk: the fault, its output cone (sorted gate
/// ids from compute_fault_cones; never null) and, on return, its detection
/// word.
struct FaultJob {
  const FaultSpec* fault = nullptr;
  const std::vector<int>* cone = nullptr;
  Word detected = 0;
};

/// Fault-free reference of a batch of up to 64 scan patterns (one lane per
/// pattern). `gate_values[c]` is the row of cycle c: every gate's lane
/// word, so a primary output's lanes are the word of its output gate and
/// the state entering the cycle is the words of the state inputs.
/// `active[c]` masks lanes whose pattern is at least c+1 vectors long.
/// `final_state[k]` and `final_state_x[k]` hold state variable k of every
/// lane's scanned-out state (value and X mask, one word per state variable;
/// lane_bits reads one lane's state).
///
/// --- Bit-packed X plane ---------------------------------------------------
///
/// When any pattern in the batch carries X bits, `has_x` is set — but the
/// per-cycle X planes are stored only for the cycles that actually carry X:
/// `cycle_x[c]` is the per-cycle "any-X" summary, and for cycles where it is
/// zero `gate_x[c]` stays empty (meaning: all-defined). Since most batches
/// are fully defined and even X-bearing batches usually go X-free after a
/// few cycles, the common case touches only the value plane. When `has_x`
/// is false `cycle_x` and `gate_x` are not populated at all and the
/// simulation is exactly the two-valued one.
struct GoodTrace {
  std::vector<Word> active;
  std::vector<Word> final_state;
  std::vector<Word> final_state_x;
  int num_lanes = 0;
  /// Fault-free value of every gate at every cycle ([cycle][gate]). A row
  /// holds the cycle's inputs (primary inputs and the state entering the
  /// cycle) and its outputs (primary outputs and next state) as lane words,
  /// so it is both the base of the event-driven overlay and the source a
  /// packed entry of a diverged step reads its primary inputs from. Each
  /// row is a whole LogicSim::values() row: after the gate words, one
  /// two-controlling word per wide gate (kWideFanins), with which the
  /// overlay updates a wide gate in O(1). The tail of a cycle that carries
  /// X is stale; such a cycle never takes the O(1) path.
  std::vector<std::vector<Word>> gate_values;

  /// Set by the fault-simulation engine on a time-sliced batch: the lanes
  /// are the consecutive segments of one two-valued test, each starting
  /// where its predecessor ends, so the trace is that test's fault-free
  /// trace folded into rows of one segment length. run_faulty stitches the
  /// segments per fault and reports the whole test as lane 0.
  bool sliced = false;

  bool has_x = false;
  /// Per-cycle any-X summary (sized like `active` iff has_x): nonzero means
  /// cycle c was evaluated three-valued and its `gate_x` row is populated.
  std::vector<std::uint8_t> cycle_x;
  std::vector<std::vector<Word>> gate_x;

  /// --- Excitation/observability index (event-driven fast path) ------------
  ///
  /// Per-gate bitsets over cycles, bit c of word c/64, built once per batch
  /// by ScanBatchSim::build_excitation_index and shared read-only by all
  /// workers. run_faulty jumps straight between candidate cycles instead of
  /// testing excitation cycle by cycle.
  ///
  /// The bitsets are stored word-major: word w of gate g's bitset is
  /// `exc_any1[w * gates + g]` (likewise `exc_any0`, `exc_obs*`), and word
  /// w of fanin entry e's is `exc_pin_obs1[w * entries + e]`, where `gates`
  /// is exc_pin_base.size() - 1 and `entries` is exc_pin_base.back(). One
  /// word's 64 cycles thus fill one contiguous block per bitset kind, which
  /// the builder's slots write without sharing.
  ///
  /// Every bit speaks about *active* lanes only (`active[c]`): a lane whose
  /// test has ended keeps its last state for the rest of the batch, but it
  /// can neither detect a fault nor turn dirty, so its values never make a
  /// cycle a candidate.
  ///
  /// The excitation half: `exc_any1[g]` is set where any active lane of
  /// gate g's fault-free value at cycle c is 1, `exc_any0[g]` where any
  /// active lane is 0.
  ///
  /// The observability half folds in fanout-free-region propagation. For
  /// each gate the builder computes S_g(c): the per-lane sensitivity of g's
  /// FFR head to g at cycle c (active[c] when g is a head). `exc_obs1[g]`
  /// is set where any lane has value 1 AND is head-sensitive (`exc_obs0`
  /// for value 0). A stuck-at-0 at g changes its head's output exactly at
  /// obs1 cycles (stuck-at-1 at obs0) — excited-but-dies-inside-the-FFR
  /// cycles, the large majority of excited cycles, never become candidates.
  /// Pin faults get the same exactness per fanin *entry* (`exc_pin_obs1[e]`:
  /// some lane has the pin's driver at 1, the pin locally sensitive — every
  /// other fanin entry of the gate non-controlling; for an AND/OR gate the
  /// builder counts the controlling entries to two, `one` and `two`, and
  /// takes S_g & ~(two | (one & ~c_p)) with c_p the pin's controlling
  /// lanes — and the gate head-sensitive;
  /// `exc_pin_obs0` dually; `exc_pin_base[g]` maps gate g's pin p to entry
  /// exc_pin_base[g]+p). Bridges derive conservative supersets from the
  /// per-gate bits. Cycles that carry X are candidates for every fault
  /// (`exc_x`).
  std::vector<std::uint64_t> exc_any1;
  std::vector<std::uint64_t> exc_any0;
  std::vector<std::uint64_t> exc_obs1;
  std::vector<std::uint64_t> exc_obs0;
  std::vector<std::uint64_t> exc_pin_obs1;
  std::vector<std::uint64_t> exc_pin_obs0;
  std::vector<std::uint32_t> exc_pin_base;
  std::vector<std::uint64_t> exc_x;
  std::size_t exc_words = 0;
  bool exc_built = false;

  /// True iff cycle `c` carries any X (its X plane is stored).
  bool cycle_has_x(std::size_t c) const { return has_x && cycle_x[c] != 0; }
  /// Fault-free gate X plane of cycle c, or nullptr when fully defined.
  const Word* gate_x_of(std::size_t c) const {
    return cycle_has_x(c) ? gate_x[c].data() : nullptr;
  }
};

/// Applies batches of scan patterns to a full-scan circuit, fault-free or
/// with one injected fault per run_faulty job. Each lane tracks its own
/// (possibly faulty) state feedback, exactly as the physical scan test
/// would.
///
/// Detection is three-valued exact: a lane detects only where the faulty
/// and fault-free responses are *both defined* and differ (an X on either
/// side can never be claimed as a detection), while state-divergence
/// tracking uses any-difference including X-ness, so a fault that turns a
/// defined state bit into X is followed correctly even before (or without
/// ever) becoming observable.
///
/// Instances are not thread-safe (mutable simulator state); the parallel
/// fault-simulation engine keeps one simulator per worker slot and shares
/// only the immutable good trace.
class ScanBatchSim {
 public:
  explicit ScanBatchSim(const ScanCircuit& circuit)
      : circuit_(&circuit), sim_(circuit.comb) {}

  /// Batch size must be 1..64. The span is only read for the duration of
  /// the call (a window over the full pattern list is fine — no copy).
  GoodTrace run_good(std::span<const ScanPattern> batch);

  /// Simulate the batch with each fault of `jobs` injected, setting the
  /// job's `detected`: lane l is set iff lane l's pattern detects the fault
  /// (PO mismatch at any active cycle, or scanned-out state mismatch).
  /// Attribution-exact early exits: once a lane detects, only lower lanes
  /// (earlier tests) are tracked.
  ///
  /// Cycles in which a fault's tracked lanes are all in the fault-free
  /// state are evaluated event-driven against the good trace through the
  /// fault's cone: no copying of good values, only gates whose fanins
  /// changed are re-evaluated, and unexcited cycles are skipped whole (in
  /// blocks, where the trace carries an excitation index). A cycle in
  /// which some tracked lane has diverged takes its clean lanes through the
  /// same overlay and queues its diverged lanes as pack entries (fault,
  /// lane, cycle, faulty state). Each fault is a cursor over its evaluation
  /// passes that parks at every diverged cycle; parked cursors' entries
  /// fill a pack of up to 64 from any faults, and once it is full or no
  /// cursor can run on, the pack takes one LogicSim::run_packed sweep and
  /// its cursors resume, before new faults start. Packing changes no
  /// fault's result or dirty-set evolution, only how many sweeps they
  /// share.
  ///
  /// On a sliced trace (`good.sliced`) the lanes are segments of one test,
  /// and lane 0 of a job's result is set iff that whole test detects the
  /// fault. A first pass runs every segment from its fault-free start;
  /// segment 0 is exact, and segment k+1 is exact iff segment k is exact
  /// and ends in the fault-free state. A PO mismatch in an exact segment
  /// detects, and so does the last segment's end-state mismatch (the
  /// scan-out); an earlier segment ending in a mismatch has only diverged.
  /// When a segment diverges below every exact detection, the fault is
  /// continued from that segment's real faulty end state, one segment per
  /// pass, until it detects, reaches the scan-out, or ends a segment in
  /// the fault-free state where the first pass is exact again.
  ///
  /// `guard`, if given, is ticked once per job as it starts (weighted by
  /// the batch width) and once per continuation pass of a sliced trace; a
  /// trip leaves the jobs not yet started, and a fault whose continuation
  /// it stops, undetected.
  void run_faulty(std::span<const ScanPattern> batch, const GoodTrace& good,
                  std::span<FaultJob> jobs, robust::RunGuard* guard = nullptr);

  /// Build the excitation/observability index on `good` (one backward
  /// sensitivity sweep per cycle over the netlist — roughly the cost of one
  /// extra good simulation per batch). The engine calls this once per
  /// batch; the index is then shared read-only by every worker's
  /// run_faulty.
  ///
  /// No cycle's sweep depends on another's, so the index's 64-cycle words
  /// are handed out one per chunk across one parallel_for slot per
  /// simulator in `slots` (all over the same circuit; slot s sweeps with
  /// slots[s]'s scratch). Each word's block is written by exactly one slot,
  /// so the index is the same for any number of slots; a single slot, or a
  /// one-word batch, builds on the calling thread.
  static void build_excitation_index(GoodTrace& good,
                                     std::span<ScanBatchSim* const> slots);

  const ScanSimStats& stats() const { return stats_; }
  const LogicSimStats& sim_stats() const { return sim_.stats(); }

 private:
  /// The resumable state of one fault of a run_faulty chunk: its current
  /// evaluation pass (over the lanes `lanes`, paused at `cycle` while
  /// parked) and, on a sliced trace, where the segment stitching stands.
  struct Cursor {
    enum class Stage : std::uint8_t {
      kBatch,      ///< the one pass of an unsliced batch
      kFirstPass,  ///< a sliced trace's pass over every segment
      kContinue,   ///< a sliced trace's pass over segment `segment`
    };
    FaultJob* job = nullptr;
    Stage stage = Stage::kBatch;
    /// The fault's candidate cycles (candidate_bits), or empty.
    std::vector<std::uint64_t> cand;
    /// The primary outputs and state variables inside the fault's cone.
    std::vector<int> po_cone;
    std::vector<int> sv_cone;
    // The pass.
    Word lanes = 0;
    std::size_t cycle = 0;
    Word detected = 0;
    /// Tracked lanes whose faulty state differs from the good trace's in
    /// value or X-ness; `fstate` / `fstate_x` hold every lane's faulty state
    /// bit-sliced (word k: state variable k), meaningful in these lanes.
    Word dirty = 0;
    std::vector<Word> fstate;
    std::vector<Word> fstate_x;
    /// At the end of the pass: the dirty tracked lanes below the lowest
    /// detection.
    Word end_dirty = 0;
    // The parked cycle: its tracked active lanes, the ones queued as pack
    // entries, and the lanes whose next state differs from the good one.
    Word active = 0;
    Word queued = 0;
    Word ns_diff = 0;
    // Sliced stitching (see run_faulty).
    int first_det = 0;
    Word diverged = 0;
    int exact_from = 0;
    int segment = 0;
    std::vector<Word> ends;  ///< the first pass's fstate
  };

  /// Set cursor `k` up for `job` and begin its first pass.
  void start(Cursor& k, FaultJob& job, const GoodTrace& good);
  /// Begin a pass over `lanes`; lane `start_lane`, unless -1, enters cycle
  /// 0 in the two-valued faulty state `start_state`.
  void begin_pass(Cursor& k, Word lanes, int start_lane,
                  std::uint32_t start_state);
  /// Run `k` until it parks (true; its diverged lanes in `k.queued`) or its
  /// fault is done (false; the job's `detected` is set).
  bool advance(Cursor& k, const GoodTrace& good, robust::RunGuard* guard);
  /// The evaluation pass: run cycles from `k.cycle` until a diverged cycle
  /// parks it (true) or the pass ends (false, `k.end_dirty` set).
  bool evaluate(Cursor& k, const GoodTrace& good);
  /// Fold the overlay of the current cycle into `k` over the lanes `m`:
  /// their PO detections into k.detected, and their faulty next state into
  /// k.fstate where it differs from the good one; returns those lanes.
  Word take_overlay(Cursor& k, const Word* base, const Word* base_x, Word m);
  /// Finish a parked cycle once the pack holding its entries has run.
  void finish_cycle(Cursor& k, const GoodTrace& good);
  /// After a pass: begin the next one (true) or finish the fault (false).
  bool next_pass(Cursor& k, const GoodTrace& good, robust::RunGuard* guard);
  /// Continue a sliced fault at segment `segment` (see run_faulty).
  bool continue_at(Cursor& k, int segment, bool dirty, std::uint32_t from,
                   robust::RunGuard* guard);
  /// Finish the fault with detection word `detected`; returns false.
  static bool finish(Cursor& k, Word detected);
  /// Queue cursor `id`'s parked lanes as pack entries.
  void queue(std::uint32_t id, const GoodTrace& good);
  /// One packed sweep over the queued entries; writes each entry's PO
  /// detection, next state and next-state difference into its cursor.
  void sweep_pack();

  /// Compute the FFR head flags and size the index sweep's scratch (once
  /// per simulator; build_excitation_index calls it on the calling thread
  /// so the parallel sweep never allocates).
  void prepare_index_scratch();
  /// Sweep the cycles of index words [w_lo, w_hi) of `good`, setting bits
  /// only in those words' blocks of the per-gate and per-pin bitsets.
  void sweep_index_words(GoodTrace& good, std::size_t w_lo, std::size_t w_hi);

  /// Materialize the excitation-candidate bitset for `fault` from the good
  /// trace's index into `cand`; leaves it empty when the index is not built
  /// (run_faulty then tests excitation cycle by cycle).
  static void candidate_bits(const GoodTrace& good, const FaultSpec& fault,
                             std::vector<std::uint64_t>& cand);

  const ScanCircuit* circuit_;
  LogicSim sim_;
  ScanSimStats stats_;
  // run_faulty scratch (member state so the hot fault loop seldom
  // allocates): a pool of cursors with its free list, the cursors runnable
  // and parked, and the pack (entries with their cursors).
  std::vector<Cursor> cursors_;
  std::vector<std::uint32_t> free_cursors_;
  std::vector<std::uint32_t> runnable_;
  std::vector<std::uint32_t> parked_;
  std::vector<PackedEntry> pack_;
  std::vector<std::uint32_t> pack_cursor_;
  // Index-sweep scratch (prepare_index_scratch): FFR head flags and the
  // per-cycle head sensitivity S. The sweep reads the netlist from sim_'s
  // CSR.
  std::vector<std::uint8_t> idx_head_;
  std::vector<Word> idx_sens_;
};

}  // namespace fstg
