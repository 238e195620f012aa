#pragma once

#include <string>

#include "fsm/encoding.h"
#include "fsm/state_table.h"
#include "kiss/kiss2.h"
#include "netlist/netlist.h"

namespace fstg {

/// Rebuild the *completed* functional state table (2^sv states, state index
/// = state code) by exhaustively simulating the synthesized circuit, 64
/// minterms per LogicSim pass. This is the table the paper's Tables 4/5/7
/// operate on: its state counts are powers of two because the
/// implementation realizes every code.
/// If `fsm`/`enc` are given, used state codes get their symbolic names.
StateTable read_back_table(const ScanCircuit& circuit,
                           const Kiss2Fsm* fsm = nullptr,
                           const Encoding* enc = nullptr);

/// Check a circuit's read-back `table` against the symbolic machine on
/// every *specified* transition: next-state codes must match exactly and
/// specified output bits must match ('-' bits are free). On mismatch, fills
/// `message` and returns false.
bool circuit_matches_fsm(const StateTable& table, const Kiss2Fsm& fsm,
                         const Encoding& enc, std::string* message = nullptr);

}  // namespace fstg
