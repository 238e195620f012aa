#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fstg::store {

/// --- Append-only run ledger ----------------------------------------------
///
/// One JSONL file (`runs.jsonl`, by default under the cache directory)
/// holding one schema-versioned record per pipeline or bench run: what ran,
/// against which circuit and configuration, how long each stage took, the
/// key counters, and how it exited. The ledger is the durable half of the
/// telemetry layer — the live `--telemetry-out` file shows the run in
/// flight, the ledger remembers it afterwards, and `fstg report` aggregates
/// the history into timing trends and regression verdicts.
///
/// Appends go through the store's crash-safe path: the whole file is read,
/// the new line added, and the result atomically rewritten under the
/// advisory `<path>.lock` flock. Ledgers are small (one line per run), so
/// the rewrite costs nothing and buys the same guarantee as every other
/// durable file here: a reader sees complete records or nothing, never a
/// torn tail. Lines that fail to parse (e.g. a record appended by a future
/// schema) are skipped on read and counted under `ledger.corrupt_lines` —
/// a damaged history degrades, it never takes a run down.

/// One stage's accumulated wall time within a run (from obs::stage_timings).
struct RunStage {
  std::string stage;
  double ms = 0.0;
};

/// One ledger line (schema fstg.run.v1, schemas/fstg_run.schema.json).
struct RunRecord {
  std::uint64_t run = 0;        ///< ledger-assigned, dense from 0
  std::string timestamp;        ///< ISO-8601 UTC, assigned at append
  std::string tool;             ///< "fstg", "fstg_bench", ...
  std::string command;          ///< subcommand / bench mode
  std::string circuit;          ///< "" when the run is not circuit-scoped
  std::string config_hash;      ///< 16 hex digits (KeyBuilder digest)
  int exit_code = 0;
  double wall_ms = 0.0;
  std::uint64_t budget_trips = 0;
  std::vector<RunStage> stages;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Render one record as a single JSONL line (newline-terminated), schema
/// fstg.run.v1. Self-checking: appenders run obs::check_json on it before
/// writing.
std::string run_record_to_json(const RunRecord& record);

/// Parse one ledger line. False (with *error) on malformed or wrong-schema
/// input; the caller decides whether that is fatal (tests) or skippable
/// (ledger reads).
bool parse_run_record(const std::string& line, RunRecord* record,
                      std::string* error);

class Ledger {
 public:
  explicit Ledger(std::string path);

  const std::string& path() const { return path_; }

  /// Append `record` (its `run` and `timestamp` are assigned here: run ids
  /// are dense from 0, max-existing + 1). Returns false with *error on
  /// validation or filesystem failure; the ledger file is never left torn.
  bool append(RunRecord record, std::string* error);

  /// All parseable records, in file order. Corrupt lines are skipped and
  /// counted (ledger.corrupt_lines); a missing file reads as empty.
  std::vector<RunRecord> read() const;

 private:
  std::string path_;
};

/// Resolve the ledger path from the CLI flags: an explicit --ledger wins;
/// else `runs.jsonl` inside the open global store's directory; else empty
/// (no ledger configured — appends are skipped).
std::string resolve_ledger_path(const std::string& explicit_path);

}  // namespace fstg::store
