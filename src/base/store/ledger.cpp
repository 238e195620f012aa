#include "base/store/ledger.h"

#include <ctime>
#include <sstream>

#include "base/obs/metrics.h"
#include "base/obs/schema.h"
#include "base/store/fs_util.h"
#include "base/store/store.h"

namespace fstg::store {

namespace {

std::string iso8601_utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Split on '\n', dropping empty lines (the file is newline-terminated).
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

}  // namespace

std::string run_record_to_json(const RunRecord& r) {
  using obs::json_quote;
  std::ostringstream os;
  os.precision(3);
  os << std::fixed;
  os << "{\"schema\": \"fstg.run.v1\""
     << ", \"run\": " << r.run
     << ", \"timestamp\": " << json_quote(r.timestamp)
     << ", \"tool\": " << json_quote(r.tool)
     << ", \"command\": " << json_quote(r.command)
     << ", \"circuit\": " << json_quote(r.circuit)
     << ", \"config_hash\": " << json_quote(r.config_hash)
     << ", \"exit_code\": " << r.exit_code
     << ", \"wall_ms\": " << r.wall_ms
     << ", \"budget_trips\": " << r.budget_trips
     << ", \"stages\": [";
  for (std::size_t i = 0; i < r.stages.size(); ++i)
    os << (i ? ", " : "") << "{\"stage\": " << json_quote(r.stages[i].stage)
       << ", \"ms\": " << r.stages[i].ms << "}";
  os << "], \"counters\": [";
  for (std::size_t i = 0; i < r.counters.size(); ++i)
    os << (i ? ", " : "") << "{\"name\": " << json_quote(r.counters[i].first)
       << ", \"value\": " << r.counters[i].second << "}";
  os << "]}\n";
  return os.str();
}

bool parse_run_record(const std::string& line, RunRecord* record,
                      std::string* error) {
  obs::Json doc;
  if (!obs::check_json("fstg_run", line, &doc, error)) return false;
  RunRecord r;
  r.run = static_cast<std::uint64_t>(doc.num("run"));
  r.timestamp = doc.str("timestamp");
  r.tool = doc.str("tool");
  r.command = doc.str("command");
  r.circuit = doc.str("circuit");
  r.config_hash = doc.str("config_hash");
  r.exit_code = static_cast<int>(doc.num("exit_code"));
  r.wall_ms = doc.num("wall_ms");
  r.budget_trips = static_cast<std::uint64_t>(doc.num("budget_trips"));
  for (const obs::Json& s : doc.find("stages")->items)
    r.stages.push_back({s.str("stage"), s.num("ms")});
  for (const obs::Json& c : doc.find("counters")->items)
    r.counters.emplace_back(c.str("name"),
                            static_cast<std::uint64_t>(c.num("value")));
  *record = std::move(r);
  return true;
}

Ledger::Ledger(std::string path) : path_(std::move(path)) {}

std::vector<RunRecord> Ledger::read() const {
  static const obs::Counter c_corrupt = obs::counter("ledger.corrupt_lines");
  std::vector<RunRecord> records;
  std::string text;
  std::string error;
  if (!read_file(path_, &text, &error)) return records;  // missing == empty
  for (const std::string& line : split_lines(text)) {
    RunRecord r;
    if (parse_run_record(line, &r, &error)) {
      records.push_back(std::move(r));
    } else {
      c_corrupt.inc();
    }
  }
  return records;
}

bool Ledger::append(RunRecord record, std::string* error) {
  static const obs::Counter c_appends = obs::counter("ledger.appends");
  static const obs::Counter c_errors = obs::counter("ledger.append_errors");
  if (path_.empty()) {
    if (error) *error = "ledger path is empty";
    c_errors.inc();
    return false;
  }
  // Serialize appenders the same way the store serializes writers; the
  // whole read-assign-rewrite must be one critical section or two racing
  // runs could claim the same run id.
  FileLock lock(path_ + ".lock");
  if (!lock.locked()) {
    if (error) *error = "cannot take ledger lock " + path_ + ".lock";
    c_errors.inc();
    return false;
  }
  std::string text;
  std::string read_error;
  read_file(path_, &text, &read_error);  // missing file reads as empty
  std::uint64_t next_run = 0;
  static const obs::Counter c_corrupt = obs::counter("ledger.corrupt_lines");
  std::vector<std::string> kept;
  for (const std::string& line : split_lines(text)) {
    RunRecord r;
    std::string line_error;
    if (parse_run_record(line, &r, &line_error)) {
      if (r.run >= next_run) next_run = r.run + 1;
      kept.push_back(line);
    } else {
      // A torn or foreign line is dropped from the rewrite — the ledger
      // self-repairs on the next append, like the store's corrupt blobs.
      c_corrupt.inc();
    }
  }
  record.run = next_run;
  if (record.timestamp.empty()) record.timestamp = iso8601_utc_now();
  const std::string line = run_record_to_json(record);
  if (!obs::check_json("fstg_run", line, nullptr, error)) {
    c_errors.inc();
    return false;
  }
  std::string out;
  for (const std::string& l : kept) {
    out += l;
    out.push_back('\n');
  }
  out += line;
  if (!atomic_write_file(path_, out, error)) {
    c_errors.inc();
    return false;
  }
  c_appends.inc();
  return true;
}

std::string resolve_ledger_path(const std::string& explicit_path) {
  if (!explicit_path.empty()) return explicit_path;
  Store* store = global_store();
  if (store != nullptr && store->usable()) return store->dir() + "/runs.jsonl";
  return std::string();
}

}  // namespace fstg::store
