#include "harness/report.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "base/obs/json.h"
#include "base/table_printer.h"

namespace fstg {

namespace {

/// Normalize a watch spec: bench column names carry a "_ms" suffix the
/// ledger stage names do not.
std::string normalize_watch(const std::string& spec) {
  if (spec.size() > 3 && spec.ends_with("_ms"))
    return spec.substr(0, spec.size() - 3);
  return spec;
}

bool is_watched(const std::string& stage,
                const std::vector<std::string>& watch) {
  if (watch.empty()) return true;  // no specs = gate on everything
  for (const std::string& w : watch)
    if (w == stage) return true;
  return false;
}

}  // namespace

Report build_report(const std::vector<store::RunRecord>& records,
                    const ReportOptions& options, const std::string& ledger) {
  Report report;
  report.ledger = ledger;
  report.runs = records.size();
  report.threshold_pct = options.threshold_pct;
  for (const std::string& w : options.watch)
    report.watched.push_back(normalize_watch(w));

  std::map<std::string, std::vector<const store::RunRecord*>> by_circuit;
  for (const store::RunRecord& r : records)
    by_circuit[r.circuit].push_back(&r);

  for (auto& [circuit, runs] : by_circuit) {
    std::sort(runs.begin(), runs.end(),
              [](const store::RunRecord* a, const store::RunRecord* b) {
                return a->run < b->run;
              });
    const store::RunRecord* baseline = runs.front();
    if (options.baseline_run >= 0) {
      for (const store::RunRecord* r : runs)
        if (r->run == static_cast<std::uint64_t>(options.baseline_run))
          baseline = r;
    }
    const store::RunRecord* latest = runs.back();

    ReportCircuit rc;
    rc.circuit = circuit;
    rc.runs = runs.size();
    rc.baseline_run = baseline->run;
    rc.latest_run = latest->run;

    // Union of the two runs' stages: a stage that disappeared or appeared
    // still shows up, with the missing side reading 0.
    std::map<std::string, ReportStage> stages;
    for (const store::RunStage& s : baseline->stages) {
      ReportStage& rs = stages[s.stage];
      rs.stage = s.stage;
      rs.baseline_ms = s.ms;
    }
    for (const store::RunStage& s : latest->stages) {
      const auto [it, added] = stages.try_emplace(s.stage);
      ReportStage& rs = it->second;
      rs.stage = s.stage;
      rs.latest_ms = s.ms;
      if (added) rs.added = true;
    }
    for (auto& [name, rs] : stages) {
      if (rs.baseline_ms > 0.0)
        rs.delta_pct =
            (rs.latest_ms - rs.baseline_ms) / rs.baseline_ms * 100.0;
      rs.watched = is_watched(name, report.watched);
      // Comparing a run against itself can never regress — a one-run
      // ledger is a baseline, not a trend — and neither can a stage the
      // baseline lacks.
      rs.regressed =
          rs.watched && !rs.added && latest->run != baseline->run &&
          rs.latest_ms >
              rs.baseline_ms * (1.0 + options.threshold_pct / 100.0) +
                  options.slack_ms;
      if (rs.regressed) ++report.regressions;
      rc.stages.push_back(rs);
    }
    report.circuits.push_back(std::move(rc));
  }
  return report;
}

std::string report_to_json(const Report& report) {
  using obs::json_quote;
  std::ostringstream os;
  os.precision(3);
  os << std::fixed;
  os << "{\n  \"schema\": \"fstg.report.v1\",\n"
     << "  \"ledger\": " << json_quote(report.ledger) << ",\n"
     << "  \"runs\": " << report.runs << ",\n"
     << "  \"threshold_pct\": " << report.threshold_pct << ",\n"
     << "  \"watched\": [";
  for (std::size_t i = 0; i < report.watched.size(); ++i)
    os << (i ? ", " : "") << json_quote(report.watched[i]);
  os << "],\n  \"regressions\": " << report.regressions << ",\n"
     << "  \"regressed\": " << (report.regressed() ? "true" : "false")
     << ",\n  \"circuits\": [\n";
  for (std::size_t c = 0; c < report.circuits.size(); ++c) {
    const ReportCircuit& rc = report.circuits[c];
    os << "    {\"circuit\": " << json_quote(rc.circuit)
       << ", \"runs\": " << rc.runs
       << ", \"baseline_run\": " << rc.baseline_run
       << ", \"latest_run\": " << rc.latest_run << ", \"stages\": [\n";
    for (std::size_t s = 0; s < rc.stages.size(); ++s) {
      const ReportStage& rs = rc.stages[s];
      os << "      {\"stage\": " << json_quote(rs.stage)
         << ", \"baseline_ms\": " << rs.baseline_ms
         << ", \"latest_ms\": " << rs.latest_ms
         << ", \"delta_pct\": " << rs.delta_pct
         << ", \"watched\": " << (rs.watched ? "true" : "false")
         << ", \"regressed\": " << (rs.regressed ? "true" : "false") << "}"
         << (s + 1 < rc.stages.size() ? "," : "") << "\n";
    }
    os << "    ]}" << (c + 1 < report.circuits.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

std::string report_to_text(const Report& report) {
  std::ostringstream os;
  os << "ledger " << report.ledger << ": " << report.runs << " run"
     << (report.runs == 1 ? "" : "s") << ", threshold "
     << report.threshold_pct << "%\n";
  TablePrinter table({"circuit", "stage", "baseline_ms", "latest_ms",
                      "delta_%", "flag"});
  for (const ReportCircuit& rc : report.circuits) {
    for (const ReportStage& rs : rc.stages) {
      std::ostringstream delta;
      delta.precision(1);
      delta << std::fixed << std::showpos << rs.delta_pct;
      const char* flag = rs.regressed ? "REGRESSED"
                         : rs.added   ? "new"
                         : rs.watched ? "watched"
                                      : "";
      table.add_row({rc.circuit.empty() ? "-" : rc.circuit, rs.stage,
                     TablePrinter::num(rs.baseline_ms),
                     TablePrinter::num(rs.latest_ms),
                     rs.added ? "-" : delta.str(), flag});
    }
  }
  table.print(os);
  if (report.regressions > 0)
    os << report.regressions << " regression"
       << (report.regressions == 1 ? "" : "s") << " past threshold\n";
  else
    os << "no regressions\n";
  return os.str();
}

}  // namespace fstg
