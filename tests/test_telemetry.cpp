// Telemetry lane (`ctest -L telemetry`): the continuous-observability
// stack — live exporter, stage table, run ledger, and `fstg report`.
//
// Matrix: snapshot monotonicity under concurrent increments, the live
// fstg.telemetry.v1 file staying schema-valid under rapid publishing
// (readers may slurp at any instant — atomic replace means no torn
// document is ever visible), the stall watchdog firing exactly once per
// stall and re-arming on progress, StageScope timing/current-stage
// bookkeeping, ledger append/read round-trips with dense run ids and
// corrupt-line skipping, report regression verdicts (equal runs pass,
// inflated timings trip the threshold, slack absorbs microsecond noise,
// watch specs normalize), and validator rejection of malformed documents.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/obs/json.h"
#include "base/obs/metrics.h"
#include "base/obs/schema.h"
#include "base/obs/telemetry.h"
#include "base/store/fs_util.h"
#include "base/store/hash.h"
#include "base/store/ledger.h"
#include "harness/report.h"

namespace fstg {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "fstg_telemetry_" + name;
  std::remove(path.c_str());
  return path;
}

double number_field(const std::string& json, const std::string& key) {
  obs::Json doc;
  std::string error;
  EXPECT_TRUE(obs::parse_json(json, &doc, &error)) << error;
  EXPECT_NE(doc.find(key), nullptr) << "missing field " << key;
  return doc.num(key, -1.0);
}

store::RunRecord make_record(const std::string& circuit, double parallel_ms,
                             double end_to_end_ms) {
  store::RunRecord r;
  r.tool = "fstg_tests";
  r.command = "bench";
  r.circuit = circuit;
  r.config_hash = store::hash_hex(0x1234abcd5678ef00ull);
  r.exit_code = 0;
  r.wall_ms = parallel_ms + end_to_end_ms;
  r.stages = {{"parallel", parallel_ms}, {"end_to_end", end_to_end_ms}};
  r.counters = {{"bench.faults", 42}};
  return r;
}

// --- snapshots under concurrency -----------------------------------------

TEST(TelemetrySnapshot, CounterNeverGoesBackwardsUnderConcurrentIncrements) {
  obs::reset_metrics();
  const obs::Counter c = obs::counter("test.telemetry.progress");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) c.inc();
  });
  // Snapshot until we have actually observed concurrent increments (the
  // writer thread may take a moment to get scheduled); every successive
  // snapshot must read a value at least as large as the previous one.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::uint64_t last = 0;
  int snapshots = 0;
  while ((last < 1000 || snapshots < 2000) &&
         std::chrono::steady_clock::now() < deadline) {
    const std::uint64_t now =
        obs::snapshot_metrics().counter_value("test.telemetry.progress");
    EXPECT_GE(now, last);
    last = now;
    ++snapshots;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GE(last, 1000u);
}

TEST(TelemetrySnapshot, TakeFillsProgressFromRegistry) {
  obs::reset_metrics();
  obs::counter("fault_sim.batches_expected").add(10);
  obs::counter("fault_sim.batches").add(4);
  obs::counter("fault_sim.simulated").add(400);
  obs::counter("scan.cycles_skipped").add(5);
  obs::counter("scan.cycles_full").add(7);
  obs::counter("cache.synth.hit").add(3);
  const obs::TelemetrySnapshot snap = obs::take_telemetry_snapshot();
  EXPECT_EQ(snap.progress_done, 4u);
  EXPECT_EQ(snap.progress_total, 10u);
  EXPECT_EQ(snap.cycles, 12u);
  EXPECT_EQ(snap.cache_hits, 3u);
  const std::string json = obs::telemetry_to_json(snap);
  std::string error;
  EXPECT_TRUE(obs::check_json("fstg_telemetry", json, nullptr, &error))
      << error;
}

// --- live file under rapid publishing ------------------------------------

TEST(TelemetryExporter, LiveFileAlwaysValidWhileRunning) {
  obs::reset_metrics();
  const std::string path = temp_path("live.json");
  obs::TelemetryOptions opt;
  opt.path = path;
  opt.interval_ms = 1;  // publish as fast as the exporter allows
  obs::TelemetryExporter exporter(opt);
  std::string error;
  ASSERT_TRUE(exporter.start(&error)) << error;

  const obs::Counter batches = obs::counter("fault_sim.batches");
  obs::counter("fault_sim.batches_expected").add(100000);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      batches.inc();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  // Slurp mid-flight repeatedly: every observable state of the file must be
  // a complete, schema-valid document with non-decreasing progress.
  double last_done = 0.0;
  for (int i = 0; i < 200; ++i) {
    const std::string json = slurp(path);
    ASSERT_FALSE(json.empty());
    ASSERT_TRUE(obs::check_json("fstg_telemetry", json, nullptr, &error))
        << error << "\n" << json;
    const double done = number_field(json, "progress_done");
    EXPECT_GE(done, last_done);
    last_done = done;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  exporter.stop();
  EXPECT_FALSE(exporter.running());
  EXPECT_GT(exporter.ticks(), 1u);

  // stop() publishes a final snapshot, so the file outlives the exporter
  // reflecting the finished run.
  ASSERT_TRUE(
      obs::check_json("fstg_telemetry", slurp(path), nullptr, &error))
      << error;
  EXPECT_GE(number_field(slurp(path), "progress_done"), last_done);
  std::remove(path.c_str());
}

TEST(TelemetryExporter, StartFailsLoudlyOnBadDestination) {
  obs::reset_metrics();
  obs::TelemetryOptions opt;
  opt.path = "/dev/null/nope/telemetry.json";  // ENOTDIR below a file
  obs::TelemetryExporter exporter(opt);
  std::string error;
  EXPECT_FALSE(exporter.start(&error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(exporter.running());
  EXPECT_GT(obs::snapshot_metrics().counter_value("telemetry.write_errors"),
            0u);
}

// --- stall watchdog -------------------------------------------------------

TEST(TelemetryExporter, StallWatchdogFiresOncePerStallAndRearms) {
  obs::reset_metrics();
  const std::string path = temp_path("stall.json");
  obs::TelemetryOptions opt;
  opt.path = path;
  opt.interval_ms = 5;
  opt.stall_window_ms = 40;
  obs::TelemetryExporter exporter(opt);
  std::string error;
  ASSERT_TRUE(exporter.start(&error)) << error;

  // No progress counter advances: the watchdog must fire...
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (exporter.stalls() < 1 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(exporter.stalls(), 1u);

  // ...exactly once per stall: staying stalled does not re-fire (the
  // telemetry.stall bump itself is excluded from the progress fingerprint,
  // or this wait would observe an ever-growing count).
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(exporter.stalls(), 1u);

  // Progress re-arms the watchdog; a second stall fires a second time.
  obs::counter("test.telemetry.stall_progress").inc();
  while (exporter.stalls() < 2 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(exporter.stalls(), 2u);
  EXPECT_EQ(obs::snapshot_metrics().counter_value("telemetry.stall"), 2u);

  exporter.stop();
  std::remove(path.c_str());
}

// --- exporter cadence under spurious wakeups ------------------------------

TEST(TelemetryExporter, SpuriousWakeupsDoNotPublishEarly) {
  // Regression: the exporter loop used to wait on its condition variable
  // with no predicate and a relative timeout, so any spurious (or forced)
  // wakeup published immediately and reset the cadence. With an absolute
  // deadline + predicate, wake_for_test() hammering the CV must not add a
  // single early tick.
  obs::reset_metrics();
  const std::string path = temp_path("spurious.json");
  obs::TelemetryOptions opt;
  opt.path = path;
  opt.interval_ms = 3'600'000;  // next scheduled publish: one hour away
  obs::TelemetryExporter exporter(opt);
  std::string error;
  ASSERT_TRUE(exporter.start(&error)) << error;
  ASSERT_EQ(exporter.ticks(), 1u);  // start()'s immediate first snapshot

  for (int i = 0; i < 50; ++i) {
    exporter.wake_for_test();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(exporter.ticks(), 1u)
      << "a spurious condition-variable wakeup published ahead of the "
         "interval";

  // stop() still publishes its final snapshot through the same CV.
  exporter.stop();
  EXPECT_EQ(exporter.ticks(), 2u);
  ASSERT_TRUE(
      obs::check_json("fstg_telemetry", slurp(path), nullptr, &error))
      << error;
  std::remove(path.c_str());
}

// --- ETA derivation -------------------------------------------------------

TEST(TelemetryExporter, EtaUsesSlidingWindowNotExporterLifetime) {
  // Regression: eta_ms used to divide remaining work by the *lifetime*
  // average rate (done_since_start / uptime). After a warm-cache burst
  // followed by a stall, that skewed estimate stayed finite forever; the
  // sliding window must age the burst out and report -1 (unknown) once no
  // progress falls inside the window.
  obs::reset_metrics();
  const std::string path = temp_path("eta.json");
  obs::TelemetryOptions opt;
  opt.path = path;
  opt.interval_ms = 5;
  opt.eta_window_ms = 60;
  obs::TelemetryExporter exporter(opt);
  std::string error;
  ASSERT_TRUE(exporter.start(&error)) << error;

  // Burst: most of the work completes immediately (the warm-cache shape).
  obs::counter("fault_sim.batches_expected").add(1000);
  obs::counter("fault_sim.batches").add(900);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool saw_finite_eta = false;
  while (!saw_finite_eta && std::chrono::steady_clock::now() < deadline) {
    const std::string json = slurp(path);
    if (!json.empty() && number_field(json, "eta_ms") > 0.0)
      saw_finite_eta = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(saw_finite_eta) << "burst progress never produced an ETA";

  // Stall past the window: the burst leaves the lookback, and with no
  // fresh progress the honest answer is again "unknown", not a stale
  // lifetime-average extrapolation.
  bool eta_went_unknown = false;
  while (!eta_went_unknown && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::string json = slurp(path);
    if (!json.empty() && number_field(json, "eta_ms") == -1.0)
      eta_went_unknown = true;
  }
  EXPECT_TRUE(eta_went_unknown)
      << "eta_ms kept extrapolating from progress outside the window";

  exporter.stop();
  std::remove(path.c_str());
}

// --- stage scopes ---------------------------------------------------------

TEST(StageScope, TracksCurrentStageAndAccumulatesTimings) {
  obs::reset_stage_timings();
  EXPECT_FALSE(obs::current_stage().active);
  {
    obs::StageScope outer("test.stage.outer");
    EXPECT_TRUE(obs::current_stage().active);
    EXPECT_EQ(obs::current_stage().stage, "test.stage.outer");
    {
      obs::StageScope inner("test.stage.inner", "detail");
      EXPECT_EQ(obs::current_stage().stage, "test.stage.inner");
    }
    // The innermost scope ended: the outer one is current again.
    EXPECT_EQ(obs::current_stage().stage, "test.stage.outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_FALSE(obs::current_stage().active);

  bool saw_outer = false, saw_inner = false;
  for (const obs::StageTiming& t : obs::stage_timings()) {
    if (t.stage == "test.stage.outer") {
      saw_outer = true;
      EXPECT_EQ(t.runs, 1u);
      EXPECT_GT(t.ms, 0.0);
    }
    if (t.stage == "test.stage.inner") saw_inner = true;
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
}

TEST(StageScope, RepeatedScopesSumIntoOneTiming) {
  obs::reset_stage_timings();
  for (int i = 0; i < 3; ++i) {
    obs::StageScope scope("test.stage.repeat");
  }
  for (const obs::StageTiming& t : obs::stage_timings())
    if (t.stage == "test.stage.repeat") {
      EXPECT_EQ(t.runs, 3u);
      return;
    }
  FAIL() << "stage test.stage.repeat not in timings";
}

// --- run ledger -----------------------------------------------------------

TEST(Ledger, RecordJsonRoundTrips) {
  store::RunRecord r = make_record("bbara", 1.5, 3.25);
  r.run = 7;
  r.timestamp = "2026-08-08T12:00:00Z";
  r.budget_trips = 2;
  const std::string line = store::run_record_to_json(r);
  EXPECT_EQ(line.back(), '\n');
  std::string error;
  ASSERT_TRUE(obs::check_json("fstg_run", line, nullptr, &error)) << error;

  store::RunRecord back;
  ASSERT_TRUE(store::parse_run_record(line, &back, &error)) << error;
  EXPECT_EQ(back.run, 7u);
  EXPECT_EQ(back.timestamp, "2026-08-08T12:00:00Z");
  EXPECT_EQ(back.tool, "fstg_tests");
  EXPECT_EQ(back.circuit, "bbara");
  EXPECT_EQ(back.config_hash, r.config_hash);
  EXPECT_EQ(back.budget_trips, 2u);
  ASSERT_EQ(back.stages.size(), 2u);
  EXPECT_EQ(back.stages[0].stage, "parallel");
  EXPECT_DOUBLE_EQ(back.stages[0].ms, 1.5);
  ASSERT_EQ(back.counters.size(), 1u);
  EXPECT_EQ(back.counters[0].first, "bench.faults");
  EXPECT_EQ(back.counters[0].second, 42u);
}

TEST(Ledger, AppendAssignsDenseRunIdsAndReadsBack) {
  const std::string path = temp_path("runs.jsonl");
  store::Ledger ledger(path);
  std::string error;
  ASSERT_TRUE(ledger.append(make_record("bbara", 1.0, 2.0), &error)) << error;
  ASSERT_TRUE(ledger.append(make_record("keyb", 3.0, 4.0), &error)) << error;
  ASSERT_TRUE(ledger.append(make_record("bbara", 1.1, 2.1), &error)) << error;

  const std::vector<store::RunRecord> records = ledger.read();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].run, 0u);
  EXPECT_EQ(records[1].run, 1u);
  EXPECT_EQ(records[2].run, 2u);
  EXPECT_EQ(records[1].circuit, "keyb");
  for (const store::RunRecord& r : records) EXPECT_FALSE(r.timestamp.empty());
  std::remove(path.c_str());
}

TEST(Ledger, ControlCharactersInNamesRoundTrip) {
  // Circuit names are input paths, and paths may hold tabs and newlines.
  // Each record must stay one strict-JSON line: a raw newline would split
  // it, and the next append would drop it and reuse its run id.
  const std::string path = temp_path("control.jsonl");
  store::Ledger ledger(path);
  std::string error;
  ASSERT_TRUE(ledger.append(make_record("a\tb.kiss", 1.0, 2.0), &error))
      << error;
  ASSERT_TRUE(ledger.append(make_record("x\ny.kiss", 1.0, 2.0), &error))
      << error;
  ASSERT_TRUE(ledger.append(make_record("bbara", 1.0, 2.0), &error)) << error;

  const std::vector<store::RunRecord> records = ledger.read();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].circuit, "a\tb.kiss");
  EXPECT_EQ(records[1].circuit, "x\ny.kiss");
  EXPECT_EQ(records[2].circuit, "bbara");
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(records[i].run, i);
  const std::string text = slurp(path);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
  EXPECT_EQ(text.find('\t'), std::string::npos);
  std::remove(path.c_str());
}

TEST(Ledger, CorruptLinesAreSkippedCountedAndRepairedOnAppend) {
  obs::reset_metrics();
  const std::string path = temp_path("corrupt.jsonl");
  store::Ledger ledger(path);
  std::string error;
  ASSERT_TRUE(ledger.append(make_record("bbara", 1.0, 2.0), &error)) << error;

  // Simulate a torn tail / foreign line: reads must skip it, not die.
  {
    std::ofstream f(path, std::ios::app);
    f << "{\"schema\": \"fstg.run.v9\", \"garbage\"\n";
  }
  const std::vector<store::RunRecord> records = ledger.read();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_GT(obs::snapshot_metrics().counter_value("ledger.corrupt_lines"),
            0u);

  // The next append rewrites the file without the corrupt line and still
  // assigns the next dense id.
  ASSERT_TRUE(ledger.append(make_record("bbara", 1.2, 2.2), &error)) << error;
  const std::string text = slurp(path);
  EXPECT_EQ(text.find("garbage"), std::string::npos);
  const std::vector<store::RunRecord> repaired = ledger.read();
  ASSERT_EQ(repaired.size(), 2u);
  EXPECT_EQ(repaired[1].run, 1u);
  std::remove(path.c_str());
}

TEST(Ledger, AppendRejectsInvalidRecord) {
  const std::string path = temp_path("reject.jsonl");
  store::Ledger ledger(path);
  store::RunRecord bad = make_record("bbara", 1.0, 2.0);
  bad.config_hash = "not-a-hash";
  std::string error;
  EXPECT_FALSE(ledger.append(bad, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(ledger.read().empty());
  std::remove(path.c_str());
}

TEST(Ledger, MissingFileReadsEmptyAndResolvePrefersExplicit) {
  store::Ledger ledger(temp_path("never_written.jsonl"));
  EXPECT_TRUE(ledger.read().empty());
  EXPECT_EQ(store::resolve_ledger_path("/tmp/explicit.jsonl"),
            "/tmp/explicit.jsonl");
}

// --- fstg report ----------------------------------------------------------

TEST(Report, EqualRunsDoNotRegress) {
  std::vector<store::RunRecord> records;
  records.push_back(make_record("bbara", 10.0, 20.0));
  records.back().run = 0;
  records.push_back(make_record("bbara", 10.0, 20.0));
  records.back().run = 1;

  const Report report = build_report(records, ReportOptions{}, "runs.jsonl");
  EXPECT_EQ(report.runs, 2u);
  EXPECT_FALSE(report.regressed());
  ASSERT_EQ(report.circuits.size(), 1u);
  EXPECT_EQ(report.circuits[0].baseline_run, 0u);
  EXPECT_EQ(report.circuits[0].latest_run, 1u);

  const std::string json = report_to_json(report);
  std::string error;
  EXPECT_TRUE(obs::check_json("fstg_report", json, nullptr, &error)) << error;
  EXPECT_NE(report_to_text(report).find("bbara"), std::string::npos);
}

TEST(Report, InflatedTimingRegressesPastThreshold) {
  std::vector<store::RunRecord> records;
  records.push_back(make_record("bbara", 10.0, 20.0));
  records.back().run = 0;
  records.push_back(make_record("bbara", 25.0, 20.0));  // parallel 2.5x
  records.back().run = 1;

  const Report report = build_report(records, ReportOptions{}, "runs.jsonl");
  EXPECT_TRUE(report.regressed());
  EXPECT_EQ(report.regressions, 1u);
  bool checked = false;
  for (const ReportStage& s : report.circuits[0].stages)
    if (s.stage == "parallel") {
      checked = true;
      EXPECT_TRUE(s.regressed);
      EXPECT_NEAR(s.delta_pct, 150.0, 1e-9);
    }
  EXPECT_TRUE(checked);
  EXPECT_NE(report_to_text(report).find("REGRESSED"), std::string::npos);
}

TEST(Report, WatchSpecsNormalizeAndLimitTheGate) {
  std::vector<store::RunRecord> records;
  records.push_back(make_record("bbara", 10.0, 20.0));
  records.back().run = 0;
  records.push_back(make_record("bbara", 25.0, 90.0));  // both inflated
  records.back().run = 1;

  ReportOptions options;
  options.watch = {"parallel_ms"};  // bench column name, normalizes away _ms
  const Report report = build_report(records, options, "runs.jsonl");
  EXPECT_EQ(report.regressions, 1u);
  ASSERT_EQ(report.watched.size(), 1u);
  EXPECT_EQ(report.watched[0], "parallel");
  for (const ReportStage& s : report.circuits[0].stages) {
    if (s.stage == "parallel") {
      EXPECT_TRUE(s.regressed);
    }
    if (s.stage == "end_to_end") {
      EXPECT_FALSE(s.watched);
      EXPECT_FALSE(s.regressed);
    }
  }
}

TEST(Report, SlackAbsorbsMicrosecondNoise) {
  std::vector<store::RunRecord> records;
  records.push_back(make_record("bbara", 0.001, 20.0));
  records.back().run = 0;
  records.push_back(make_record("bbara", 0.5, 20.0));  // 500x but < 1 ms slack
  records.back().run = 1;

  const Report report = build_report(records, ReportOptions{}, "runs.jsonl");
  EXPECT_FALSE(report.regressed());
}

TEST(Report, ExplicitBaselineRunIsHonored) {
  std::vector<store::RunRecord> records;
  records.push_back(make_record("bbara", 30.0, 20.0));
  records.back().run = 0;
  records.push_back(make_record("bbara", 10.0, 20.0));
  records.back().run = 1;
  records.push_back(make_record("bbara", 30.0, 20.0));
  records.back().run = 2;

  // Against run 0 (same timings) the latest run is fine; against run 1 it
  // would regress. The explicit baseline must win.
  ReportOptions options;
  options.baseline_run = 0;
  const Report report = build_report(records, options, "runs.jsonl");
  EXPECT_FALSE(report.regressed());
  EXPECT_EQ(report.circuits[0].baseline_run, 0u);

  options.baseline_run = 1;
  EXPECT_TRUE(build_report(records, options, "runs.jsonl").regressed());
}

TEST(Report, StageMissingFromBaselineIsNewNotRegressed) {
  // A renamed or added stage has no baseline time. It must read "new", not
  // a regression of +0.0%.
  std::vector<store::RunRecord> records;
  records.push_back(make_record("rie", 10.0, 20.0));
  records.back().run = 0;
  records.push_back(make_record("rie", 10.0, 20.0));
  records.back().run = 1;
  records.back().stages.push_back({"gate_level.fault_sim", 138.88});

  const Report report = build_report(records, ReportOptions{}, "runs.jsonl");
  EXPECT_FALSE(report.regressed());
  EXPECT_EQ(report.regressions, 0u);
  bool checked = false;
  for (const ReportStage& s : report.circuits[0].stages)
    if (s.stage == "gate_level.fault_sim") {
      checked = true;
      EXPECT_TRUE(s.watched);
      EXPECT_FALSE(s.regressed);
    }
  EXPECT_TRUE(checked);

  const std::string json = report_to_json(report);
  std::string error;
  EXPECT_TRUE(obs::check_json("fstg_report", json, nullptr, &error)) << error;
  EXPECT_EQ(json.find("\"regressed\": true"), std::string::npos);
  const std::string text = report_to_text(report);
  EXPECT_NE(text.find(" new"), std::string::npos);
  EXPECT_EQ(text.find("REGRESSED"), std::string::npos);

  // The same stage, once the baseline has it, is gated like any other.
  records.front().stages.push_back({"gate_level.fault_sim", 40.0});
  EXPECT_TRUE(build_report(records, ReportOptions{}, "runs.jsonl").regressed());
}

TEST(Report, SingleRunNeverRegresses) {
  std::vector<store::RunRecord> records;
  records.push_back(make_record("bbara", 10.0, 20.0));
  records.back().run = 0;
  const Report report = build_report(records, ReportOptions{}, "runs.jsonl");
  EXPECT_FALSE(report.regressed());
  EXPECT_EQ(report.circuits[0].baseline_run,
            report.circuits[0].latest_run);
}

// --- validators reject malformed documents --------------------------------

TEST(TelemetryValidators, RejectMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(obs::check_json("fstg_telemetry", "{}", nullptr, &error));
  EXPECT_FALSE(obs::check_json("fstg_telemetry",
                               "{\"schema\": \"fstg.metrics.v1\"}", nullptr,
                               &error));
  EXPECT_FALSE(obs::check_json("fstg_run", "not json", nullptr, &error));
  EXPECT_FALSE(obs::check_json("fstg_report",
                               "{\"schema\": \"fstg.report.v1\"}", nullptr,
                               &error));

  // Progress must be internally consistent: done beyond a known total is a
  // writer bug the validator refuses to publish.
  obs::TelemetrySnapshot snap = obs::take_telemetry_snapshot();
  snap.progress_total = 5;
  snap.progress_done = 9;
  EXPECT_FALSE(obs::check_json("fstg_telemetry", obs::telemetry_to_json(snap),
                               nullptr, &error));

  // Ledger lines with a non-hex config hash are refused.
  store::RunRecord r = make_record("bbara", 1.0, 2.0);
  r.timestamp = "2026-08-08T12:00:00Z";
  r.config_hash = "XYZXYZXYZXYZXYZ!";
  EXPECT_FALSE(obs::check_json("fstg_run", store::run_record_to_json(r),
                               nullptr, &error));
}

}  // namespace
}  // namespace fstg
