// Observability integration lane (`ctest -L obs`): JSON round-trips of the
// metrics and trace writers against their schemas (obs::check_json), the
// logger's line format, and end-to-end span/counter coverage of the
// pipeline stages named in docs/OBSERVABILITY.md.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "base/log.h"
#include "base/obs/json.h"
#include "base/obs/metrics.h"
#include "base/obs/schema.h"
#include "base/obs/trace.h"
#include "fault/fault.h"
#include "harness/experiment.h"

namespace fstg {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(ObsJson, MetricsJsonValidatesAgainstSchema) {
  obs::reset_metrics();
  obs::counter("test.json.counter").add(3);
  obs::gauge("test.json.gauge").set(-7);
  obs::histogram("test.json.hist").observe(12);
  const std::string json = obs::metrics_to_json(obs::snapshot_metrics());
  std::string error;
  EXPECT_TRUE(obs::check_json("fstg_metrics", json, nullptr, &error))
      << error;
  EXPECT_NE(json.find("\"fstg.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("test.json.counter"), std::string::npos);
}

TEST(ObsJson, MetricsFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "fstg_obs_metrics.json";
  obs::reset_metrics();
  obs::counter("test.json.file").inc();
  std::string error;
  ASSERT_TRUE(obs::write_metrics_json(path, &error)) << error;
  EXPECT_TRUE(obs::check_json("fstg_metrics", slurp(path), nullptr, &error))
      << error;
  std::remove(path.c_str());
}

TEST(ObsJson, TraceJsonValidatesAgainstSchema) {
  obs::start_tracing();
  {
    obs::Span outer("test.trace.outer", "detail with \"quotes\"");
    obs::Span inner("test.trace.inner");
    obs::trace_instant("test.trace.marker");
  }
  const std::string json = obs::stop_tracing_to_json();
  std::string error;
  EXPECT_TRUE(obs::check_json("fstg_trace", json, nullptr, &error)) << error;
  EXPECT_NE(json.find("test.trace.outer"), std::string::npos);
  EXPECT_NE(json.find("test.trace.marker"), std::string::npos);
  EXPECT_NE(json.find("\"fstg.trace.v1\""), std::string::npos);
}

TEST(ObsJson, MalformedJsonIsRejected) {
  std::string error;
  EXPECT_FALSE(obs::check_json("fstg_metrics", "", nullptr, &error));
  EXPECT_FALSE(obs::check_json("fstg_metrics", "[1,2,3]", nullptr, &error));
  EXPECT_FALSE(obs::check_json("fstg_metrics", "{\"schema\": \"wrong.v0\"}",
                               nullptr, &error));
  EXPECT_FALSE(obs::check_json(
      "fstg_metrics",
      "{\"schema\": \"fstg.metrics.v1\", \"counters\": [{\"name\": 3}]}",
      nullptr, &error));
  EXPECT_FALSE(
      obs::check_json("fstg_trace", "{\"traceEvents\": 5}", nullptr, &error));
  EXPECT_FALSE(obs::check_json(
      "fstg_trace",
      "{\"otherData\": {\"schema\": \"fstg.trace.v1\"}, "
      "\"traceEvents\": [{\"name\": \"x\"}]}",
      nullptr, &error));
  // Unterminated object: the reader must not run off the end.
  EXPECT_FALSE(
      obs::check_json("fstg_metrics", "{\"schema\": ", nullptr, &error));

  // The reader refuses what RFC 8259 refuses, even around a valid document.
  const std::string valid =
      "{\"schema\": \"fstg.metrics.v1\", \"counters\": [], \"gauges\": [], "
      "\"histograms\": []}";
  ASSERT_TRUE(obs::check_json("fstg_metrics", valid, nullptr, &error))
      << error;
  EXPECT_FALSE(obs::check_json("fstg_metrics", valid + " trailing garbage",
                               nullptr, &error));
  for (const char* bad :
       {"{\"n\": +1}", "{\"n\": 1.}", "{\"n\": .5e1}", "{\"n\": 01}",
        "{\"n\": 1e}", "{\"n\": -}", "{\"s\": \"tab\there\"}",
        "{\"s\": \"new\nline\"}", "{\"s\": \"\\ud800\"}", "[1,]",
        "{\"a\" 1}", "{} {}"}) {
    obs::Json doc;
    EXPECT_FALSE(obs::parse_json(bad, &doc, &error)) << bad;
  }
  obs::Json doc;
  EXPECT_FALSE(obs::parse_json(std::string("\"nul\0\"", 6), &doc, &error));
}

TEST(ObsJson, ParserCollectsTypedFields) {
  obs::Json doc;
  std::string error;
  ASSERT_TRUE(obs::parse_json(
      R"({"s": "hi", "n": -2.5, "a": [1, {"k": 2}], "b": true, "z": null})",
      &doc, &error))
      << error;
  using Kind = obs::Json::Kind;
  ASSERT_EQ(doc.kind, Kind::kObject);
  EXPECT_EQ(doc.keys, (std::vector<std::string>{"s", "n", "a", "b", "z"}));
  ASSERT_NE(doc.find("s"), nullptr);
  EXPECT_EQ(doc.find("s")->kind, Kind::kString);
  EXPECT_EQ(doc.str("s"), "hi");
  ASSERT_NE(doc.find("n"), nullptr);
  EXPECT_EQ(doc.find("n")->kind, Kind::kNumber);
  EXPECT_DOUBLE_EQ(doc.num("n"), -2.5);
  const obs::Json* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->kind, Kind::kArray);
  ASSERT_EQ(a->items.size(), 2u);  // two elements of "a"
  EXPECT_EQ(a->items[0].kind, Kind::kNumber);
  EXPECT_DOUBLE_EQ(a->items[0].number, 1.0);
  EXPECT_EQ(a->items[1].kind, Kind::kObject);
  EXPECT_DOUBLE_EQ(a->items[1].num("k"), 2.0);
  ASSERT_NE(doc.find("b"), nullptr);
  EXPECT_EQ(doc.find("b")->kind, Kind::kBool);
  EXPECT_TRUE(doc.find("b")->boolean);
  ASSERT_NE(doc.find("z"), nullptr);
  EXPECT_EQ(doc.find("z")->kind, Kind::kNull);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_EQ(doc.str("n"), "");               // wrong kind reads as absent
  EXPECT_DOUBLE_EQ(doc.num("s", -1.0), -1.0);

  // Escapes decode; a repeated name resolves to its last value.
  ASSERT_TRUE(obs::parse_json(R"({"e": "q\"\\\/\b\f\n\r\t\u00e9", "e": 1})",
                              &doc, &error))
      << error;
  EXPECT_EQ(doc.keys.size(), 2u);
  EXPECT_DOUBLE_EQ(doc.num("e"), 1.0);
  EXPECT_EQ(doc.items[0].string, "q\"\\/\b\f\n\r\t\xc3\xa9");
}

TEST(ObsJson, QuoteRoundTripsEveryByte) {
  std::string all;
  for (int c = 0; c < 256; ++c) all.push_back(static_cast<char>(c));
  const std::string quoted = obs::json_quote(all);
  for (const char c : quoted) EXPECT_GE(static_cast<unsigned char>(c), 0x20);
  obs::Json doc;
  std::string error;
  ASSERT_TRUE(obs::parse_json(quoted, &doc, &error)) << error;
  EXPECT_EQ(doc.string, all);
  EXPECT_EQ(obs::json_quote("a\tb"), "\"a\\tb\"");
  EXPECT_EQ(obs::json_quote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(ObsLog, LineFormatCarriesLevelThreadAndUptime) {
  const std::string line = format_log_line(LogLevel::kWarn, "hello world");
  // `[fstg WARN tN +S.SSSSSSs] hello world`
  const std::regex expect(
      R"(\[fstg WARN t\d+ \+\d+\.\d{6}s\] hello world)");
  EXPECT_TRUE(std::regex_match(line, expect)) << line;

  const std::string dbg = format_log_line(LogLevel::kDebug, "x");
  EXPECT_EQ(dbg.rfind("[fstg DEBUG", 0), 0u) << dbg;
}

TEST(ObsPipeline, RunFsmEmitsStageSpans) {
  obs::start_tracing();
  (void)run_circuit("lion");
  const std::string json = obs::stop_tracing_to_json();
  std::string error;
  ASSERT_TRUE(obs::check_json("fstg_trace", json, nullptr, &error)) << error;
  for (const char* span :
       {"\"parse.kiss2\"", "\"synth\"", "\"verify.readback\"", "\"generate\"",
        "\"uio.derive\"", "\"atpg.chain\""}) {
    EXPECT_NE(json.find(span), std::string::npos) << "missing span " << span;
  }
}

TEST(ObsPipeline, GateLevelRunFillsFaultSimCounters) {
  obs::reset_metrics();
  CircuitExperiment exp = run_circuit("lion");
  (void)run_gate_level(exp, /*classify_redundancy=*/false);
  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  for (const char* name :
       {"fault_sim.runs", "fault_sim.batches", "fault_sim.faults_simulated",
        "fault_sim.faults_dropped", "sim.overlay_calls", "scan.cycles_overlay",
        "atpg.uio_hits", "parse.kiss2_machines"}) {
    EXPECT_GT(snap.counter_value(name), 0u) << "counter " << name;
  }
  const obs::HistogramSnapshot* h =
      snap.find_histogram("fault_sim.batch_live_faults");
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->count, 0u);
  // Suite wrapper: outcome counters and the suite span.
  obs::start_tracing();
  SuiteOptions options;
  options.gate_level = false;
  (void)run_circuit_suite({"lion"}, options);
  const std::string json = obs::stop_tracing_to_json();
  EXPECT_NE(json.find("\"suite\""), std::string::npos);
  EXPECT_NE(json.find("\"suite.circuit\""), std::string::npos);
  EXPECT_GT(obs::snapshot_metrics().counter_value("suite.circuits_ok"), 0u);
}

TEST(ObsPipeline, InertHandlesPastCapacityAreSafe) {
  // Exhausting the counter table must return no-op handles, not crash.
  for (int i = 0; i < obs::kMaxCounters + 8; ++i)
    obs::counter("test.obs.flood." + std::to_string(i)).inc();
  SUCCEED();
}

}  // namespace
}  // namespace fstg
