// Serve lane (`ctest -L serve`): the persistent daemon and its wire
// protocol.
//
// Matrix: frame codec round-trips under torn byte-at-a-time delivery,
// oversized length prefixes as sticky protocol errors, request/response
// schema validation (including the writer refusing inconsistent documents
// before they reach the wire), and the live server end to end — inline
// ping/metrics/shutdown, hot-cache single-flight sharing across repeated
// compiles, a concurrent mixed-circuit soak with per-request budgets,
// bounded-queue admission shedding typed "overloaded" responses, torn and
// oversized frames over a real socket, budget-tripped fault simulation,
// per-request ledger records, and graceful drain on stop. The CLI
// (`fstg serve` / `--client` / `--once`) is exercised from ctest entries
// in tools/CMakeLists.txt; the fuzz harness replays malformed frames in
// tests/serve_corpus.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "base/error.h"
#include "base/obs/json.h"
#include "base/obs/metrics.h"
#include "base/obs/schema.h"
#include "atpg/test_io.h"
#include "base/store/ledger.h"
#include "harness/experiment.h"
#include "kiss/benchmarks.h"
#include "kiss/kiss2_writer.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace fstg {
namespace {

std::string socket_path(const std::string& name) {
  // sockaddr_un paths are short (~107 bytes); TempDir plus a short stem
  // stays comfortably under.
  const std::string path = ::testing::TempDir() + "fstg_srv_" + name;
  ::unlink(path.c_str());
  return path;
}

serve::ServeRequest gen_request(const std::string& id,
                                const std::string& circuit) {
  serve::ServeRequest req;
  req.id = id;
  req.type = "gen";
  req.circuit = circuit;
  return req;
}

/// Canonical test-file text for a benchmark, computed offline (the same
/// pipeline the server runs).
std::string tests_text_for(const std::string& name) {
  return write_test_file(test_file_for(run_fsm(load_benchmark(name))));
}

/// recv + parse + schema-check one response.
serve::ServeResponse must_recv(serve::Client& client, int timeout_ms = 30000) {
  std::string payload, error;
  EXPECT_TRUE(client.recv(&payload, timeout_ms, &error)) << error;
  serve::ServeResponse resp;
  EXPECT_TRUE(serve::parse_serve_response(payload, &resp, &error))
      << error << "\n" << payload;
  resp.result_json = payload;  // keep the raw document for content checks
  return resp;
}

// --- frame codec ----------------------------------------------------------

TEST(FrameCodec, RoundTripSurvivesTornByteAtATimeDelivery) {
  const std::string payload = "{\"hello\": \"frame \\u00e9\"}";
  const std::string wire = serve::encode_frame(payload);
  ASSERT_EQ(wire.size(), serve::kFramePrefixBytes + payload.size());

  serve::FrameDecoder decoder;
  std::string out, error;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    // Until the last byte lands, a torn read is just "need more".
    ASSERT_EQ(decoder.next(&out, &error),
              serve::FrameDecoder::Outcome::kNeedMore);
    decoder.feed(wire.data() + i, 1);
  }
  ASSERT_EQ(decoder.next(&out, &error), serve::FrameDecoder::Outcome::kFrame);
  EXPECT_EQ(out, payload);
  EXPECT_EQ(decoder.next(&out, &error),
            serve::FrameDecoder::Outcome::kNeedMore);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameCodec, DrainsMultipleFramesIncludingEmptyPayloads) {
  serve::FrameDecoder decoder;
  const std::string wire = serve::encode_frame("one") +
                           serve::encode_frame("") +
                           serve::encode_frame("three");
  decoder.feed(wire.data(), wire.size());
  std::string out, error;
  ASSERT_EQ(decoder.next(&out, &error), serve::FrameDecoder::Outcome::kFrame);
  EXPECT_EQ(out, "one");
  ASSERT_EQ(decoder.next(&out, &error), serve::FrameDecoder::Outcome::kFrame);
  EXPECT_EQ(out, "");
  ASSERT_EQ(decoder.next(&out, &error), serve::FrameDecoder::Outcome::kFrame);
  EXPECT_EQ(out, "three");
  EXPECT_EQ(decoder.next(&out, &error),
            serve::FrameDecoder::Outcome::kNeedMore);
}

TEST(FrameCodec, OversizedLengthIsAStickyError) {
  serve::FrameDecoder decoder(/*max_frame_bytes=*/16);
  const char huge[4] = {'\xff', '\xff', '\xff', '\x7f'};  // ~2 GiB prefix
  decoder.feed(huge, sizeof huge);
  std::string out, error;
  ASSERT_EQ(decoder.next(&out, &error), serve::FrameDecoder::Outcome::kError);
  EXPECT_NE(error.find("exceeds the limit"), std::string::npos) << error;

  // The stream cannot be resynchronized past an untrusted length: even a
  // well-formed follow-up frame must keep reading as the same error.
  const std::string wire = serve::encode_frame("fine");
  decoder.feed(wire.data(), wire.size());
  EXPECT_EQ(decoder.next(&out, &error), serve::FrameDecoder::Outcome::kError);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameCodec, DefaultCapHoldsAFrameOfExactlyTheCap) {
  // A sim request embeds a whole test file; the largest `fstg gen` writes
  // (nucpwr's) is about 8.9 MB.
  static_assert(serve::kDefaultMaxFrameBytes >= std::size_t{16} << 20);
  const std::size_t cap = serve::kDefaultMaxFrameBytes;
  const auto length_prefix = [](std::size_t n) {
    return std::string{static_cast<char>(n & 0xff),
                       static_cast<char>((n >> 8) & 0xff),
                       static_cast<char>((n >> 16) & 0xff),
                       static_cast<char>((n >> 24) & 0xff)};
  };
  const std::string prefix = length_prefix(cap);
  serve::FrameDecoder decoder;
  decoder.feed(prefix.data(), prefix.size());
  const std::string piece(std::size_t{1} << 20, 'x');
  std::string out, error;
  for (std::size_t fed = 0; fed < cap; fed += piece.size()) {
    ASSERT_EQ(decoder.next(&out, &error),
              serve::FrameDecoder::Outcome::kNeedMore);
    decoder.feed(piece.data(), std::min(piece.size(), cap - fed));
  }
  ASSERT_EQ(decoder.next(&out, &error), serve::FrameDecoder::Outcome::kFrame)
      << error;
  EXPECT_EQ(out.size(), cap);

  // One byte more is refused before any payload byte is buffered.
  const std::string over_prefix = length_prefix(cap + 1);
  serve::FrameDecoder refusing;
  refusing.feed(over_prefix.data(), over_prefix.size());
  EXPECT_EQ(refusing.next(&out, &error),
            serve::FrameDecoder::Outcome::kError);
}

// --- request/response codec ----------------------------------------------

TEST(RequestCodec, ValidRequestsRoundTrip) {
  serve::ServeRequest req;
  req.id = "r1";
  req.type = "sim";
  req.circuit = "lion";
  req.tests = ".circuit lion\n";
  req.uio = 3;
  req.budget.time_budget_ms = 250;
  const std::string json = serve::serve_request_to_json(req);
  std::string error;
  EXPECT_TRUE(obs::check_json("fstg_serve_request", json, nullptr, &error))
      << error;

  serve::ServeRequest back;
  ASSERT_TRUE(serve::parse_serve_request(json, &back, &error)) << error;
  EXPECT_EQ(back.id, "r1");
  EXPECT_EQ(back.type, "sim");
  EXPECT_EQ(back.circuit, "lion");
  EXPECT_EQ(back.tests, ".circuit lion\n");
  EXPECT_EQ(back.uio, 3);
  EXPECT_EQ(back.budget.time_budget_ms, 250.0);
}

TEST(RequestCodec, MalformedRequestsAreRejectedNotThrown) {
  serve::ServeRequest req;
  std::string error;
  // The socket-facing boundary must refuse, never throw.
  EXPECT_FALSE(serve::parse_serve_request("", &req, &error));
  EXPECT_FALSE(serve::parse_serve_request("not json", &req, &error));
  EXPECT_FALSE(serve::parse_serve_request("{}", &req, &error));
  EXPECT_FALSE(serve::parse_serve_request(
      "{\"schema\": \"fstg.metrics.v1\", \"type\": \"ping\"}", &req, &error));
  EXPECT_FALSE(serve::parse_serve_request(
      "{\"schema\": \"fstg.serve_request.v1\", \"type\": \"reboot\"}", &req,
      &error));
  // Pipeline requests must name their input; sim additionally needs tests.
  EXPECT_FALSE(serve::parse_serve_request(
      "{\"schema\": \"fstg.serve_request.v1\", \"type\": \"gen\"}", &req,
      &error));
  EXPECT_FALSE(serve::parse_serve_request(
      "{\"schema\": \"fstg.serve_request.v1\", \"type\": \"sim\", "
      "\"circuit\": \"lion\"}",
      &req, &error));
  // Numbers are range- and integrality-checked.
  EXPECT_FALSE(serve::parse_serve_request(
      "{\"schema\": \"fstg.serve_request.v1\", \"type\": \"gen\", "
      "\"circuit\": \"lion\", \"uio\": 65}",
      &req, &error));
  EXPECT_FALSE(serve::parse_serve_request(
      "{\"schema\": \"fstg.serve_request.v1\", \"type\": \"gen\", "
      "\"circuit\": \"lion\", \"uio\": 1.5}",
      &req, &error));
  EXPECT_FALSE(serve::parse_serve_request(
      "{\"schema\": \"fstg.serve_request.v1\", \"type\": \"gen\", "
      "\"circuit\": 7}",
      &req, &error));
  // Only RFC 8259 JSON gets through: no bytes after the document, no
  // non-JSON number spellings, no raw control bytes inside strings.
  const std::string ping =
      "{\"schema\": \"fstg.serve_request.v1\", \"type\": \"ping\"}";
  ASSERT_TRUE(serve::parse_serve_request(ping, &req, &error)) << error;
  EXPECT_FALSE(serve::parse_serve_request(ping + " trailing garbage", &req,
                                          &error));
  for (const char* uio : {"+1", "1.", ".5e1"})
    EXPECT_FALSE(serve::parse_serve_request(
        "{\"schema\": \"fstg.serve_request.v1\", \"type\": \"gen\", "
        "\"circuit\": \"lion\", \"uio\": " + std::string(uio) + "}",
        &req, &error))
        << uio;
  EXPECT_FALSE(serve::parse_serve_request(
      "{\"schema\": \"fstg.serve_request.v1\", \"type\": \"ping\", "
      "\"id\": \"tab\there\"}",
      &req, &error));
  EXPECT_FALSE(serve::parse_serve_request(
      "{\"schema\": \"fstg.serve_request.v1\", \"type\": \"ping\", "
      "\"id\": \"new\nline\"}",
      &req, &error));
}

TEST(ResponseCodec, WriterSelfValidatesAndRefusesInconsistentDocuments) {
  serve::ServeResponse resp;
  resp.id = "x";
  resp.type = "gen";
  resp.wall_ms = 1.5;
  const std::string json = serve::serve_response_to_json(resp);
  std::string error;
  EXPECT_TRUE(obs::check_json("fstg_serve_response", json, nullptr, &error))
      << error;
  serve::ServeResponse back;
  ASSERT_TRUE(serve::parse_serve_response(json, &back, &error)) << error;
  EXPECT_EQ(back.id, "x");
  EXPECT_EQ(back.status, "ok");

  // A non-ok response without a message (and an ok one with a message)
  // must die in the writer, before it can reach the wire.
  resp.status = "error";
  resp.error = "";
  EXPECT_THROW(serve::serve_response_to_json(resp), Error);
  resp.status = "ok";
  resp.error = "but it worked";
  EXPECT_THROW(serve::serve_response_to_json(resp), Error);
  resp.status = "tired";
  resp.error = "unknown status";
  EXPECT_THROW(serve::serve_response_to_json(resp), Error);
}

// --- live server ----------------------------------------------------------

struct ServerFixture {
  serve::ServeOptions opts;
  std::unique_ptr<serve::Server> server;
  std::string path;

  explicit ServerFixture(const std::string& name, int workers = 4,
                         int queue_capacity = 16) {
    path = socket_path(name);
    opts.socket_path = path;
    opts.workers = workers;
    opts.queue_capacity = queue_capacity;
  }

  void start() {
    server = std::make_unique<serve::Server>(opts);
    std::string error;
    ASSERT_TRUE(server->start(&error)) << error;
  }

  void connect(serve::Client* client) {
    std::string error;
    ASSERT_TRUE(client->connect_unix(path, 5000, &error)) << error;
  }

  ~ServerFixture() {
    if (server) server->stop();
    ::unlink(path.c_str());
  }
};

TEST(ServeServer, PingMetricsAndShutdownAreAnsweredInline) {
  obs::reset_metrics();
  ServerFixture fx("inline.sock");
  fx.start();
  serve::Client client;
  fx.connect(&client);
  std::string error;

  serve::ServeRequest ping;
  ping.id = "p";
  ping.type = "ping";
  ASSERT_TRUE(client.send(serve::serve_request_to_json(ping), &error)) << error;
  serve::ServeResponse resp = must_recv(client);
  EXPECT_EQ(resp.id, "p");
  EXPECT_EQ(resp.status, "ok");

  serve::ServeRequest metrics;
  metrics.id = "m";
  metrics.type = "metrics";
  ASSERT_TRUE(client.send(serve::serve_request_to_json(metrics), &error))
      << error;
  resp = must_recv(client);
  EXPECT_EQ(resp.status, "ok");
  // The scrape embeds a live fstg.metrics.v1 document that has already seen
  // this connection arrive.
  EXPECT_NE(resp.result_json.find("fstg.metrics.v1"), std::string::npos);
  EXPECT_NE(resp.result_json.find("serve.connections"), std::string::npos);

  serve::ServeRequest shutdown;
  shutdown.id = "s";
  shutdown.type = "shutdown";
  ASSERT_TRUE(client.send(serve::serve_request_to_json(shutdown), &error))
      << error;
  resp = must_recv(client);
  EXPECT_EQ(resp.status, "ok");
  // The shutdown request makes wait() return; teardown is stop()'s job.
  fx.server->wait();
  fx.server->stop();
  EXPECT_FALSE(fx.server->running());
}

TEST(ServeServer, HotCacheServesRepeatCompilesWithoutRecomputing) {
  obs::reset_metrics();
  ServerFixture fx("hot.sock");
  fx.start();
  serve::Client client;
  fx.connect(&client);
  std::string error;

  ASSERT_TRUE(client.send(
      serve::serve_request_to_json(gen_request("g1", "lion")), &error))
      << error;
  serve::ServeResponse first = must_recv(client);
  ASSERT_EQ(first.status, "ok") << first.error;
  EXPECT_NE(first.result_json.find("\"cache_hit\": false"),
            std::string::npos);
  EXPECT_NE(first.result_json.find("\"test_file\": \""), std::string::npos);

  ASSERT_TRUE(client.send(
      serve::serve_request_to_json(gen_request("g2", "lion")), &error))
      << error;
  serve::ServeResponse second = must_recv(client);
  ASSERT_EQ(second.status, "ok") << second.error;
  EXPECT_NE(second.result_json.find("\"cache_hit\": true"),
            std::string::npos);

  // The acceptance signal: repeats visibly hit the in-memory cache.
  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  EXPECT_EQ(snap.counter_value("cache.hot.miss"), 1u);
  EXPECT_GE(snap.counter_value("cache.hot.hit"), 1u);
}

TEST(ServeServer, ConcurrentSoakMixedCircuitsBudgetsAndSchemas) {
  obs::reset_metrics();
  ServerFixture fx("soak.sock", /*workers=*/8, /*queue_capacity=*/64);
  fx.start();

  // Mixed circuits from the light tier of the paper's table, plus one
  // deliberately budget-tripped fault simulation per client.
  std::vector<std::string> circuits = benchmark_names(/*max_weight=*/0);
  ASSERT_GE(circuits.size(), 4u);
  circuits.resize(4);
  const std::string lion_tests = tests_text_for("lion");

  constexpr int kClients = 8;
  constexpr int kGensPerClient = 3;
  std::atomic<int> ok_count{0}, budget_count{0}, failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      serve::Client client;
      std::string error;
      if (!client.connect_unix(fx.path, 10000, &error)) {
        failures.fetch_add(1);
        return;
      }
      // Pipeline the whole batch, then collect: gen requests over mixed
      // circuits plus one sim whose expansion budget cannot suffice.
      for (int i = 0; i < kGensPerClient; ++i) {
        const std::string& circuit =
            circuits[static_cast<std::size_t>((c + i) % 4)];
        if (!client.send(serve::serve_request_to_json(gen_request(
                             "c" + std::to_string(c) + "g" + std::to_string(i),
                             circuit)),
                         &error))
          failures.fetch_add(1);
      }
      serve::ServeRequest sim;
      sim.id = "c" + std::to_string(c) + "sim";
      sim.type = "sim";
      sim.circuit = "lion";
      sim.tests = lion_tests;
      sim.budget.max_expansions = 1;
      if (!client.send(serve::serve_request_to_json(sim), &error))
        failures.fetch_add(1);

      for (int i = 0; i < kGensPerClient + 1; ++i) {
        std::string payload;
        if (!client.recv(&payload, 60000, &error)) {
          failures.fetch_add(1);
          return;
        }
        serve::ServeResponse resp;
        if (!serve::parse_serve_response(payload, &resp, &error)) {
          failures.fetch_add(1);  // every response must be schema-valid
          return;
        }
        if (resp.status == "ok") ok_count.fetch_add(1);
        else if (resp.status == "budget") budget_count.fetch_add(1);
        else failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ok_count.load(), kClients * kGensPerClient);
  EXPECT_EQ(budget_count.load(), kClients);  // every starved sim tripped
  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  EXPECT_EQ(snap.counter_value("serve.connections"),
            static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(snap.counter_value("serve.requests"),
            static_cast<std::uint64_t>(kClients * (kGensPerClient + 1)));
  // Every lookup is a hit or a miss. The 4 gen circuits miss once each and
  // then stay hot (24 gen lookups -> >= 20 hits). The starved sims compile
  // lion under the request budget, which degrades the compile — degraded
  // artifacts are deliberately not cached, so each sim flight that isn't
  // shared recompiles: between 1 (all 8 share one flight) and 8 misses.
  const std::uint64_t hits = snap.counter_value("cache.hot.hit");
  const std::uint64_t misses = snap.counter_value("cache.hot.miss");
  EXPECT_EQ(hits + misses,
            static_cast<std::uint64_t>(kClients * (kGensPerClient + 1)));
  EXPECT_GE(misses, 5u);
  EXPECT_LE(misses, 12u);
  EXPECT_GE(hits, 20u);
}

TEST(ServeServer, FullQueueShedsWithTypedOverloadedResponse) {
  obs::reset_metrics();
  // One worker, queue of one: a pipelined burst must overflow admission.
  ServerFixture fx("shed.sock", /*workers=*/1, /*queue_capacity=*/1);
  fx.start();
  serve::Client client;
  fx.connect(&client);
  std::string error;

  // Each request compiles a distinct synthetic machine (a guaranteed cache
  // miss with real synthesis work), so the single worker stays busy while
  // the burst lands.
  constexpr int kBurst = 10;
  for (int i = 0; i < kBurst; ++i) {
    serve::ServeRequest req;
    req.id = "b" + std::to_string(i);
    req.type = "gen";
    req.kiss2 = write_kiss2(
        make_synthetic_fsm("shed" + std::to_string(i), 3, 8, 2));
    ASSERT_TRUE(client.send(serve::serve_request_to_json(req), &error))
        << error;
  }

  int ok = 0, overloaded = 0;
  for (int i = 0; i < kBurst; ++i) {
    const serve::ServeResponse resp = must_recv(client, 60000);
    if (resp.status == "ok") ++ok;
    else if (resp.status == "overloaded") ++overloaded;
    else FAIL() << "unexpected status " << resp.status << ": " << resp.error;
    if (resp.status == "overloaded") {
      EXPECT_NE(resp.error.find("queue full"), std::string::npos);
    }
  }
  EXPECT_EQ(ok + overloaded, kBurst);
  EXPECT_GE(overloaded, 1) << "burst never overflowed the bounded queue";
  EXPECT_GE(ok, 1) << "admission shed everything, including running work";
  EXPECT_EQ(obs::snapshot_metrics().counter_value("serve.shed"),
            static_cast<std::uint64_t>(overloaded));
}

TEST(ServeServer, TornFramesReassembleAcrossWrites) {
  obs::reset_metrics();
  ServerFixture fx("torn.sock");
  fx.start();

  // Raw socket: deliver one valid ping frame in three separated writes.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, fx.path.c_str(), fx.path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  serve::ServeRequest ping;
  ping.id = "torn";
  ping.type = "ping";
  const std::string wire =
      serve::encode_frame(serve::serve_request_to_json(ping));
  const std::size_t cuts[2] = {2, wire.size() / 2};
  std::size_t off = 0;
  for (std::size_t cut : {cuts[0], cuts[1], wire.size()}) {
    ASSERT_EQ(::send(fd, wire.data() + off, cut - off, 0),
              static_cast<ssize_t>(cut - off));
    off = cut;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // The reassembled request gets a full-frame response.
  char chunk[512];
  serve::FrameDecoder decoder;
  std::string payload, error;
  for (int i = 0; i < 100; ++i) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    ASSERT_GT(n, 0);
    decoder.feed(chunk, static_cast<std::size_t>(n));
    if (decoder.next(&payload, &error) == serve::FrameDecoder::Outcome::kFrame)
      break;
  }
  serve::ServeResponse resp;
  ASSERT_TRUE(serve::parse_serve_response(payload, &resp, &error)) << error;
  EXPECT_EQ(resp.id, "torn");
  EXPECT_EQ(resp.status, "ok");
  ::close(fd);
}

TEST(ServeServer, OversizedFrameGetsParseResponseThenDisconnect) {
  obs::reset_metrics();
  ServerFixture fx("big.sock");
  fx.opts.max_frame_bytes = 256;
  fx.start();
  serve::Client client;
  fx.connect(&client);
  std::string error;

  // A legitimate frame whose payload exceeds the server's cap: the length
  // prefix itself is the protocol violation.
  ASSERT_TRUE(client.send(std::string(1024, 'x'), &error)) << error;
  const serve::ServeResponse resp = must_recv(client);
  EXPECT_EQ(resp.status, "parse");
  EXPECT_NE(resp.error.find("exceeds the limit"), std::string::npos)
      << resp.error;

  // The stream cannot be resynchronized: the server drops the connection.
  std::string payload;
  EXPECT_FALSE(client.recv(&payload, 5000, &error));
  EXPECT_EQ(obs::snapshot_metrics().counter_value("serve.frame_errors"), 1u);
}

TEST(ServeServer, MalformedJsonGetsParseResponseAndConnectionSurvives) {
  obs::reset_metrics();
  ServerFixture fx("badjson.sock");
  fx.start();
  serve::Client client;
  fx.connect(&client);
  std::string error;

  // Bad payload, intact framing: typed parse response, connection lives.
  ASSERT_TRUE(client.send("this is not json", &error)) << error;
  serve::ServeResponse resp = must_recv(client);
  EXPECT_EQ(resp.status, "parse");
  EXPECT_FALSE(resp.error.empty());

  serve::ServeRequest ping;
  ping.id = "after";
  ping.type = "ping";
  ASSERT_TRUE(client.send(serve::serve_request_to_json(ping), &error)) << error;
  resp = must_recv(client);
  EXPECT_EQ(resp.id, "after");
  EXPECT_EQ(resp.status, "ok");
  EXPECT_EQ(obs::snapshot_metrics().counter_value("serve.parse_errors"), 1u);
}

TEST(ServeServer, BudgetTrippedSimRecordsLedgerAndRespondsBudget) {
  obs::reset_metrics();
  ServerFixture fx("ledger.sock");
  const std::string ledger_path = ::testing::TempDir() + "fstg_srv_ledger.jsonl";
  std::remove(ledger_path.c_str());
  fx.opts.ledger_path = ledger_path;
  fx.start();
  serve::Client client;
  fx.connect(&client);
  std::string error;

  serve::ServeRequest sim;
  sim.id = "starved";
  sim.type = "sim";
  sim.circuit = "lion";
  sim.tests = tests_text_for("lion");
  sim.budget.max_expansions = 1;
  ASSERT_TRUE(client.send(serve::serve_request_to_json(sim), &error)) << error;
  serve::ServeResponse resp = must_recv(client, 60000);
  EXPECT_EQ(resp.status, "budget");
  EXPECT_FALSE(resp.error.empty());

  serve::ServeRequest gen = gen_request("fine", "lion");
  ASSERT_TRUE(client.send(serve::serve_request_to_json(gen), &error)) << error;
  resp = must_recv(client, 60000);
  EXPECT_EQ(resp.status, "ok") << resp.error;

  // One fstg.run.v1 record per pipeline request, budget trip included.
  fx.server->stop();
  const std::vector<store::RunRecord> records =
      store::Ledger(ledger_path).read();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].command, "serve.sim");
  EXPECT_EQ(records[0].circuit, "lion");
  EXPECT_EQ(records[0].exit_code, 3);
  EXPECT_EQ(records[0].budget_trips, 1u);
  EXPECT_EQ(records[1].command, "serve.gen");
  EXPECT_EQ(records[1].exit_code, 0);
  std::remove(ledger_path.c_str());
}

TEST(ServeServer, StaticPruneLeavesSimTotalsUnchanged) {
  // Pruned faults are proven undetectable and count in the raw totals, so
  // a pruned sim reports exactly the numbers of an unpruned one.
  ServerFixture fx("prune.sock");
  fx.start();
  serve::Client client;
  fx.connect(&client);
  const std::string tests = tests_text_for("lion");
  std::vector<obs::Json> results;
  for (const bool prune : {false, true}) {
    serve::ServeRequest sim;
    sim.id = prune ? "pruned" : "plain";
    sim.type = "sim";
    sim.circuit = "lion";
    sim.tests = tests;
    sim.static_prune = prune;
    std::string error;
    ASSERT_TRUE(client.send(serve::serve_request_to_json(sim), &error))
        << error;
    const serve::ServeResponse resp = must_recv(client, 60000);
    ASSERT_EQ(resp.status, "ok") << resp.error;
    obs::Json doc;
    ASSERT_TRUE(obs::parse_json(resp.result_json, &doc, &error)) << error;
    ASSERT_NE(doc.find("result"), nullptr) << resp.result_json;
    results.push_back(*doc.find("result"));
  }
  // Lion has a bridge the analyzer proves untestable.
  ASSERT_NE(results[1].find("br_pruned"), nullptr);
  EXPECT_GT(results[1].num("br_pruned"), 0.0);
  for (const char* key : {"sa_detected", "sa_total", "sa_coverage",
                          "sa_effective", "br_detected", "br_total",
                          "br_coverage", "br_effective"}) {
    const obs::Json* plain = results[0].find(key);
    const obs::Json* pruned = results[1].find(key);
    ASSERT_TRUE(plain != nullptr && pruned != nullptr) << key;
    EXPECT_EQ(plain->number, pruned->number) << key;
  }
}

TEST(ServeServer, SimRequestAboveFourMebibytesGetsATypedOkResponse) {
  // Under the default frame cap a sim request may carry a test file of
  // several MB, as `fstg gen nucpwr` writes: lion's tests repeated past
  // 4 MiB make one.
  ServerFixture fx("large.sock");
  fx.start();
  serve::Client client;
  fx.connect(&client);
  const std::string text = tests_text_for("lion");
  const std::size_t count_at = text.find(".tests ");
  ASSERT_NE(count_at, std::string::npos);
  const std::size_t body_at = text.find('\n', count_at) + 1;
  const std::string body = text.substr(body_at);
  const std::size_t per_copy = static_cast<std::size_t>(
      std::count(body.begin(), body.end(), '\n'));
  std::string tests;
  std::size_t copies = 0;
  for (; tests.size() <= (std::size_t{9} << 19); ++copies) tests += body;
  serve::ServeRequest sim;
  sim.id = "large";
  sim.type = "sim";
  sim.circuit = "lion";
  sim.tests = text.substr(0, count_at) + ".tests " +
              std::to_string(copies * per_copy) + "\n" + tests;
  const std::string request = serve::serve_request_to_json(sim);
  ASSERT_GT(request.size(), std::size_t{4} << 20);
  std::string error;
  ASSERT_TRUE(client.send(request, &error)) << error;
  const serve::ServeResponse resp = must_recv(client, 120000);
  EXPECT_EQ(resp.id, "large");
  ASSERT_EQ(resp.status, "ok") << resp.error;
  obs::Json doc;
  ASSERT_TRUE(obs::parse_json(resp.result_json, &doc, &error)) << error;
  const obs::Json* result = doc.find("result");
  ASSERT_NE(result, nullptr) << resp.result_json;
  EXPECT_EQ(result->num("sa_coverage"), 100.0);
}

TEST(ServeServer, StopDrainsQueuedRequestsWithTypedResponses) {
  obs::reset_metrics();
  // One worker, a queue wide enough to admit the whole burst: stopping
  // mid-burst leaves a backlog that drain must answer, not drop.
  ServerFixture fx("drain.sock", /*workers=*/1, /*queue_capacity=*/64);
  fx.start();
  serve::Client client;
  fx.connect(&client);
  std::string error;

  constexpr int kBurst = 64;
  for (int i = 0; i < kBurst; ++i) {
    serve::ServeRequest req;
    req.id = "d" + std::to_string(i);
    req.type = "gen";
    req.kiss2 = write_kiss2(
        make_synthetic_fsm("drain" + std::to_string(i), 3, 8, 2));
    ASSERT_TRUE(client.send(serve::serve_request_to_json(req), &error))
        << error;
  }
  // Stop mid-burst: the in-flight request finishes, workers park, and the
  // backlog is shed with typed "server stopping" responses — never
  // silently dropped. The single worker cannot compile 64 distinct
  // machines before stop lands, so a backlog is guaranteed.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  fx.server->stop();

  int received = 0, ok = 0, overloaded = 0;
  for (int i = 0; i < kBurst; ++i) {
    std::string payload;
    if (!client.recv(&payload, 10000, &error)) break;
    serve::ServeResponse resp;
    ASSERT_TRUE(serve::parse_serve_response(payload, &resp, &error))
        << error << "\n" << payload;
    ++received;
    if (resp.status == "ok") ++ok;
    else if (resp.status == "overloaded") {
      ++overloaded;
      EXPECT_NE(resp.error.find("stopping"), std::string::npos) << resp.error;
    } else {
      FAIL() << "unexpected status " << resp.status;
    }
  }
  EXPECT_EQ(received, kBurst);
  EXPECT_EQ(ok + overloaded, kBurst);
  EXPECT_GE(overloaded, 1) << "stop drained nothing; backlog never formed";
  EXPECT_EQ(obs::snapshot_metrics().counter_value("serve.shed"),
            static_cast<std::uint64_t>(overloaded));
}

}  // namespace
}  // namespace fstg
