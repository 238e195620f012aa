#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/static_faults.h"
#include "atpg/cycles.h"
#include "atpg/test_io.h"
#include "base/error.h"
#include "base/obs/json.h"
#include "base/obs/metrics.h"
#include "base/obs/telemetry.h"
#include "base/store/hash.h"
#include "base/store/ledger.h"
#include "harness/experiment.h"
#include "kiss/kiss2_parser.h"
#include "kiss/kiss2_writer.h"
#include "lint/diagnostic.h"
#include "lint/lint.h"

namespace fstg::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Adapters for the two strerror_r flavors: GNU returns the message (which
/// may or may not be `buf`), XSI returns 0 with the message in `buf`.
/// Overload resolution picks whichever one this libc provides (the other
/// is dead code, hence maybe_unused).
[[maybe_unused]] const char* strerror_adapt(const char* r, const char*) {
  return r;
}
[[maybe_unused]] const char* strerror_adapt(int r, const char* buf) {
  return r == 0 ? buf : nullptr;
}

/// Thread-safe description of the current errno. std::strerror writes to a
/// static buffer (clang-tidy concurrency-mt-unsafe); worker and reader
/// threads report socket errors concurrently, so use strerror_r into a
/// local buffer instead.
std::string errno_string() {
  const int err = errno;
  char buf[256];
  buf[0] = '\0';
  const char* msg = strerror_adapt(strerror_r(err, buf, sizeof buf), buf);
  return msg != nullptr && *msg != '\0' ? std::string(msg)
                                        : "errno " + std::to_string(err);
}

/// Write all of `data` with per-call timeouts (SO_SNDTIMEO is set on every
/// connection fd): a stalled peer must never wedge a worker forever.
bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void set_send_timeout(int fd, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

/// --- Hot circuit cache ---------------------------------------------------
///
/// Single-flight, LRU-bounded map from content key to the compiled
/// CircuitExperiment. Concurrent requests for the same circuit share one
/// compilation: the first arrival owns the flight and computes, later
/// arrivals block on the shared future (and count as hits — they paid no
/// compute). Keys follow src/harness/cache: canonical KISS2 text plus every
/// option that changes the artifact plus a schema tag. Degraded (budget-cut)
/// compiles and failed flights are removed after completion so a tight
/// budget can never poison the cache for a later unlimited request —
/// in-flight waiters inherit the owner's outcome, the *next* request
/// recomputes.
class HotCache {
 public:
  explicit HotCache(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  struct Lookup {
    std::shared_ptr<const CircuitExperiment> exp;
    bool hit = false;
  };

  Lookup get_or_compute(
      std::uint64_t key,
      const std::function<std::shared_ptr<const CircuitExperiment>()>&
          compute) {
    std::promise<std::shared_ptr<const CircuitExperiment>> promise;
    std::shared_future<std::shared_ptr<const CircuitExperiment>> flight;
    bool owner = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = map_.find(key);
      if (it != map_.end()) {
        it->second.tick = ++tick_;
        flight = it->second.flight;
      } else {
        owner = true;
        flight = promise.get_future().share();
        map_[key] = Entry{flight, ++tick_};
        evict_locked(key);
      }
    }
    if (!owner) {
      c_hit_.inc();
      return Lookup{flight.get(), true};  // rethrows the owner's failure
    }
    c_miss_.inc();
    try {
      std::shared_ptr<const CircuitExperiment> exp = compute();
      promise.set_value(exp);
      if (exp->gen.degraded) erase(key);
      return Lookup{std::move(exp), false};
    } catch (...) {
      promise.set_exception(std::current_exception());
      erase(key);
      throw;
    }
  }

 private:
  struct Entry {
    std::shared_future<std::shared_ptr<const CircuitExperiment>> flight;
    std::uint64_t tick = 0;
  };

  void erase(std::uint64_t key) {
    std::lock_guard<std::mutex> lock(mu_);
    map_.erase(key);
  }

  /// Drop least-recently-used *completed* entries past capacity. In-flight
  /// entries (and the one just inserted) are never evicted: waiters hold
  /// the shared future anyway, so evicting them would only lose the
  /// single-flight dedup.
  void evict_locked(std::uint64_t inserted_key) {
    while (map_.size() > capacity_) {
      auto victim = map_.end();
      for (auto it = map_.begin(); it != map_.end(); ++it) {
        if (it->first == inserted_key) continue;
        if (it->second.flight.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready)
          continue;
        if (victim == map_.end() || it->second.tick < victim->second.tick)
          victim = it;
      }
      if (victim == map_.end()) return;  // everything else still in flight
      map_.erase(victim);
      c_evict_.inc();
    }
  }

  // Registered at construction, not first use: a live `metrics` scrape must
  // list the cache counters even before the first compile completes.
  const obs::Counter c_hit_ = obs::counter("cache.hot.hit");
  const obs::Counter c_miss_ = obs::counter("cache.hot.miss");
  const obs::Counter c_evict_ = obs::counter("cache.hot.evict");

  std::mutex mu_;
  std::map<std::uint64_t, Entry> map_;
  std::uint64_t tick_ = 0;
  std::size_t capacity_;
};

}  // namespace

/// One accepted connection. The reader thread and the workers share it: the
/// reader feeds the frame decoder, workers write responses under write_mu
/// (responses to pipelined requests may complete out of order; the frame
/// protocol keeps them intact, the `id` field keeps them correlated).
struct Connection {
  int fd = -1;
  std::mutex write_mu;
  std::atomic<bool> closed{false};
  std::thread reader;
};

struct Server::Impl {
  ServeOptions opts;

  int listen_fd = -1;
  int resolved_port = -1;
  int wake_pipe[2] = {-1, -1};  ///< a written byte is never read: once
                                ///< signalled, every poller wakes forever

  std::thread accept_thread;
  std::atomic<bool> stop_flag{false};    ///< teardown in progress (stop())
  std::atomic<bool> stop_signal{false};  ///< stop requested (wait() returns)
  std::atomic<bool> started{false};
  std::atomic<bool> once_accepted{false};

  std::mutex conn_mu;
  std::vector<std::shared_ptr<Connection>> conns;

  struct Job {
    std::shared_ptr<Connection> conn;
    ServeRequest req;
    Clock::time_point arrived;
  };
  std::mutex qmu;
  std::condition_variable qcv;
  std::deque<Job> queue;
  std::vector<std::thread> workers;

  HotCache cache;

  explicit Impl(ServeOptions o)
      : opts(std::move(o)), cache(opts.max_circuits) {}

  // --- lifecycle ---------------------------------------------------------

  void signal_stop() {
    stop_signal.store(true);
    if (wake_pipe[1] >= 0) {
      const char b = 's';
      [[maybe_unused]] ssize_t n = ::write(wake_pipe[1], &b, 1);
    }
  }

  // --- request plumbing ---------------------------------------------------

  void respond(const std::shared_ptr<Connection>& conn,
               const ServeResponse& resp) {
    static const obs::Counter c_werr = obs::counter("serve.write_errors");
    if (conn->closed.load()) return;
    const std::string frame = encode_frame(serve_response_to_json(resp));
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (conn->closed.load()) return;
    if (!send_all(conn->fd, frame)) {
      conn->closed.store(true);
      c_werr.inc();
    }
  }

  void ledger_append(const ServeRequest& req, const ServeResponse& resp) {
    if (opts.ledger_path.empty()) return;
    store::RunRecord rec;
    rec.tool = "fstg";
    rec.command = "serve." + req.type;
    rec.circuit = req.circuit;
    store::KeyBuilder k;
    k.add(req.type).add(req.circuit).add(req.kiss2).add(req.tests);
    k.add_i64(req.uio).add_i64(req.xfer);
    k.add_i64(static_cast<std::int64_t>(req.budget.time_budget_ms));
    k.add_u64(req.budget.max_expansions);
    rec.config_hash = store::hash_hex(k.digest());
    if (resp.status == "ok") rec.exit_code = 0;
    else if (resp.status == "budget") rec.exit_code = 3;
    else if (resp.status == "overloaded") rec.exit_code = 4;
    else rec.exit_code = 2;  // parse | error
    rec.wall_ms = resp.wall_ms;
    rec.budget_trips = resp.status == "budget" ? 1 : 0;
    store::Ledger ledger(opts.ledger_path);
    std::string error;
    static const obs::Counter c_lerr = obs::counter("serve.ledger_errors");
    if (!ledger.append(std::move(rec), &error)) c_lerr.inc();
  }

  robust::Budget effective_budget(const ServeRequest& req) const {
    return req.budget.unlimited() ? opts.default_budget : req.budget;
  }

  /// Resolve the request's machine: a built-in benchmark by name, or
  /// inline KISS2 text. Throws (ParseError / Error) on anything invalid.
  Kiss2Fsm load_request_fsm(const ServeRequest& req) const {
    if (!req.circuit.empty()) return load_benchmark(req.circuit);
    return parse_kiss2(req.kiss2, "inline");
  }

  HotCache::Lookup compile(const ServeRequest& req,
                           const robust::Budget& budget) {
    const Kiss2Fsm fsm = load_request_fsm(req);
    // Key: canonical machine text + the generator options that change the
    // artifact + a schema tag. The budget is deliberately excluded, like
    // harness::gen_key: degraded results are never cached, and complete
    // ones are budget-independent.
    store::KeyBuilder k;
    k.add("serve.hot.v1").add(write_kiss2(fsm));
    k.add_i64(req.uio).add_i64(req.xfer);
    return cache.get_or_compute(k.digest(), [&] {
      ExperimentOptions options;
      options.gen.uio_max_length = req.uio;
      options.gen.transfer_max_length = req.xfer;
      options.gen.budget = budget;
      return std::make_shared<const CircuitExperiment>(run_fsm(fsm, options));
    });
  }

  // --- handlers -----------------------------------------------------------

  void handle_gen(const ServeRequest& req, ServeResponse* resp) {
    const HotCache::Lookup got = compile(req, effective_budget(req));
    const CircuitExperiment& exp = *got.exp;

    const int sv = exp.synth.circuit.num_sv;
    std::ostringstream os;
    os.precision(3);
    os << std::fixed;
    os << "{\"circuit\": " << obs::json_quote(exp.fsm.name)
       << ", \"tests\": " << exp.gen.tests.size()
       << ", \"total_length\": " << exp.gen.tests.total_length()
       << ", \"cycles\": " << test_application_cycles(sv, exp.gen.tests)
       << ", \"uio_states\": " << exp.gen.uios.count()
       << ", \"degraded\": " << (exp.gen.degraded ? "true" : "false")
       << ", \"cache_hit\": " << (got.hit ? "true" : "false")
       << ", \"test_file\": "
       << obs::json_quote(write_test_file(test_file_for(exp)))
       << "}";
    resp->result_json = os.str();
  }

  void handle_sim(const ServeRequest& req, ServeResponse* resp) {
    const robust::Budget budget = effective_budget(req);
    const HotCache::Lookup got = compile(req, budget);
    const CircuitExperiment& exp = *got.exp;
    const TestFile file = parse_test_file(req.tests);

    // Same contract as `fstg sim`: the budget bounds the fault
    // simulations, and exhaustion is a hard budget failure (status
    // "budget"), never a silently degraded result. The daemon reports raw
    // coverage and leaves redundancy classification to `fstg sim`: it would
    // add one more engine run to every request, over the 2^(sv+pi)
    // length-one scan tests for each missed fault. Traced on the seven
    // serve benchmark circuits with their generated tests, that run
    // (`redundancy.classify`) reads 0.08-0.99 ms against 3.3-17.1 ms of
    // fault simulation (medians of 5, 4 shared vCPUs), and it grows with
    // the misses: 8.9 ms against 1.0 ms on keyb's two shortest tests
    // (about 4,700 misses). The static pre-flight is polynomial, so
    // request-level opt-in is allowed.
    GateLevelOptions options;
    options.classify_redundancy = false;
    options.static_prune = req.static_prune;
    options.budget = budget;
    const GateLevelResult gate = simulate_test_file(exp, file, options);

    std::ostringstream os;
    os.precision(3);
    os << std::fixed;
    os << "{\"circuit\": " << obs::json_quote(exp.fsm.name)
       << ", \"tests\": " << file.tests.size()
       << ", \"cache_hit\": " << (got.hit ? "true" : "false");
    if (gate.static_pruned)
      os << ", \"sa_pruned\": " << gate.sa_pruned
         << ", \"br_pruned\": " << gate.br_pruned;
    os << ", \"sa_detected\": " << gate.sa.sim.detected_faults
       << ", \"sa_total\": " << gate.sa.sim.total_faults
       << ", \"sa_coverage\": " << gate.sa.sim.coverage_percent()
       << ", \"sa_effective\": " << gate.sa.effective_tests.size()
       << ", \"br_detected\": " << gate.br.sim.detected_faults
       << ", \"br_total\": " << gate.br.sim.total_faults
       << ", \"br_coverage\": " << gate.br.sim.coverage_percent()
       << ", \"br_effective\": " << gate.br.effective_tests.size() << "}";
    resp->result_json = os.str();
  }

  void handle_lint(const ServeRequest& req, ServeResponse* resp) {
    lint::LintOptions options;
    options.budget = effective_budget(req);
    options.uio_max_length = req.uio;
    const lint::LintReport report =
        lint::run_lint_kiss2(load_request_fsm(req), nullptr, options);
    resp->result_json = lint::report_to_json(report);
    if (report.truncated) {
      // Findings present are valid; absences prove nothing. Same category
      // as `fstg lint`'s exit 3.
      resp->status = "budget";
      resp->error = "lint budget exhausted; findings are partial";
    }
  }

  void execute(Job job) {
    static const obs::Counter c_req = obs::counter("serve.requests");
    static const obs::Counter c_internal = obs::counter("serve.internal_errors");
    ServeResponse resp;
    resp.id = job.req.id;
    resp.type = job.req.type;
    const Clock::time_point t0 = Clock::now();
    try {
      const char* stage = job.req.type == "gen"   ? "serve.gen"
                          : job.req.type == "sim" ? "serve.sim"
                                                  : "serve.lint";
      obs::StageScope scope(stage, job.req.circuit.empty()
                                       ? std::string("inline")
                                       : job.req.circuit);
      if (job.req.type == "gen") handle_gen(job.req, &resp);
      else if (job.req.type == "sim") handle_sim(job.req, &resp);
      else handle_lint(job.req, &resp);
    } catch (const BudgetError& e) {
      resp.status = "budget";
      resp.error = e.what();
      resp.result_json = "{}";
    } catch (const Error& e) {  // ParseError included: bad circuit/input
      resp.status = "error";
      resp.error = e.what();
      resp.result_json = "{}";
    } catch (const std::exception& e) {
      resp.status = "error";
      resp.error = std::string("internal: ") + e.what();
      resp.result_json = "{}";
      c_internal.inc();
    }
    resp.wall_ms = ms_since(t0);
    c_req.inc();
    ledger_append(job.req, resp);
    respond(job.conn, resp);
  }

  void worker_loop() {
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(qmu);
        qcv.wait(lock, [&] { return stop_flag.load() || !queue.empty(); });
        // Teardown beats the backlog: remaining queued jobs are shed with a
        // typed response by stop(), not silently dropped.
        if (stop_flag.load()) return;
        job = std::move(queue.front());
        queue.pop_front();
      }
      execute(std::move(job));
    }
  }

  void shed(const Job& job, const std::string& why) {
    static const obs::Counter c_shed = obs::counter("serve.shed");
    c_shed.inc();
    ServeResponse resp;
    resp.id = job.req.id;
    resp.type = job.req.type;
    resp.status = "overloaded";
    resp.error = why;
    resp.wall_ms = ms_since(job.arrived);
    ledger_append(job.req, resp);
    respond(job.conn, resp);
  }

  void handle_frame(const std::shared_ptr<Connection>& conn,
                    const std::string& payload) {
    static const obs::Counter c_parse = obs::counter("serve.parse_errors");
    const Clock::time_point t0 = Clock::now();
    ServeRequest req;
    std::string perr;
    if (!parse_serve_request(payload, &req, &perr)) {
      c_parse.inc();
      ServeResponse resp;
      resp.status = "parse";
      resp.error = perr;
      resp.wall_ms = ms_since(t0);
      respond(conn, resp);  // framing is still aligned: connection survives
      return;
    }
    if (req.type == "ping") {
      ServeResponse resp;
      resp.id = req.id;
      resp.type = req.type;
      resp.wall_ms = ms_since(t0);
      respond(conn, resp);
      return;
    }
    if (req.type == "metrics") {
      // Scrape the live registry on the reader thread: cheap, and it must
      // work even when every worker is busy — that is when you want it.
      ServeResponse resp;
      resp.id = req.id;
      resp.type = req.type;
      resp.result_json = obs::metrics_to_json(obs::snapshot_metrics());
      resp.wall_ms = ms_since(t0);
      respond(conn, resp);
      return;
    }
    if (req.type == "shutdown") {
      ServeResponse resp;
      resp.id = req.id;
      resp.type = req.type;
      resp.wall_ms = ms_since(t0);
      respond(conn, resp);
      signal_stop();
      return;
    }
    // Pipeline request: admission control. Bounded queue, graceful
    // shedding — a full queue answers immediately with a typed
    // "overloaded" response instead of queuing unbounded latency.
    Job job{conn, std::move(req), t0};
    {
      std::lock_guard<std::mutex> lock(qmu);
      if (!stop_flag.load() &&
          queue.size() < static_cast<std::size_t>(opts.queue_capacity)) {
        queue.push_back(std::move(job));
        qcv.notify_one();
        return;
      }
    }
    shed(job, stop_flag.load() ? "server stopping" : "queue full");
  }

  void reader_loop(std::shared_ptr<Connection> conn) {
    FrameDecoder decoder(opts.max_frame_bytes);
    char buf[4096];
    // Distinguishes a dead connection (peer closed, hard error, protocol
    // violation) from a stop-initiated exit: on stop the connection must
    // stay writable so queued jobs can still be answered (executed or shed)
    // during drain — stop() closes the fds afterwards.
    bool conn_dead = false;
    while (!stop_signal.load() && !conn->closed.load() && !conn_dead) {
      pollfd fds[2] = {{conn->fd, POLLIN, 0}, {wake_pipe[0], POLLIN, 0}};
      const int pr = ::poll(fds, 2, 250);
      if (pr < 0) {
        if (errno == EINTR) continue;
        conn_dead = true;
        break;
      }
      if (fds[1].revents & POLLIN) break;  // stop signalled
      if (pr == 0) continue;
      if (fds[0].revents & (POLLERR | POLLHUP | POLLNVAL) &&
          !(fds[0].revents & POLLIN)) {
        conn_dead = true;
        break;
      }
      if (!(fds[0].revents & POLLIN)) continue;
      const ssize_t n = ::read(conn->fd, buf, sizeof buf);
      if (n <= 0) {  // peer closed (or hard error)
        conn_dead = true;
        break;
      }
      decoder.feed(buf, static_cast<std::size_t>(n));
      for (;;) {
        std::string payload, err;
        const FrameDecoder::Outcome out = decoder.next(&payload, &err);
        if (out == FrameDecoder::Outcome::kNeedMore) break;
        if (out == FrameDecoder::Outcome::kError) {
          // An untrusted length prefix cannot be resynchronized past:
          // answer with a typed parse response, then drop the connection.
          static const obs::Counter c_frame =
              obs::counter("serve.frame_errors");
          c_frame.inc();
          ServeResponse resp;
          resp.status = "parse";
          resp.error = err;
          respond(conn, resp);
          conn_dead = true;
          break;
        }
        handle_frame(conn, payload);
      }
    }
    if (conn_dead) {
      {
        std::lock_guard<std::mutex> lock(conn->write_mu);
        conn->closed.store(true);
      }
      // Let the peer observe EOF immediately instead of waiting out its
      // receive timeout. stop() still owns the final ::close.
      ::shutdown(conn->fd, SHUT_RDWR);
    }
    // --once: the single served connection going away is the stop signal.
    if (opts.once) signal_stop();
  }

  void accept_loop() {
    static const obs::Counter c_conn = obs::counter("serve.connections");
    while (!stop_signal.load()) {
      pollfd fds[2] = {{listen_fd, POLLIN, 0}, {wake_pipe[0], POLLIN, 0}};
      const int pr = ::poll(fds, 2, 250);
      if (pr < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (fds[1].revents & POLLIN) break;
      if (!(fds[0].revents & POLLIN)) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      set_send_timeout(fd, 10);
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      c_conn.inc();
      {
        std::lock_guard<std::mutex> lock(conn_mu);
        conns.push_back(conn);
      }
      conn->reader = std::thread([this, conn] { reader_loop(conn); });
      if (opts.once) {
        once_accepted.store(true);
        return;  // exactly one connection; stop accepting immediately
      }
    }
  }
};

Server::Server(ServeOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  Impl& im = *impl_;
  if (im.started.load()) {
    if (error) *error = "server already started";
    return false;
  }
  // Register the full serve counter catalog before the first connection so
  // every `metrics` scrape lists every counter, including those whose first
  // event has not fired yet (dashboards and tests rely on a stable set).
  for (const char* name :
       {"serve.requests", "serve.connections", "serve.shed",
        "serve.parse_errors", "serve.frame_errors", "serve.write_errors",
        "serve.ledger_errors", "serve.internal_errors"})
    obs::counter(name);
  // Same contract for the analysis.* and lint.* catalogs: sim requests with
  // static_prune and lint requests bump them lazily, but a scrape taken
  // before the first such request must already list them.
  analysis::register_analysis_counters();
  lint::register_lint_counters();
  if (::pipe(im.wake_pipe) != 0) {
    if (error) *error = std::string("pipe: ") + errno_string();
    return false;
  }
  if (!im.opts.socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (im.opts.socket_path.size() >= sizeof addr.sun_path) {
      if (error) *error = "socket path too long: " + im.opts.socket_path;
      return false;
    }
    std::memcpy(addr.sun_path, im.opts.socket_path.c_str(),
                im.opts.socket_path.size() + 1);
    ::unlink(im.opts.socket_path.c_str());  // a stale socket is ours to replace
    im.listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (im.listen_fd < 0 ||
        ::bind(im.listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0) {
      if (error)
        *error = "cannot bind " + im.opts.socket_path + ": " +
                 errno_string();
      return false;
    }
  } else if (im.opts.tcp_port >= 0) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(im.opts.tcp_port));
    im.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    const int one = 1;
    if (im.listen_fd >= 0)
      ::setsockopt(im.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (im.listen_fd < 0 ||
        ::bind(im.listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0) {
      if (error)
        *error = "cannot bind 127.0.0.1:" + std::to_string(im.opts.tcp_port) +
                 ": " + errno_string();
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(im.listen_fd, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0)
      im.resolved_port = ntohs(bound.sin_port);
  } else {
    if (error) *error = "serve needs a socket path or a TCP port";
    return false;
  }
  if (::listen(im.listen_fd, 64) != 0) {
    if (error) *error = std::string("listen: ") + errno_string();
    return false;
  }
  const int workers = im.opts.workers < 1 ? 1 : im.opts.workers;
  im.workers.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    im.workers.emplace_back([this] { impl_->worker_loop(); });
  im.accept_thread = std::thread([this] { impl_->accept_loop(); });
  im.started.store(true);
  return true;
}

void Server::wait() {
  Impl& im = *impl_;
  if (!im.started.load()) return;
  // The wake byte is written once and never consumed, so POLLIN is a level
  // every waiter observes — this poll, the accept loop, and every reader.
  while (!im.stop_signal.load()) {
    pollfd p{im.wake_pipe[0], POLLIN, 0};
    const int r = ::poll(&p, 1, 250);
    if (r < 0 && errno != EINTR) break;
    if (r > 0 && (p.revents & POLLIN)) break;
  }
}

void Server::stop() {
  Impl& im = *impl_;
  if (!im.started.load()) return;
  if (im.stop_flag.exchange(true)) return;  // idempotent
  im.signal_stop();

  // 1. No new connections.
  if (im.accept_thread.joinable()) im.accept_thread.join();
  if (im.listen_fd >= 0) {
    ::close(im.listen_fd);
    im.listen_fd = -1;
  }
  if (!im.opts.socket_path.empty()) ::unlink(im.opts.socket_path.c_str());

  // 2. No new requests: join every reader (they saw the wake byte).
  {
    std::lock_guard<std::mutex> lock(im.conn_mu);
    for (auto& conn : im.conns)
      if (conn->reader.joinable()) conn->reader.join();
  }

  // 3. Workers finish their in-flight request and exit.
  im.qcv.notify_all();
  for (std::thread& w : im.workers)
    if (w.joinable()) w.join();
  im.workers.clear();

  // 4. Shed the backlog with typed responses (connection fds still open),
  //    then close the sockets.
  std::deque<Impl::Job> leftover;
  {
    std::lock_guard<std::mutex> lock(im.qmu);
    leftover.swap(im.queue);
  }
  for (Impl::Job& job : leftover) im.shed(job, "server stopping");
  {
    std::lock_guard<std::mutex> lock(im.conn_mu);
    for (auto& conn : im.conns) {
      conn->closed.store(true);
      if (conn->fd >= 0) {
        ::close(conn->fd);
        conn->fd = -1;
      }
    }
    im.conns.clear();
  }
  for (int& fd : im.wake_pipe) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  im.started.store(false);
}

void Server::signal_stop_async() { impl_->signal_stop(); }

bool Server::running() const { return impl_->started.load(); }

int Server::port() const { return impl_->resolved_port; }

const ServeOptions& Server::options() const { return impl_->opts; }

// --- Client ----------------------------------------------------------------

Client::Client() = default;

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {

/// Retry until the deadline: ctest starts servers in the background, so the
/// first connect may race the bind.
bool connect_with_retry(const std::function<int()>& try_connect, int timeout_ms,
                        int* fd_out, std::string* error) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const int fd = try_connect();
    if (fd >= 0) {
      *fd_out = fd;
      return true;
    }
    if (Clock::now() >= deadline) {
      if (error) *error = std::string("connect: ") + errno_string();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace

bool Client::connect_unix(const std::string& path, int timeout_ms,
                          std::string* error) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    if (error) *error = "socket path too long: " + path;
    return false;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return connect_with_retry(
      [&]() -> int {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) return -1;
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) == 0) {
          set_send_timeout(fd, 10);
          return fd;
        }
        const int saved = errno;
        ::close(fd);
        errno = saved;
        return -1;
      },
      timeout_ms, &fd_, error);
}

bool Client::connect_tcp(int port, int timeout_ms, std::string* error) {
  close();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  return connect_with_retry(
      [&]() -> int {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) return -1;
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) == 0) {
          set_send_timeout(fd, 10);
          return fd;
        }
        const int saved = errno;
        ::close(fd);
        errno = saved;
        return -1;
      },
      timeout_ms, &fd_, error);
}

bool Client::send(const std::string& payload, std::string* error) {
  if (fd_ < 0) {
    if (error) *error = "not connected";
    return false;
  }
  if (send_all(fd_, encode_frame(payload))) return true;
  if (error) *error = std::string("send: ") + errno_string();
  return false;
}

bool Client::recv(std::string* payload, int timeout_ms, std::string* error) {
  if (fd_ < 0) {
    if (error) *error = "not connected";
    return false;
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  char buf[4096];
  for (;;) {
    std::string err;
    const FrameDecoder::Outcome out = decoder_.next(payload, &err);
    if (out == FrameDecoder::Outcome::kFrame) return true;
    if (out == FrameDecoder::Outcome::kError) {
      if (error) *error = err;
      return false;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) {
      if (error) *error = "timed out waiting for a response frame";
      return false;
    }
    pollfd p{fd_, POLLIN, 0};
    const int pr = ::poll(&p, 1, static_cast<int>(left.count()));
    if (pr < 0) {
      if (errno == EINTR) continue;
      if (error) *error = std::string("poll: ") + errno_string();
      return false;
    }
    if (pr == 0) continue;  // loop re-checks the deadline
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n < 0) {
      if (error) *error = std::string("read: ") + errno_string();
      return false;
    }
    if (n == 0) {
      if (error) *error = "server closed the connection";
      return false;
    }
    decoder_.feed(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace fstg::serve
