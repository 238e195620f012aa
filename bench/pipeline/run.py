#!/usr/bin/env python3
"""Pipeline benchmark for fstg: end-to-end and per-layer timing of
`fstg sim`, the Table 6 suite loop and `fstg serve`.

Run from the repository root (README.md in this directory has the metric
catalog and the reasons behind each workload):

  python3 bench/pipeline/run.py --workload sim_rie --seed 1 --seconds 35
  python3 bench/pipeline/run.py --workload sim_rie --trace 1
  python3 bench/pipeline/run.py --smoke
  python3 bench/pipeline/run.py --compare parent.json change.json \
      --claim sim_rie:wall_s

It builds the program and the probe into .bench_build/pipeline on first use,
runs every op in a fresh child process, times a fixed reference kernel
between ops to scale the times to a quiet host, checks each op's output
against the paper's claims, prints every metric by name with its unit,
appends the run to the -o results file, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import random
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import compare  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "pipeline")
WORKLOADS = ["sim_rie", "suite_cold", "serve_mixed"]

# Circuits per workload, full run and --smoke. The full suite list is the
# probe's own (Table 6 circuits with pi + sv <= 13).
SIM_CIRCUIT = {False: "rie", True: "dk17"}
SUITE_CIRCUITS = {False: None, True: ["lion", "dk17"]}
SERVE_CIRCUITS = {
    False: ["bbara", "cse", "dk16", "ex4", "keyb", "mark1", "opus"],
    True: ["lion", "dk17"],
}
SERVE_BLOCK = {"sim": 7, "gen": 3}  # per circuit: 70% sims, 30% hot gens
SMOKE_REQUESTS = 20
SETUPS = 5                 # set-ups per untraced run; setup_s is the median

# The per-layer metric a program span's self time (its duration minus its
# child spans') is charged to. A span not listed is charged to its nearest
# listed ancestor on the same thread. pool.* spans are dropped: they are the
# thread pool's slots, on every worker thread, and would count parallel work
# twice. harness.* are the suite op's spans around each harness call.
LAYERS = {
    "lint.preflight": "lint.preflight_ms",
    "synth": "netlist.synth_ms",
    "verify.readback": "netlist.verify_ms",
    "generate": "atpg.generate_ms",
    "uio.derive": "seq.uio_ms",
    "atpg.chain": "atpg.chain_ms",
    "gate_level.stuck_at": "fault.sim_sa_ms",
    "gate_level.bridging": "fault.sim_br_ms",
    "redundancy.classify": "fault.redundancy_ms",
    "analysis.static_prune": "analysis.static_ms",
    "harness.run_circuit": "harness.run_circuit_ms",
    "harness.run_gate_level": "harness.run_gate_level_ms",
}
# A fault simulation under none of those spans is the stuck-at pre-check
# that `fstg sim` and serve's sim handler run and then discard.
PRECHECK_SPAN, PRECHECK_METRIC = "fault_sim.run", "fault.precheck_sa_ms"


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


# --- host speed --------------------------------------------------------------

# On a shared host a CPU runs at one speed while the core it shares with
# another tenant is idle and up to 1.8x slower while it is busy. The share of
# slow time drifts over minutes, and a run of 35 s cannot average it out. So
# every untraced time is divided by the host's slowdown in the same run: the
# probe's reference kernel (a fixed fault simulation, see probe.cpp) is timed
# between ops for REF_SHARE of the time spent in ops and set-ups, and its
# mean is set against REF_S. The mean, not the median: each sample is either
# fast or slow, and only the mean moves in step with the share of slow time.
REF_SHARE = 0.25
REF_S = 0.025      # the kernel's time with the host quiet
REF_CHECK = 1199843


class Host:
    """Reference-kernel samples taken between the ops of one run."""

    def __init__(self, probe_bin):
        self.probe_bin = probe_bin
        self.samples = []
        self.due = 0.0

    def after(self, work_s):
        """Time the kernel for REF_SHARE of `work_s`, at least once."""
        self.due += work_s * REF_SHARE
        if self.due <= 0 and self.samples:
            return
        last = self.samples[-1] if self.samples else REF_S
        n = max(1, round(self.due / last))
        t0 = time.perf_counter()
        out = subprocess.run([self.probe_bin, "ref", str(n)], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        self.due -= time.perf_counter() - t0
        for line in out.splitlines():
            took, check = line.split()
            if int(check) != REF_CHECK:
                raise BenchError("reference kernel returned " + check)
            self.samples.append(float(took))

    def slowdown(self):
        return statistics.mean(self.samples) / REF_S


# --- build and children ------------------------------------------------------


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("fstg sources not found under " + ROOT)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", "fstg_pipeline_probe"],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "bin")


class Bench:
    """Paths, binaries and the scratch directory of one invocation."""

    def __init__(self, bin_dir, work, seconds, seed, smoke, trace):
        self.fstg = os.path.join(bin_dir, "fstg")
        self.probe_bin = os.path.join(bin_dir, "fstg_pipeline_probe")
        self.work = work
        os.makedirs(work)
        self.seconds = seconds
        self.seed = seed
        self.smoke = smoke
        self.trace = trace
        self.setups = 1 if smoke or trace else SETUPS
        self.max_ops = 1 if smoke else None
        self.serial = 0
        self.host = None  # one Host per workload run
        self.env = json.loads(self.probe("env"))
        suite = self.env.pop("suite_circuits")
        self.suite = SUITE_CIRCUITS[smoke] or suite

    def path(self, name):
        return os.path.join(self.work, name)

    def next_id(self):
        self.serial += 1
        return self.serial

    def child(self, argv):
        """Run one op in a fresh process; the probe's exec mode reports its
        exit code, wall, CPU time and peak RSS from wait4."""
        n = self.next_id()
        out_path = self.path("child%d.out" % n)
        err_path = self.path("child%d.err" % n)
        usage_path = self.path("child%d.rusage" % n)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            subprocess.run([self.probe_bin, "exec", usage_path] + argv,
                           stdout=out, stderr=err, check=True)
        with open(usage_path) as f:
            op = json.load(f)
        with open(out_path, encoding="utf-8", errors="replace") as f:
            op["stdout"] = f.read()
        with open(err_path, encoding="utf-8", errors="replace") as f:
            op["stderr"] = f.read()
        op["stdout_path"] = out_path
        op["why"] = [] if op["rc"] == 0 else [
            "exit %d: %s" % (op["rc"], op["stderr"].strip()[-300:])]
        return op

    def probe(self, *args):
        out = subprocess.run([self.probe_bin] + list(args), check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        return out.strip()

    def digest(self, path):
        return self.probe("digest", path)

    def observed(self):
        """Flags that make fstg (and the probe's suite op) write the
        program's own span trace and counters, and the files they name."""
        n = self.next_id()
        files = {"trace": self.path("trace%d.json" % n),
                 "metrics": self.path("metrics%d.json" % n)}
        return ["--trace-out", files["trace"],
                "--metrics-out", files["metrics"]], files


def op_loop(bench, run_op):
    """Run ops, each followed by its share of reference samples, until the
    next one would end past --seconds."""
    ops = []
    start = time.perf_counter()
    while True:
        ops.append(run_op(len(ops)))
        bench.host.after(ops[-1]["wall_s"])
        if bench.max_ops and len(ops) >= bench.max_ops:
            break
        est = median([o["wall_s"] for o in ops]) * (1 + REF_SHARE)
        if time.perf_counter() - start + est > bench.seconds:
            break
    return ops


def run_ops(bench, run_op):
    """Untraced: ops back to back for --seconds. Traced: one op, then the
    same op with the program's trace and counters on. Every op of a run must
    produce byte-identical output."""
    if bench.trace:
        ops = [run_op(0, [])]
        flags, files = bench.observed()
        traced = dict(files, op=run_op(1, flags))
        same_digest(ops + [traced["op"]])
        return ops, traced
    ops = op_loop(bench, lambda i: run_op(i, []))
    same_digest(ops)
    return ops, None


def set_up(bench, once, discard=None):
    """Repeat a set-up; its walls and the last one's result. `discard`
    releases an earlier result, outside the timing."""
    walls, value = [], None
    for i in range(bench.setups):
        if i and discard:
            discard(value)
        t0 = time.perf_counter()
        value = once()
        walls.append(time.perf_counter() - t0)
        bench.host.after(walls[-1])
    return walls, value


def lint_setup(bench, circuits):
    """Set-up of a workload whose op needs nothing prepared: `fstg lint` on
    each of its circuits, the check a user runs before generating. It parses
    and lints the same machines the op does."""
    def once():
        for c in circuits:
            op = bench.child([bench.fstg, "lint", c])
            if op["why"]:
                raise BenchError("set-up lint %s: %s" % (c, op["why"][0]))
    return set_up(bench, once)[0]


# --- claim checks ------------------------------------------------------------


def check_test_file(path, stderr):
    """A gen op's test file: parses, and its scan clock cycles stay at or
    below the per-transition baseline (every transition of the completed
    2^sv x 2^pi table tested by its own scan-in/scan-out)."""
    header, rows = {}, 0
    length = 0
    with open(path) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            if line.startswith("."):
                key, _, value = line[1:].partition(" ")
                header[key] = value.strip()
                continue
            _, inputs, _ = line.split()
            length += 0 if inputs == "-" else inputs.count(",") + 1
            rows += 1
    why = []
    sv, pi = int(header["sv"]), int(header["inputs"])
    if rows != int(header["tests"]):
        why.append("test count %d != .tests %s" % (rows, header["tests"]))
    cycles = sv * (rows + 1) + length
    transitions = (1 << sv) << pi
    baseline = sv * (transitions + 1) + transitions
    if cycles > baseline:
        why.append("cycles %d above per-transition %d" % (cycles, baseline))
    reported = "%d tests, total length %d, %d application cycles" % (
        rows, length, cycles)
    if reported not in stderr:
        why.append("reported test/length/cycle counts disagree with the file")
    return cycles, why


def check_sim_output(stdout):
    """Sim ops: 100.00% of detectable stuck-at and bridging faults."""
    lines = [l for l in stdout.splitlines()
             if l.startswith(("stuck-at :", "bridging :"))]
    if len(lines) != 2:
        return ["unexpected sim output: " + stdout[:200]]
    return [l for l in lines if "detectable coverage 100.00%," not in l]


def check_suite_output(op, circuits):
    try:
        row = json.loads(op["stdout"])
    except ValueError:
        return None, ["no suite summary"]
    why = []
    if row["complete"] != row["circuits"] or row["circuits"] != circuits:
        why.append("%d of %d Table 6 rows complete" %
                   (row["complete"], circuits))
    return row, why


def same_digest(ops):
    """Every op of a run must produce byte-identical output."""
    first = ops[0].get("digest")
    for o in ops[1:]:
        if o.get("digest") != first:
            o["why"].append("output digest %s differs from the first op's %s" %
                            (o.get("digest"), first))


# --- workloads ---------------------------------------------------------------


def sim_rie(bench):
    circuit = SIM_CIRCUIT[bench.smoke]
    tests = bench.path("sim.tests")

    def gen():
        op = bench.child([bench.fstg, "gen", circuit, "-o", tests])
        if op["rc"] != 0:
            raise BenchError("set-up gen failed: " + "; ".join(op["why"]))
        cycles, why = check_test_file(tests, op["stderr"])
        if why:
            raise BenchError("set-up test file: " + "; ".join(why))
        return cycles

    setup, cycles = set_up(bench, gen)

    def run_op(_, flags, extra=()):
        op = bench.child([bench.fstg] + flags + ["sim", circuit, tests] +
                         list(extra))
        if op["rc"] == 0:
            op["why"] += check_sim_output(op["stdout"])
            op["digest"] = bench.digest(op["stdout_path"])
        return op

    ops, traced = run_ops(bench, run_op)
    res = {"setup_s": setup, "ops": ops, "traced": traced,
           "test_cycles": cycles}
    if bench.trace:
        # No workload's op passes --static-prune; the traced run times the
        # analyzer through it once, on the same test file.
        flags, files = bench.observed()
        res["static"] = dict(files,
                             op=run_op(None, flags, ["--static-prune"]))
    return res


def suite_cold(bench):
    setup = lint_setup(bench, bench.suite)

    def run_op(_, flags):
        op = bench.child([bench.probe_bin, "suite", "--circuits",
                          ",".join(bench.suite)] + flags)
        row, why = check_suite_output(op, len(bench.suite))
        op["why"] += why
        if row:
            op["digest"] = row["digest"]
            op["cycles"] = row["test_cycles"]
        return op

    ops, traced = run_ops(bench, run_op)
    return {"setup_s": setup, "ops": ops, "traced": traced,
            "test_cycles": ops[0].get("cycles", 0)}


class Conn:
    """One client connection speaking the length-prefixed JSON frames of
    docs/SERVING.md."""

    def __init__(self, path, timeout_s=30.0):
        deadline = time.monotonic() + timeout_s
        while True:
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                self.sock.connect(path)
                break
            except OSError:
                self.sock.close()
                if time.monotonic() > deadline:
                    raise BenchError("cannot connect to fstg serve at " + path)
                time.sleep(0.005)
        self.sock.settimeout(120.0)

    def call(self, request):
        data = json.dumps(dict(request, schema="fstg.serve_request.v1"))
        payload = data.encode()
        self.sock.sendall(struct.pack("<I", len(payload)) + payload)
        (size,) = struct.unpack("<I", self.recv_exact(4))
        return json.loads(self.recv_exact(size))

    def recv_exact(self, n):
        buf = bytearray()
        while len(buf) < n:
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                raise BenchError("fstg serve closed the connection")
            buf += chunk
        return bytes(buf)

    def close(self):
        self.sock.close()


class Daemon:
    """One `fstg serve` process on a unix socket under the scratch dir."""

    def __init__(self, bench, flags):
        n = bench.next_id()
        # Relative to the checkout root: unix socket paths are short.
        self.path = os.path.relpath(bench.path("serve%d.sock" % n))
        self.usage_path = bench.path("serve%d.rusage" % n)
        self.log = open(bench.path("serve%d.log" % n), "wb")
        # Started through the probe's exec mode, like every op, in its own
        # session so a failed shutdown can kill launcher and daemon together.
        self.proc = subprocess.Popen(
            [bench.probe_bin, "exec", self.usage_path, bench.fstg] + flags +
            ["serve", "--socket", self.path],
            stdout=self.log, stderr=self.log, start_new_session=True)
        self.rss_mb = 0.0

    def cpu_s(self):
        """CPU seconds the daemon (the launcher's one child) has used."""
        with open("/proc/%d/task/%d/children" % (self.proc.pid,
                                                 self.proc.pid)) as f:
            pid = int(f.read().split()[0])
        with open("/proc/%d/stat" % pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        if self.proc.returncode is not None:
            return
        try:
            conn = Conn(self.path, timeout_s=5.0)
            conn.call({"type": "shutdown", "id": "stop"})
            conn.close()
            self.proc.wait(timeout=30.0)
        except (OSError, BenchError, subprocess.TimeoutExpired):
            os.killpg(self.proc.pid, 9)
            self.proc.wait()
        self.log.close()
        with open(self.usage_path) as f:
            self.rss_mb = json.load(f)["rss_mb"]


def serve_setup(bench, circuits, flags=()):
    """Spawn a daemon, wait for ping, compile every circuit with a cold gen."""
    daemon = Daemon(bench, list(flags))
    try:
        conn = Conn(daemon.path)
        if conn.call({"type": "ping", "id": "ping"})["status"] != "ok":
            raise BenchError("fstg serve ping failed")
        gens = {}
        for c in circuits:
            r = conn.call({"type": "gen", "circuit": c, "id": "setup-" + c})
            if r["status"] != "ok" or r["result"]["degraded"]:
                raise BenchError("set-up gen %s: %s" % (c, r.get("error")))
            gens[c] = r["result"]
        conn.close()
    except BaseException:
        daemon.stop()
        raise
    return daemon, gens


def request_mix(circuits, seed):
    """Blocks that each hold SERVE_BLOCK's sims and hot gens for every
    circuit, in an order shuffled by --seed. Every seed sends the same mix,
    so the latency median, which falls between circuits of different sizes,
    does not move with it."""
    rng = random.Random(seed)
    while True:
        block = [(kind, c) for c in circuits
                 for kind, n in SERVE_BLOCK.items() for _ in range(n)]
        rng.shuffle(block)
        yield from block


def serve_loop(bench, daemon, circuits, gens, seconds):
    """Closed loop over one connection: the next request goes out when the
    previous reply arrives (or after the reference samples due). Two
    connections would overlap requests at random, and the median latency
    then spread 21-29% over ten runs, one connection 9%. Returns the request
    records, the summed request latency and the daemon's CPU seconds in the
    loop."""
    mix = request_mix(circuits, bench.seed)
    requests = []
    conn = Conn(daemon.path)
    cpu0 = daemon.cpu_s()
    t0 = time.perf_counter()
    try:
        while (len(requests) < SMOKE_REQUESTS if bench.smoke
               else time.perf_counter() - t0 < seconds):
            kind, c = next(mix)
            req = {"type": kind, "circuit": c, "id": str(len(requests))}
            if kind == "sim":
                req["tests"] = gens[c]["test_file"]
            sent = time.perf_counter()
            resp = conn.call(req)
            latency = time.perf_counter() - sent
            requests.append({"type": kind, "circuit": c, "resp": resp,
                             "latency_s": latency})
            bench.host.after(latency)
    finally:
        conn.close()
    busy = sum(r["latency_s"] for r in requests)
    return requests, busy, daemon.cpu_s() - cpu0


def serve_ops(requests, gens):
    """Check every response: status ok; gens are hot-cache hits returning the
    set-up's test file; repeated sims of one circuit report identical counts.
    Returns the op records and each simulated circuit's counts."""
    sims, ops = {}, []
    for rec in requests:
        resp, why = rec["resp"], []
        result = resp.get("result", {})
        if resp["status"] != "ok":
            why.append("status %s: %s" % (resp["status"], resp.get("error")))
        elif rec["type"] == "gen":
            if result["test_file"] != gens[rec["circuit"]]["test_file"]:
                why.append("hot gen returned a different test file")
        else:
            counts = {k: v for k, v in result.items()
                      if k.endswith(("_detected", "_total", "_effective"))}
            first = sims.setdefault(rec["circuit"], counts)
            if counts != first:
                why.append("sim counts differ from the first sim's")
        ops.append({"wall_s": rec["latency_s"], "why": why,
                    "exec_ms": resp.get("wall_ms", 0.0),
                    "type": rec["type"], "circuit": rec["circuit"],
                    "cache_hit": result.get("cache_hit", False),
                    "status": resp["status"]})
    return ops, sims


def serve_mixed(bench):
    circuits = SERVE_CIRCUITS[bench.smoke]
    setup, (daemon, gens) = set_up(
        bench, lambda: serve_setup(bench, circuits),
        discard=lambda prev: prev[0].stop())
    # A traced run splits --seconds between an untraced and a traced daemon.
    seconds = bench.seconds / 2 if bench.trace else bench.seconds
    try:
        requests, busy, cpu = serve_loop(bench, daemon, circuits, gens,
                                         seconds)
    finally:
        daemon.stop()
    ops, sims = serve_ops(requests, gens)
    summary = bench.path("serve_summary.json")
    with open(summary, "w") as f:
        json.dump({"gens": gens, "sims": sims}, f, sort_keys=True)
    res = {"setup_s": setup, "ops": ops, "busy_s": busy,
           "test_cycles": sum(g["cycles"] for g in gens.values()),
           "peak_rss_mb": daemon.rss_mb,
           "cpu_util": cpu / (busy * bench.env["threads"]),
           "digest": bench.digest(summary), "traced": None}
    if bench.trace:
        flags, files = bench.observed()
        daemon, traced_gens = serve_setup(bench, circuits, flags)
        try:
            requests, _, _ = serve_loop(bench, daemon, circuits, traced_gens,
                                        seconds)
        finally:
            daemon.stop()
        traced_ops, traced_sims = serve_ops(requests, traced_gens)
        if traced_gens != gens or any(traced_sims[c] != sims[c]
                                      for c in set(sims) & set(traced_sims)):
            traced_ops[0]["why"].append(
                "traced daemon served different results")
        res["traced"] = dict(files, ops=traced_ops,
                             setup_requests=len(circuits))
    return res


RUNNERS = {"sim_rie": sim_rie, "suite_cold": suite_cold,
           "serve_mixed": serve_mixed}


# --- metrics -----------------------------------------------------------------


def end_to_end(res, slowdown):
    """Times are medians divided by the host's slowdown in the run."""
    ops = res["ops"]
    rss = res.get("peak_rss_mb") or median([o["rss_mb"] for o in ops])
    return {
        "wall_s": median([o["wall_s"] for o in ops]) / slowdown,
        "peak_rss_mb": rss,
        "test_cycles": res["test_cycles"],
        "setup_s": median(res["setup_s"]) / slowdown,
    }


def cpu_util(res, bench):
    if "cpu_util" in res:
        return res["cpu_util"]
    ops = res["ops"]
    return sum(o["cpu_s"] for o in ops) / (
        sum(o["wall_s"] for o in ops) * bench.env["threads"])


def serve_layer(res):
    if "busy_s" not in res:
        return {}
    ops = res["ops"]
    ok = [o for o in ops if o["status"] == "ok"]
    lat_ms = [o["wall_s"] * 1000.0 for o in ok]
    return {
        "serve.exec_ms_p50": median([o["exec_ms"] for o in ok]),
        "serve.wait_ms_p50": median([o["wall_s"] * 1000.0 - o["exec_ms"]
                                     for o in ok]),
        "serve.req_p95_ms": (statistics.quantiles(lat_ms, n=20)[-1]
                             if len(lat_ms) >= 2 else median(lat_ms)),
        "serve.req_per_s": len(ops) / res["busy_s"],
        "serve.hot_hit_ratio": (sum(o["cache_hit"] for o in ok) / len(ok)
                                if ok else 0.0),
    }


def span_layers(trace_path, skip_roots=0):
    """Self milliseconds per LAYERS metric in a trace the program wrote, and
    the total milliseconds of its root spans. The first `skip_roots` roots
    (serve's set-up requests) and everything under them are left out."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"]
                  if e["ph"] == "X" and not e["name"].startswith("pool.")]
    # Spans of one thread nest: a span's parent is the innermost open span
    # of the same thread that started before it and has not yet ended.
    events.sort(key=lambda e: (e["tid"], e["ts"], -e["dur"]))
    stack = []
    for e in events:
        while stack and (stack[-1]["tid"] != e["tid"] or
                         stack[-1]["ts"] + stack[-1]["dur"] <= e["ts"]):
            stack.pop()
        e["parent"] = stack[-1] if stack else None
        e["self"] = e["dur"]
        if e["parent"]:
            e["parent"]["self"] -= e["dur"]
        stack.append(e)
    roots = sorted((e for e in events if e["parent"] is None),
                   key=lambda e: e["ts"])
    skipped = {id(e) for e in roots[:skip_roots]}
    ms, root_ms = {}, 0.0
    for e in events:
        layer, fallback, top = None, None, e
        while True:
            layer = layer or LAYERS.get(top["name"])
            if top["name"] == PRECHECK_SPAN:
                fallback = fallback or PRECHECK_METRIC
            if top["parent"] is None:
                break
            top = top["parent"]
        if id(top) in skipped:
            continue
        if top is e:
            root_ms += e["dur"] / 1000.0
        name = layer or fallback
        if name:
            ms[name] = ms.get(name, 0.0) + e["self"] / 1000.0
    return ms, root_ms


def counters(metrics_path):
    with open(metrics_path) as f:
        return {c["name"]: c["value"] for c in json.load(f)["counters"]}


def traced_layers(bench, res):
    """Per-layer metrics of a traced run, from the trace and counters the
    program wrote during its traced op, plus what run.py measures itself."""
    traced = res["traced"]
    if "ops" in traced:
        # serve: the roots are request handlers; the time a handler spends
        # outside every layer span is what no layer claims.
        layers, root_ms = span_layers(traced["trace"],
                                      traced["setup_requests"])
        overhead = median([o["wall_s"] for o in traced["ops"]]) / median(
            [o["wall_s"] for o in res["ops"]]) - 1.0
    else:
        layers, _ = span_layers(traced["trace"])
        root_ms = traced["op"]["wall_s"] * 1000.0
        overhead = traced["op"]["wall_s"] / res["ops"][0]["wall_s"] - 1.0
    values = dict(layers)
    sim_ms = layers.get("fault.sim_sa_ms", 0.0) + layers.get(
        "fault.sim_br_ms", 0.0)
    all_sim_ms = sim_ms + layers.get(PRECHECK_METRIC, 0.0)
    values["fault.sim_useful_frac"] = sim_ms / all_sim_ms if all_sim_ms else 0
    count = counters(traced["metrics"])
    values["fault.faults_simulated"] = count.get("fault_sim.faults_simulated",
                                                 0)
    if res.get("static"):
        values["analysis.static_ms"] = span_layers(
            res["static"]["trace"])[0].get("analysis.static_ms", 0.0)
        values["analysis.pruned"] = counters(
            res["static"]["metrics"]).get("analysis.pruned", 0)
    values["trace.unattributed_frac"] = 1.0 - sum(layers.values()) / root_ms
    values["trace.overhead_frac"] = overhead
    values.update(serve_layer(res))
    values["parallel.cpu_util"] = cpu_util(res, bench)
    return values


def extra_ops(res):
    """The ops a traced run makes besides its untraced ones."""
    out = []
    if res.get("traced"):
        out += res["traced"].get("ops") or [res["traced"]["op"]]
    if res.get("static"):
        out.append(res["static"]["op"])
    return out


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_workload(bench, workload, catalog):
    log("== %s (seed %d, %s s%s)" % (workload, bench.seed, bench.seconds,
                                     ", traced" if bench.trace else ""))
    bench.host = Host(bench.probe_bin)
    res = RUNNERS[workload](bench)
    ops = res["ops"]
    attempted = ops + extra_ops(res)
    failures = [w for o in attempted for w in o["why"]]
    failed = sum(1 for o in attempted if o["why"])
    kind = "per_layer" if bench.trace else "end_to_end"
    slowdown = bench.host.slowdown()
    values = (traced_layers(bench, res) if bench.trace
              else end_to_end(res, slowdown))
    metrics = {}
    for m in catalog[kind]:
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)),
                              "unit": m["unit"]}
    samples = {"wall_s": len(ops), "setup_s": len(res["setup_s"])}
    for name, m in sorted(metrics.items()):
        n = samples.get(name)
        log("%-12s %-30s %14.6g %-8s%s" % (workload, name, m["value"],
                                          m["unit"], " (median of %d)" % n
                                          if n else ""))
    raw = {"wall_s": median([o["wall_s"] for o in ops]),
           "setup_s": median(res["setup_s"])}
    log("%-12s host slowdown %.3f (mean of %d reference samples); "
        "unscaled wall_s %.6g s, setup_s %.6g s" % (
            workload, slowdown, len(bench.host.samples), raw["wall_s"],
            raw["setup_s"]))
    for why in failures:
        log("FAILED: " + why)
    return {
        "workload": workload, "seed": bench.seed, "seconds": bench.seconds,
        "trace": bench.trace, "smoke": bench.smoke,
        "env": dict(bench.env, git_rev=git_rev()),
        "correct": not failures, "attempted": len(attempted),
        "failed": failed, "failures": failures[:20], "metrics": metrics,
        "samples": samples,
        "digest": res.get("digest", ops[0].get("digest")),
        "setup_s": res["setup_s"],
        "host": {"slowdown": slowdown, "ref_s": bench.host.samples[:200],
                 "unscaled": raw},
        "ops": [{k: o[k] for k in ("wall_s", "cpu_s", "rss_mb") if k in o}
                for o in ops[:25]],
        "cpu_util": cpu_util(res, bench),
    }


def write_results(path, runs, append):
    doc = {"schema": "fstg.pipeline_bench.v1", "runs": []}
    if append and os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
    doc["runs"].extend(runs)
    with open(path + ".tmp", "w") as f:
        json.dump(doc, f, indent=1)
    os.replace(path + ".tmp", path)
    return doc


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small circuits, one op per workload, 20 requests; "
                         "every workload untraced, then traced")
    ap.add_argument("-o", dest="out",
                    help="results file to append the runs to (default: "
                         ".bench_build/pipeline/result.json, rewritten)")
    ap.add_argument("--bin-dir", help="use these binaries, skip the build")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--claim", action="append", default=[],
                    metavar="WORKLOAD:METRIC")
    args = ap.parse_args(argv)

    catalog = compare.load_catalog(ROOT)
    if args.compare:
        return compare.compare_files(args.compare[0], args.compare[1],
                                     args.claim, catalog)

    workloads = args.workload or (WORKLOADS if args.smoke else None)
    if not workloads:
        ap.error("--workload is required (or --smoke)")
    bin_dir = args.bin_dir or build()
    work = os.path.join(BUILD, "work-%d" % os.getpid())
    modes = [False, True] if args.smoke else [bool(args.trace)]
    runs = []
    try:
        for trace in modes:
            bench = Bench(bin_dir, os.path.join(work, "trace%d" % trace),
                          args.seconds, args.seed, args.smoke, trace)
            runs += [run_workload(bench, w, catalog) for w in workloads]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = args.out or os.path.join(BUILD, "result.json")
    doc = write_results(out, runs, append=args.out is not None)
    log("results: " + out)
    ok = all(r["correct"] for r in runs)
    if args.smoke:
        errors = compare.validate_schema(
            doc, os.path.join(HERE, "result.schema.json"))
        for e in errors:
            log("schema: " + e)
        ok = ok and not errors

    metrics = {}
    for r in runs:
        for name, m in r["metrics"].items():
            key = name if len(runs) == 1 else "%s%s.%s" % (
                r["workload"], ".traced" if r["trace"] else "", name)
            metrics[key] = m
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("error: %s" % e)
        sys.exit(1)
