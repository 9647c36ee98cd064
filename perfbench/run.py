#!/usr/bin/env python3
"""End-to-end benchmark of aflregion.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the shipped `aflc` driver and the benchmark helper `afl_bench` from
source (Release, into $CARGO_TARGET_DIR or .bench_build), generates the
workload's inputs from --seed, and measures for --seconds seconds.

  --trace 0  end-to-end run: `aflc` as child processes, timed at the client.
  --trace 1  per-layer run: afl_bench calls every layer in-process over the
             same inputs with a span around each call.

Every run checks the program's outputs. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The lines
before it are human-readable rows (host record, one row per generator
shape or request kind, the self-time table). perfbench/README.md
documents the workloads, every metric and the layer-to-metric map.
"""

import argparse
import fcntl
import json
import math
import os
import random
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = os.cpu_count() or 1
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 100    # per child process or server reply

BATCH_PROGRAMS = 800
BATCH_DEPTH = 9
BATCH_JOBS = min(4, NPROC)
SERVE_CLIENTS = min(4, NPROC)
SERVE_POOL = 800         # generated documents per run
SERVE_DEPTH = 8
SERVE_STEPS = 48         # edits + queries per script
SERVE_WINDOW_S = 5       # serve throughput and edit p99: medians over windows
SERVE_QUICKSORT_N = 300
TRACE_SCRIPTS = 4        # scripts per client in the traced replay


def metric_units(kind):
    """{name: unit} of the "end_to_end" or "per_layer" list of
    BENCHMARK.json, the one place the metric names and units are kept."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class BenchError(Exception):
    """A failure of the benchmark itself (build, set-up): no result."""


def log(msg):
    print(msg, flush=True)


# --------------------------------------------------------------------------
# Build and host record
# --------------------------------------------------------------------------

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds perfbench/CMakeLists.txt; returns the binary dir."""
    bd = build_dir()
    os.makedirs(bd, exist_ok=True)
    logfile = os.path.join(bd, "perfbench-build.log")
    with open(os.path.join(bd, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(logfile, "w") as out:
            for cmd in (["cmake", "-S", HERE, "-B", bd,
                         "-DCMAKE_BUILD_TYPE=Release"],
                        ["cmake", "--build", bd, "-j", str(NPROC)]):
                rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                                     cwd=ROOT)
                if rc != 0:
                    out.flush()
                    with open(logfile) as f:
                        sys.stderr.write(f.read()[-3000:])
                    raise BenchError("build failed: " + " ".join(cmd))
    return bd


def host_record(bd):
    cache = {}
    with open(os.path.join(bd, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"([A-Za-z_]+):[A-Z]+=(.*)", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    rec = {"nproc": NPROC, "build_type": build_type, "compiler": version,
           "loadavg": round(os.getloadavg()[0], 2)}
    log("host: " + json.dumps(rec))
    if build_type != "Release":
        log("WARNING: non-Release build (%r); figures are not comparable "
            "with the Release baseline" % build_type)


# --------------------------------------------------------------------------
# Child processes and statistics
# --------------------------------------------------------------------------

class Child:
    """One finished child process: wall time, rusage and its output."""

    def __init__(self, cmd, workdir, tag="child"):
        out_path = os.path.join(workdir, tag + ".out")
        err_path = os.path.join(workdir, tag + ".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=workdir)
            # A hung child is killed so the run still ends in time.
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            _, status, ru = os.wait4(proc.pid, 0)
            self.wall = time.perf_counter() - start
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rc = proc.returncode
        self.cpu = ru.ru_utime + ru.ru_stime
        self.maxrss_kb = ru.ru_maxrss
        with open(out_path, encoding="utf-8", errors="replace") as f:
            self.stdout = f.read()
        with open(err_path, encoding="utf-8", errors="replace") as f:
            self.stderr = f.read()


def helper(bd, workdir, *args):
    """Runs afl_bench and returns its stdout; raises on failure."""
    p = subprocess.run([os.path.join(bd, "afl_bench"), *args],
                       capture_output=True, text=True, cwd=workdir)
    if p.returncode != 0:
        raise BenchError("afl_bench %s failed: %s" % (args[0], p.stderr[-2000:]))
    if p.stderr:
        log(p.stderr.rstrip("\n"))
    return p.stdout


def median(xs):
    return statistics.median(xs)


def percentile(xs, q):
    """The q-th percentile (1..99) of xs, interpolated as statistics does."""
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100)[q - 1]


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def timed_setup(fn):
    """Runs set-up SETUP_REPEATS times; returns (median seconds, last state).

    Every repeat but the last tears its state down again."""
    times, state = [], None
    for i in range(SETUP_REPEATS):
        if state is not None and hasattr(state, "close"):
            state.close()
        start = time.perf_counter()
        state = fn()
        times.append(time.perf_counter() - start)
    return median(times), state


def peak_ratio(pairs):
    """Geometric mean of A-F-L max values held over T-T max values held,
    over the programs that hold any value."""
    ratios = [a / t for a, t in pairs if t > 0 and a > 0]
    return geomean(ratios) if ratios else 1.0


# --------------------------------------------------------------------------
# Workload: batch-generated
# --------------------------------------------------------------------------

def generate(bd, work, seed, count, depth, subdir):
    """Writes seeded generator programs to work/subdir; returns the oracle
    (file name -> oracle record) in file order."""
    d = os.path.join(work, subdir)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    oracle = {}
    for line in helper(bd, work, "gen", "--seed", str(seed), "--count",
                       str(count), "--depth", str(depth), "--out", d).splitlines():
        rec = json.loads(line)
        oracle[rec["file"]] = rec
    return d, oracle


def oracle_error(rec):
    """Checks one oracle record: the three evaluators agree and A-F-L never
    holds more values than T-T."""
    if not rec["ok"]:
        return "%s: %s" % (rec["file"], rec.get("error", "").strip())
    if not rec["afl_result"] == rec["tt_result"] == rec["ref_result"]:
        return "%s: results differ (A-F-L %r, T-T %r, reference %r)" % (
            rec["file"], rec["afl_result"][:40], rec["tt_result"][:40],
            rec["ref_result"][:40])
    if rec["afl"][3] > rec["tt"][3]:
        return "%s: A-F-L holds %d values, T-T %d" % (
            rec["file"], rec["afl"][3], rec["tt"][3])
    return ""


BATCH_ROW = re.compile(r"^(\S+)\s+(ok|FAIL)\s+(\S+)\s+([0-9.]+)ms  (.*)$")


def check_batch(child, metrics_path, oracle):
    """Checks one `aflc --batch --metrics` invocation against the oracle.
    Returns ({program: (seconds, A-F-L max, T-T max)}, errors)."""
    rows, errors = {}, []
    for line in child.stdout.splitlines():
        m = BATCH_ROW.match(line)
        if m and m.group(1) != "program":
            rows[m.group(1)] = m.groups()[1:]
    try:
        with open(metrics_path) as f:
            programs = json.load(f)["batch"]["programs"]
    except (OSError, ValueError, KeyError) as e:
        return {}, ["aflc --batch (exit %d): no metrics: %s" % (child.rc, e)]
    items = {}
    for name, rec in oracle.items():
        row, m = rows.get(name), programs.get(name)
        if row is None or m is None:
            errors.append("%s: missing from the batch output" % name)
            continue
        status, _, _, result = row
        if status != "ok":
            errors.append("%s: %s" % (name, result))
            continue
        afl, tt = m["runs"]["afl"]["max_values"], m["runs"]["conservative"]["max_values"]
        if result != rec["ref_result"] or afl != rec["afl"][3] or afl > tt:
            errors.append("%s: result %r, max values A-F-L %d T-T %d; expected"
                          " %r, A-F-L %d" % (name, result[:40], afl, tt,
                                             rec["ref_result"][:40],
                                             rec["afl"][3]))
            continue
        items[name] = (m["total_seconds"], afl, tt)
    if len(rows) != len(oracle):
        errors.append("batch table has %d rows for %d inputs" % (len(rows),
                                                                 len(oracle)))
    return items, errors


def batch_e2e(bd, work, seed, seconds):
    state = {}
    metrics_path = os.path.join(work, "batch-metrics.json")

    def invoke(tag):
        return Child([os.path.join(bd, "aflc"), "--batch", state["dir"], "-j",
                      str(BATCH_JOBS), "--metrics=" + metrics_path], work, tag)

    def setup():
        state["dir"], state["oracle"] = generate(bd, work, seed, BATCH_PROGRAMS,
                                                 BATCH_DEPTH, "batch")
        invoke("setup")

    setup_s, _ = timed_setup(setup)
    oracle = state["oracle"]
    errors = [e for e in (oracle_error(r) for r in oracle.values()) if e]
    per_item = {name: [] for name in oracle}
    peaks = {}
    walls, cpu, rss = [], [], []
    attempted = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        c = invoke("run")
        attempted += len(oracle)
        items, errs = check_batch(c, metrics_path, oracle)
        errors.extend(errs)
        for name, (sec, afl, tt) in items.items():
            per_item[name].append(sec * 1e3)
            peaks[name] = (afl, tt)
        walls.append(c.wall)
        cpu.append(c.cpu)
        rss.append(c.maxrss_kb / 1024)
    all_ms = [x for xs in per_item.values() for x in xs]
    # Per-program medians first: a slow invocation then moves no program.
    item_medians = [median(v) for v in per_item.values() if v]
    failed = min(attempted, len(errors))
    ok = attempted - failed
    log("batch: %d invocation(s) of %d programs on -j %d: median wall %.1f ms,"
        " median cpu %.1f ms" % (len(walls), len(oracle), BATCH_JOBS,
                                 median(walls) * 1e3, median(cpu) * 1e3))
    for shape, parity in (("first-order", 0), ("higher-order", 1)):
        xs = [x for n, v in per_item.items() if int(n[1:5]) % 2 == parity
              for x in v]
        if xs:
            log("%-14s items %5d  p50 %.2f ms  p99 %.2f ms" % (
                shape, len(xs), median(xs), percentile(xs, 99)))
    metrics = {
        "setup_s": setup_s,
        "items_per_s": len(oracle) / median(walls) * ok / max(1, attempted),
        "latency_geomean_ms": geomean(item_medians or [1.0]),
        "latency_p50_ms": median(item_medians or [0.0]),
        "latency_p99_ms": percentile(all_ms or [0.0], 99),
        "cpu_ms_per_item": median(cpu) * 1e3 / len(oracle),
        "peak_rss_mb": median(rss),
        "ok_ratio": ok / max(1, attempted),
        "afl_peak_ratio": peak_ratio(peaks.values()),
    }
    return metrics, attempted, errors


def batch_trace(bd, work, seed, seconds):
    d, _ = generate(bd, work, seed, BATCH_PROGRAMS, BATCH_DEPTH, "batch")
    files = [os.path.join(d, f) for f in sorted(os.listdir(d))]
    return run_pipeline_trace(bd, work, seed, "batch-generated", files,
                              BATCH_JOBS)


# --------------------------------------------------------------------------
# Workload: serve-edits
# --------------------------------------------------------------------------

LITERAL = re.compile(r"(?<![A-Za-z0-9_])[0-9]+(?![A-Za-z0-9_])")


def make_script(rng, text, steps):
    """A seeded edit/query script over one document, in the style of the
    server's differential tests: literal-only edits (reuse tier), arrow-free
    subtree edits (incremental tier) and lambda-introducing edits (full
    tier), mixed with report/domains queries. Returns the step list and
    the final text."""
    out = []
    for _ in range(steps):
        if rng.random() < 0.25:
            out.append(("query", rng.choice(["report", "domains"])))
            continue
        tokens = [(m.start(), m.end() - m.start())
                  for m in LITERAL.finditer(text)]
        pos, length = tokens[rng.randrange(len(tokens))]
        old = text[pos:pos + length]
        kind = rng.randrange(5)
        if kind in (1, 2, 3) and text[:pos].rstrip(" (").endswith(("=", "=>")):
            # `aflc --serve` crashes (SIGSEGV) when a function body that is
            # a bare literal is replaced by a compound expression, e.g.
            # `(fn x => 45) 3` with 45 -> (45 + 3). Literals right after
            # `=` or `=>` only get literal-only edits.
            kind = 0
        if kind == 0:
            new = str(rng.randrange(95) + 1)
        elif kind == 1:
            new = "(%s + %d)" % (old, rng.randrange(9) + 1)
        elif kind == 2:
            new = "(if true then %s else %d)" % (old, rng.randrange(9) + 1)
        elif kind == 3:
            new = "((fn q => q + %d) %s)" % (rng.randrange(9) + 1, old)
        else:
            new = str(rng.randrange(9) + 1)
        out.append(("edit", pos, length, new))
        text = text[:pos] + new + text[pos + length:]
    return out, text


class ServePlan:
    """The documents and scripts of one serve-edits run, all from the seed."""

    def __init__(self, bd, work, seed):
        d, self.oracle = generate(bd, work, seed, SERVE_POOL, SERVE_DEPTH, "docs")
        self.docs = []
        for name in sorted(self.oracle):
            with open(os.path.join(d, name)) as f:
                text = f.read().strip()
            if LITERAL.search(text):  # a script edits integer literals
                self.docs.append((name, text))
        qs = os.path.join(work, "quicksort.afl")
        with open(qs, "w") as f:
            f.write(helper(bd, work, "quicksort", str(SERVE_QUICKSORT_N)))
        rec = json.loads(helper(bd, work, "oracle", qs))
        rec["file"] = "quicksort"
        self.oracle["quicksort"] = rec
        with open(qs) as f:
            self.quicksort = f.read().strip()
        self.seed = seed

    def script(self, client, k):
        """Client `client`'s k-th script: (doc name, text, steps, final)."""
        if k % 2 == 0:
            name, text = "quicksort", self.quicksort
        else:
            name, text = self.docs[(client + SERVE_CLIENTS * (k // 2))
                                   % len(self.docs)]
        rng = random.Random("%d/%d/%d" % (self.seed, client, k))
        steps, final = make_script(rng, text, SERVE_STEPS)
        return name, text, steps, final


def request_lines(name, text, steps, final, doc, prefix):
    """Renders a script as request lines: open, the steps, then the check
    (a fresh open of the final text whose report and domains must be
    byte-equal to the edited document's), then both closes. `doc` is the
    id the session will give the first open."""
    fresh = doc + 1
    lines = [("open", json.dumps({"id": prefix + ":open", "method": "open",
                                  "params": {"source": text}}))]
    for i, st in enumerate(steps):
        if st[0] == "query":
            lines.append(("query", json.dumps({
                "id": "%s:%d" % (prefix, i), "method": "query",
                "params": {"doc": doc, "what": st[1]}})))
        else:
            lines.append(("edit", json.dumps({
                "id": "%s:%d" % (prefix, i), "method": "edit",
                "params": {"doc": doc, "start": st[1], "length": st[2],
                           "text": st[3]}})))
    lines.append(("open", json.dumps({"id": prefix + ":fresh", "method": "open",
                                      "params": {"source": final}})))
    for what in ("report", "domains"):
        for side, d in (("old", doc), ("new", fresh)):
            lines.append(("query", json.dumps({
                "id": "%s:chk:%s:%s" % (prefix, what, side), "method": "query",
                "params": {"doc": d, "what": what}})))
    for d in (doc, fresh):
        lines.append(("close", json.dumps({"id": "%s:close%d" % (prefix, d),
                                           "method": "close",
                                           "params": {"doc": d}})))
    return lines


def result_bytes(response):
    b = response.find(',"result":')
    e = response.rfind(',"timings":')
    return response[b + 10:e] if 0 <= b < e else ""


class Server:
    """One `aflc --serve --listen 0` child process."""

    def __init__(self, bd, work):
        self.err_path = os.path.join(work, "server.err")
        self.err = open(self.err_path, "wb")
        self.proc = subprocess.Popen(
            [os.path.join(bd, "aflc"), "--serve", "--listen", "0",
             "--idle-timeout", "0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self.err, cwd=work)
        self.port = None
        deadline = time.time() + 30
        while self.port is None:
            with open(self.err_path) as f:
                m = re.search(r"serving on 127\.0\.0\.1:(\d+)", f.read())
            if m:
                self.port = int(m.group(1))
            elif self.proc.poll() is not None or time.time() > deadline:
                self.close()
                raise BenchError("aflc --serve did not start")
            else:
                time.sleep(0.005)

    def cpu_seconds(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            m = re.search(r"VmHWM:\s+(\d+) kB", f.read())
        return int(m.group(1)) / 1024

    def close(self):
        """Asks the server to shut down, then reaps it (killing it if it
        does not stop)."""
        if self.proc.returncode is None:
            if self.port is not None:
                try:
                    with Client(self.port) as c:
                        c.call('{"id":"stop","method":"shutdown"}')
                except OSError:
                    pass
            deadline = time.time() + 10
            while self.proc.poll() is None and time.time() < deadline:
                time.sleep(0.01)
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        self.err.close()


class Client:
    """A closed-loop protocol client: one request in flight at a time."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=CHILD_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(self, line):
        self.sock.sendall(line.encode() + b"\n")
        resp = self.reader.readline()
        if not resp:
            raise OSError("server closed the connection")
        return resp.decode().rstrip("\n")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.reader.close()
        self.sock.close()


def play(plan, client_id, conn, first_k, deadline, record):
    """Plays scripts first_k, first_k+1, ... on one connection until the
    deadline passes, finishing the script in progress. Each request is
    recorded as (kind, tier, client latency s, server total us, arrival)."""
    errors = []
    k = first_k
    while True:
        name, text, steps, final = plan.script(client_id, k)
        prefix = "c%d:%d" % (client_id, k)
        chk = {}
        doc = None
        lines = request_lines(name, text, steps, final, 0, prefix)[:1]
        i = 0
        while i < len(lines):
            kind, line = lines[i]
            t0 = time.perf_counter()
            resp = conn.call(line)
            t1 = time.perf_counter()
            r = json.loads(resp)
            result = r.get("result", {})
            if not r.get("ok"):
                errors.append("%s (%s): %s" % (prefix, name,
                                               r.get("error", resp)[:200]))
            if doc is None:
                # The first open's response fixes the document id.
                doc = result.get("doc", 0)
                lines = request_lines(name, text, steps, final, doc, prefix)
            if ":chk:" in str(r.get("id")):
                chk[r["id"]] = result_bytes(resp)
            record.append((kind, result.get("tier", "") if kind == "edit"
                           else "", t1 - t0,
                           r.get("timings", {}).get("total_us", 0), t1))
            i += 1
        for what in ("report", "domains"):
            old = chk.get("%s:chk:%s:old" % (prefix, what))
            if old is None or old != chk.get("%s:chk:%s:new" % (prefix, what)):
                errors.append("%s (%s): %s of the edited document differs "
                              "from a fresh open of its text" % (prefix, name,
                                                                 what))
        k += 1
        if time.perf_counter() >= deadline:
            return errors


def serve_clients(plan, port, seconds, first_k):
    """Runs SERVE_CLIENTS closed-loop clients for `seconds`; returns
    (records per client, errors, end of the window)."""
    records = [[] for _ in range(SERVE_CLIENTS)]
    errors = []
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def worker(c):
        try:
            with Client(port) as conn:
                errs = play(plan, c, conn, first_k, deadline, records[c])
        except (OSError, ValueError) as e:
            errs = ["client %d: %s" % (c, e)]
        with lock:
            errors.extend(errs)

    threads = [threading.Thread(target=worker, args=(c,))
               for c in range(SERVE_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records, errors, deadline


def serve_e2e(bd, work, seed, seconds):
    state = {}

    def setup():
        plan = ServePlan(bd, work, seed)
        server = Server(bd, work)
        # Warm-up: every client plays one script (not timed).
        _, errs, _ = serve_clients(plan, server.port, 0, 1000)
        if errs:
            server.close()
            raise BenchError("serve warm-up failed: %s" % errs[:3])
        state["plan"] = plan
        return server

    setup_s, server = timed_setup(setup)
    plan = state["plan"]
    try:
        cpu0 = server.cpu_seconds()
        records, errors, deadline = serve_clients(plan, server.port,
                                                  seconds, 0)
        alive = server.proc.poll() is None
        cpu1 = server.cpu_seconds() if alive else cpu0
        rss = server.peak_rss_mb() if alive else 0.0
    finally:
        server.close()
    if not alive:
        errors.append("aflc --serve exited with status %s during the run"
                      % server.proc.returncode)
    flat = [r for rs in records for r in rs]
    in_window = [r for r in flat if r[4] <= deadline]
    by_kind = {}
    for kind, tier, lat, _, _ in flat:
        by_kind.setdefault(kind, []).append(lat * 1e3)
        if tier:
            by_kind.setdefault("edit/" + tier, []).append(lat * 1e3)
    log("%-18s %7s %9s %9s" % ("request", "count", "p50 ms", "p99 ms"))
    for kind in sorted(by_kind):
        xs = by_kind[kind]
        log("%-18s %7d %9.2f %9.2f" % (kind, len(xs), median(xs),
                                       percentile(xs, 99)))
    edits = by_kind.get("edit", [0.0])
    # Throughput and the edit tail are medians over windows of the run, so a
    # stall of the shared host sets at most the window it falls in.
    windows = max(1, int(seconds // SERVE_WINDOW_S))
    width = seconds / windows
    served = [0] * windows
    window_edits = [[] for _ in range(windows)]
    for kind, _, lat, _, t in in_window:
        w = min(windows - 1, int((t - (deadline - seconds)) / width))
        served[w] += 1
        if kind == "edit":
            window_edits[w].append(lat * 1e3)
    window_p99 = [percentile(xs, 99) for xs in window_edits if xs] or [0.0]
    log("%d windows of %.1f s: requests %d..%d, edits %d..%d, edit p99 "
        "%.2f..%.2f ms" % (windows, width, min(served), max(served),
                           min(map(len, window_edits)),
                           max(map(len, window_edits)),
                           min(window_p99), max(window_p99)))
    errors += [e for e in (oracle_error(r) for r in plan.oracle.values()) if e]
    attempted = len(flat)
    failed = min(attempted, len(errors))
    kinds = [k for k in ("open", "edit", "query") if k in by_kind]
    metrics = {
        "setup_s": setup_s,
        "items_per_s": median(served) / width,
        "latency_geomean_ms": geomean([median(by_kind[k]) for k in kinds]),
        "latency_p50_ms": median(edits),
        "latency_p99_ms": median(window_p99),
        "cpu_ms_per_item": (cpu1 - cpu0) * 1e3 / max(1, len(in_window)),
        "peak_rss_mb": rss,
        "ok_ratio": (attempted - failed) / max(1, attempted),
        "afl_peak_ratio": peak_ratio([(r["afl"][3], r["tt"][3])
                                      for r in plan.oracle.values() if r["ok"]]),
    }
    return metrics, attempted, errors


def serve_trace(bd, work, seed, seconds):
    plan = ServePlan(bd, work, seed)
    scripts = []
    for c in range(SERVE_CLIENTS):
        path = os.path.join(work, "script%d.jsonl" % c)
        with open(path, "w") as f:
            for k in range(TRACE_SCRIPTS):
                name, text, steps, final = plan.script(c, k)
                for _, line in request_lines(name, text, steps, final,
                                             2 * k + 1, "c%d:%d" % (c, k)):
                    f.write(line + "\n")
        scripts.append(path)
    out = json.loads(helper(bd, work, "trace-session", "--spans",
                            trace_path(bd, "serve-edits", seed),
                            *scripts).splitlines()[-1])
    metrics, attempted, errors, det = (out["metrics"], out["items"],
                                       out["errors"], out["determinism"])
    # Transport cost: client-timed latency minus the server's own total,
    # over a short closed-loop run against the real socket server.
    server = Server(bd, work)
    try:
        records, errs, _ = serve_clients(plan, server.port,
                                         min(seconds, 2.0), 0)
    finally:
        server.close()
    errors += errs
    metrics["transport.ms"] = median([lat * 1e3 - us / 1e3
                                      for rs in records
                                      for _, _, lat, us, _ in rs])
    return metrics, attempted, errors, det


# --------------------------------------------------------------------------
# Traced runs
# --------------------------------------------------------------------------

def trace_path(bd, workload, seed):
    d = os.path.join(bd, "traces")
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, "%s-seed%d.spans.jsonl" % (workload, seed))


def run_pipeline_trace(bd, work, seed, workload, files, threads):
    out = json.loads(helper(bd, work, "trace-pipeline", "--threads",
                            str(threads), "--spans",
                            trace_path(bd, workload, seed),
                            *files).splitlines()[-1])
    return out["metrics"], out["items"], out["errors"], out["determinism"]


def finish_trace(metrics):
    """Turns the helper's untraced/traced wall times into the overhead."""
    untraced = metrics["trace.untraced_s"]
    traced = metrics["trace.traced_s"]
    metrics["trace.overhead_ratio"] = traced / untraced - 1 if untraced else 0.0
    log("tracing overhead: traced %.1f ms - untraced %.1f ms = %.1f ms "
        "(%.2f%%)" % (traced * 1e3, untraced * 1e3, (traced - untraced) * 1e3,
                      metrics["trace.overhead_ratio"] * 100))


WORKLOADS = {
    "batch-generated": (batch_e2e, batch_trace),
    "serve-edits": (serve_e2e, serve_trace),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        bd = build()
    except (BenchError, OSError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    host_record(bd)
    work = os.path.join(bd, "work", "%s-%d-%d" % (a.workload, a.seed,
                                                   os.getpid()))
    os.makedirs(work)
    e2e, traced = WORKLOADS[a.workload]
    try:
        if a.trace:
            metrics, attempted, errors, det = traced(bd, work, a.seed,
                                                     a.seconds)
            finish_trace(metrics)
            log("determinism: " + json.dumps(det, sort_keys=True))
            units = metric_units("per_layer")
        else:
            metrics, attempted, errors = e2e(bd, work, a.seed, a.seconds)
            units = metric_units("end_to_end")
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in errors[:20]:
        log("FAILED: " + e)
    failed = min(attempted, len(errors))
    print(json.dumps({
        "correct": not errors,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {n: {"value": metrics.get(n, 0.0), "unit": u}
                    for n, u in units.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
