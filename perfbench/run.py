#!/usr/bin/env python3
"""Product-path benchmark for imsc.

Run from the repository root:

    python3 perfbench/run.py --workload batch-synth --seed 1 --seconds 30 --trace 0

It builds `imsc` and the benchmark's helper (perfbench/layers.ml) from
source, generates the workload's inputs from --seed, drives the shipped
binary closed-loop for --seconds, checks every output, and prints the
metrics with their units and sample counts.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics; the product runs untraced.
--trace 1 reports the per-layer metrics: the helper feeds the same inputs
through each layer's public functions and times every call, alternating
with untraced product passes over the same inputs, which give the
tracing overhead and the records the traced pipeline must reproduce.

Every timed figure but fleet's set-up is calibrated: a fixed kernel
(`layers calib`) runs between trials, and each trial's times are scaled
to the speed at which the kernel takes CALIB_REF_S, so that the shared
machine's drifting speed cancels (README.md, "Calibrated time").

Workloads (README.md has the reasons and the layer map):
  batch-synth    imsc batch --corpus C -j 1, no journal, full size mix
  fleet-journal  imsc fleet --workers 2 -j 1 (fsync'd journals), small loops
  serve-repeat   imsc serve -j 1 --cache F from an empty F, small loops; a
                 windowed client requests every distinct loop several times
"""

import argparse
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchstats as bs  # noqa: E402

BUILD_DIR = ".bench_build"
WORK_ROOT = ".bench_work"
IMSC = os.path.join(BUILD_DIR, "default", "bin", "imsc.exe")
LAYERS = os.path.join(BUILD_DIR, "default", "perfbench", "layers.exe")

# Inputs are split into chunks, one product pass each, so every chunk is
# timed several times in a run (see Run.measure_e2e).
BATCH_LOOPS = 2400
BATCH_CHUNK = 400
FLEET_LOOPS = 4000
FLEET_CHUNK = 2000
SMALL_MAX_OPS = 10  # the small-loop slice (fleet, serve): about 45% of the generator's loops
FLEET_WORKERS = 2
SERVE_DISTINCT = 3000
SERVE_CHUNK = 500
SERVE_REPEAT = 4
SERVE_WINDOW = 16  # requests in flight; at most the daemon's --queue (64)
REQUEST_LIMIT_MS = 10000.0  # a reply later than this counts as timed out
SETUP_BLOCKS = 6  # set-up is timed SETUP_BLOCKS x SETUP_BLOCK times,
SETUP_BLOCK = 8  # with a calibration before and after every block
# The time the calibration kernel (`layers calib`) takes at the reference
# speed that every timed figure is scaled to.
CALIB_REF_S = 0.04
RUN_TIMEOUT = 170  # seconds for a whole run after the build

WORKLOADS = ("batch-synth", "fleet-journal", "serve-repeat")

E2E_UNITS = {
    "loops_per_s": "1/s",
    "requests_per_s": "1/s",
    "request_p99_ms": "ms",
    "cpu_ms_per_loop": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ii_over_mii": "ratio",
}

SPAN_UNITS = {
    name: "s"
    for name in (
        "workloads.decode_s", "workloads.parse_s", "mii.compute_s", "core.ims_s",
        "check.lint_s", "check.verify_s", "check.simulator_s", "check.interp_s",
        "serve.render_s", "serve.wire_s", "serve.cache_find_s",
        "serve.cache_add_s", "exec.journal_append_s", "exec.report_write_s",
        "fleet.merge_s",
    )
}
COUNT_UNITS = {
    name: "count"
    for name in ("check.interp_replays", "core.steps_total", "core.attempts",
                 "core.findslot", "core.mrt_bitprobe", "mii.mindist")
}
LAYER_UNITS = dict(
    SPAN_UNITS, **COUNT_UNITS,
    **{
        "check.interp_coverage": "ratio",
        "serve.cache_hit_ratio": "ratio",
        "run.loop_p50_ms": "ms",
        "run.loop_p99_ms": "ms",
        "trace.unattributed_s": "s",
        "trace.overhead": "ratio",
    })


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


# --- processes ----------------------------------------------------------------

_children = set()


def spawn(argv, log_path):
    """Start a product process in its own process group, so a cleanup can kill
    it and every worker it started."""
    with open(log_path, "ab") as err:
        p = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                             start_new_session=True)
    _children.add(p.pid)
    return p


def reap(p):
    """Wait for a child; (exit code, rusage).  The rusage covers the child
    and every descendant it waited for, so a fleet's counts its workers."""
    _, status, ru = os.wait4(p.pid, 0)
    _children.discard(p.pid)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, ru


def kill_children():
    for pid in list(_children):
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
        _children.discard(pid)


def run_product(argv, log_path):
    """Run one product command to completion: its wall time, CPU time and
    peak resident set.  Exit 2 means some loop degraded to the acyclic
    schedule, which is an output like any other; its report is checked."""
    t0 = time.perf_counter()
    p = spawn(argv, log_path)
    code, ru = reap(p)
    wall = time.perf_counter() - t0
    if code not in (0, 2):
        raise BenchError("%s exited %d (log: %s)" % (" ".join(argv[1:2]), code, log_path))
    return SimpleNamespace(wall=wall, cpu=ru.ru_utime + ru.ru_stime,
                           rss_mb=ru.ru_maxrss / 1024.0)


def batch_argv(corpus, report):
    return [IMSC, "batch", "--corpus", corpus, "-j", "1", "--report", report]


def run_helper(args):
    out = subprocess.run([LAYERS] + args, stdout=subprocess.PIPE, check=True)
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def read_lines(path):
    with open(path, "rb") as f:
        return f.read().splitlines()


# --- serve client --------------------------------------------------------------


def frame(payload):
    return b"%d\n%s\n" % (len(payload), payload)


class FrameReader:
    """Reads the daemon's frames: decimal length, newline, payload,
    newline guard."""

    def __init__(self, sock):
        self.sock = sock
        self.buf = b""
        self.pos = 0

    def next(self):
        """The next payload, as bytes."""
        while True:
            nl = self.buf.find(b"\n", self.pos)
            if nl >= 0:
                end = nl + 1 + int(self.buf[self.pos:nl])
                if len(self.buf) > end:
                    if self.buf[end:end + 1] != b"\n":
                        raise BenchError("serve: frame guard missing")
                    payload = self.buf[nl + 1:end]
                    self.pos = end + 1
                    return payload
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise BenchError("serve: connection closed")
            self.buf = self.buf[self.pos:] + chunk
            self.pos = 0


class Daemon:
    """One `imsc serve -j 1 --cache F` process, with a fresh cache file."""

    def __init__(self, work, tag):
        self.sock_path = os.path.join(work, tag + ".sock")
        cache = os.path.join(work, tag + ".cache")
        for f in (self.sock_path, cache):
            if os.path.exists(f):
                os.remove(f)
        self.conn = None
        self.t0 = time.perf_counter()
        self.proc = spawn([IMSC, "serve", "--socket", self.sock_path, "-j", "1",
                           "--cache", cache], os.path.join(work, "serve.log"))

    def connect(self):
        """Connect and get the reply to a stats request; returns the
        seconds from launch to that reply."""
        deadline = time.perf_counter() + 30
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock_path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                s.close()
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise BenchError("serve: daemon did not come up")
                time.sleep(0.001)
        self.conn = s
        self.reader = FrameReader(s)
        s.sendall(frame(b'{"op":"stats","id":0}'))
        if json.loads(self.reader.next()).get("kind") != "stats":
            raise BenchError("serve: no stats reply")
        return time.perf_counter() - self.t0

    def shutdown(self):
        """Graceful stop; returns the daemon's rusage."""
        if self.conn is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            reap(self.proc)
            raise BenchError("serve: daemon never connected")
        self.conn.sendall(frame(b'{"op":"shutdown","id":0}'))
        reply = json.loads(self.reader.next())
        self.conn.close()
        code, ru = reap(self.proc)
        if reply.get("kind") != "bye" or code != 0:
            raise BenchError("serve: daemon did not shut down cleanly (exit %d)" % code)
        return ru


def serve_pass(daemon, requests, order, reference, ops, latencies_ms):
    """Send the requests of `order` over one connection, at most
    SERVE_WINDOW in flight, timing each from when it was sent.  The loop
    only frames and times; replies are checked after the pass, so the
    client's own work stays out of the latencies.  Every reply must be
    the batch record of its loop, within REQUEST_LIMIT_MS.  Returns
    (seconds from first send to last reply, cache hits)."""
    sock, reader = daemon.conn, daemon.reader
    sent_at, replies = {}, []
    nxt = 0
    t_start = time.perf_counter()
    while nxt < len(order) or sent_at:
        burst = []
        while nxt < len(order) and len(sent_at) + len(burst) < SERVE_WINDOW:
            nxt += 1
            burst.append(nxt)
        if burst:
            payload = b"".join(frame(b'{"op":"schedule","id":%d,%s' % (rid, requests[order[rid - 1]]))
                               for rid in burst)
            now = time.perf_counter()
            sent_at.update((rid, now) for rid in burst)
            sock.sendall(payload)
        reply = reader.next()
        now = time.perf_counter()
        # Every response starts {"kind":...,"id":N,...
        i = reply.index(b'"id":') + 5
        t0 = sent_at.pop(int(reply[i:reply.index(b",", i)]), None)
        if t0 is None:
            raise BenchError("serve: unsolicited response %r" % reply[:80])
        latencies_ms.append((now - t0) * 1000.0)
        replies.append((reply, latencies_ms[-1]))
    active = time.perf_counter() - t_start
    hits = 0
    for reply, ms in replies:
        resp = json.loads(reply)
        if resp.get("kind") != "report":
            ops.fail("serve " + str(resp.get("kind")))
        elif ms > REQUEST_LIMIT_MS:
            ops.fail("timed out")
        elif resp["record"].encode() != reference[order[resp["id"] - 1]]:
            ops.fail("served record differs from batch")
        else:
            hits += resp["cached"]
            ops.ok()
    return active, hits


# --- checks ---------------------------------------------------------------------


def check_report(lines, names, ops, reference=None):
    """One line per input loop, in order, each status ok, and (when a
    reference report is given) byte-identical to it."""
    for i, name in enumerate(names):
        if i >= len(lines):
            ops.fail("missing line")
            continue
        rec = json.loads(lines[i])
        if rec.get("status") != "ok" or rec.get("name") != name:
            ops.fail("status not ok")
        elif reference is not None and lines[i] != reference[i]:
            ops.fail("differs from reference")
        else:
            ops.ok()
    if len(lines) > len(names):
        ops.fail("extra line", len(lines) - len(names))


def compare_traced(records, product, ops):
    """The traced pipeline's (ii, sl, degraded) per loop equals the
    product's."""
    if len(records) != len(product):
        ops.fail("traced record count", max(1, len(product)))
        return
    key = ("ii", "sl", "degraded")
    for mine, theirs in zip(records, product):
        a, b = json.loads(mine), json.loads(theirs)
        if [a.get(k) for k in key] != [b.get(k) for k in key]:
            ops.fail("traced (ii, sl, degraded) differs")
        else:
            ops.ok()


def latency(samples, q):
    v = bs.percentile(samples, q)
    if v is None:
        raise BenchError("p%d needs more than %d samples" % (q, len(samples)))
    return v


# --- workloads ------------------------------------------------------------------


class Run:
    """One run of one workload.  Its inputs are split into chunks; a trial
    is one product pass over one chunk: an `imsc batch` or `imsc fleet`
    invocation, or one pass of a chunk's request stream through a fresh
    daemon.  Trials repeat closed-loop, chunk after chunk, for --seconds."""

    def __init__(self, workload, seed, seconds, work):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.ops = bs.Ops()
        self.metrics = {}  # name -> (value, samples)
        self.notes = []  # (name, value, unit, base): shown, not in the JSON
        self.calib_s = []  # every calibration's time
        self.parallel = FLEET_WORKERS if workload == "fleet-journal" else 1

    def path(self, name):
        return os.path.join(self.work, name)

    def fresh_dir(self, name):
        d = self.path(name)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        return d

    def gen(self, name, first, count, max_ops=None, dumps=None):
        args = ["gen", "--seed", str(self.seed), "--from", str(first),
                "--count", str(count), "--corpus", self.path(name)]
        if max_ops is not None:
            args += ["--max-ops", str(max_ops)]
        if dumps:
            args += ["--dumps", self.path(dumps)]
        return run_helper(args)

    # Inputs.

    def prepare(self):
        serve = self.workload == "serve-repeat"
        cap = None if self.workload == "batch-synth" else SMALL_MAX_OPS
        total, size = {"batch-synth": (BATCH_LOOPS, BATCH_CHUNK),
                       "fleet-journal": (FLEET_LOOPS, FLEET_CHUNK),
                       "serve-repeat": (SERVE_DISTINCT, SERVE_CHUNK)}[self.workload]
        stats = self.gen("corpus.ilb", 0, total, max_ops=cap)
        share = bs.ratio(stats["predicated"], stats["loops"])
        log("traffic: %d loops (scanned %d), ops median %d max %d, predicated %.1f%% (%d/%d)%s%s"
            % (stats["loops"], stats["generated"], stats["ops_median"], stats["ops_max"],
               100 * share["value"], share["num"], share["den"],
               ", at most %d real ops" % cap if cap else "",
               ", %d requests (repeat factor %d)" % (total * SERVE_REPEAT, SERVE_REPEAT)
               if serve else ""))
        self.names = stats["names"]
        self.chunks, first = [], 0
        rng = random.Random(self.seed)
        for c in range(total // size):
            ch = SimpleNamespace(corpus=self.path("chunk%d.ilb" % c), dumps="dumps%d.jsonl" % c,
                                 reference=None)
            g = self.gen("chunk%d.ilb" % c, first, size, max_ops=cap,
                         dumps=ch.dumps if serve else None)
            first += g["generated"]
            ch.names = g["names"]
            if self.workload != "batch-synth":
                # The product's own single-process batch is the reference:
                # fleet must merge to it byte for byte, and every served
                # record must equal the batch record of its loop.
                # batch-synth's later invocations repeat its first.
                ref = self.path("reference%d.jsonl" % c)
                run_product(batch_argv(ch.corpus, ref), self.path("product.log"))
                ch.reference = read_lines(ref)
                check_report(ch.reference, ch.names, self.ops)
            if serve:
                # Each request is sent as '{"op":"schedule","id":N,' + rest.
                ch.requests = []
                with open(self.path(ch.dumps)) as f:
                    for line in f:
                        d = json.loads(line)
                        rest = json.dumps({"name": d["name"], "machine": "cydra5",
                                           "budget_ratio": 2.0, "max_delta_ii": 1000,
                                           "loop": d["dump"]}, separators=(",", ":"))
                        ch.requests.append(rest[1:].encode())
                ch.order = [i for i in range(size) for _ in range(SERVE_REPEAT)]
                rng.shuffle(ch.order)
                ch.order_file = self.path("order%d.txt" % c)
                with open(ch.order_file, "w") as f:
                    f.write("".join("%d\n" % i for i in ch.order))
            self.chunks.append(ch)
        if [n for ch in self.chunks for n in ch.names] != self.names:
            raise BenchError("chunks do not partition the corpus")
        # The fixed per-run cost: the product command on an empty corpus.
        self.gen("empty.ilb", 0, 0)

    # Trials.

    def invoke(self, corpus, tag):
        """One `imsc batch` or `imsc fleet` over a corpus file: the
        invocation's figures and its report lines."""
        report = self.path("report-%s.jsonl" % tag)
        if self.workload == "batch-synth":
            argv = batch_argv(corpus, report)
        else:
            argv = [IMSC, "fleet", "--corpus", corpus, "--workers", str(FLEET_WORKERS),
                    "-j", "1", "--dir", self.fresh_dir("fleet-" + tag), "--report", report]
        t = run_product(argv, self.path("product.log"))
        t.records = read_lines(report)
        return t

    def trial(self, c, tag):
        """One product pass over chunk c, outputs checked."""
        ch = self.chunks[c]
        if self.workload == "serve-repeat":
            d = Daemon(self.work, "pass")
            t = SimpleNamespace(latencies=[])
            try:
                d.connect()
                t.wall, t.hits = serve_pass(d, ch.requests, ch.order, ch.reference,
                                            self.ops, t.latencies)
            finally:
                ru = d.shutdown()
            t.cpu, t.rss_mb = ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0
            t.records = [ch.reference[i] for i in ch.order]
            t.requests = len(ch.order)
            return t
        t = self.invoke(ch.corpus, tag)
        check_report(t.records, ch.names, self.ops, ch.reference)
        if ch.reference is None:
            ch.reference = t.records
        t.requests = len(ch.names)
        return t

    def product_round(self, k):
        return [self.trial(c, "%d-%d" % (k, c)) for c in range(len(self.chunks))]

    # End to end.

    def calibrate(self):
        """Seconds the calibration kernel takes now.  The VM's speed
        drifts with its neighbours' load, by up to 2x over tens of
        seconds; the kernel slows with it, and the product does not
        change it.  As many kernels run at once as the workload runs
        product processes at once.  Returns the slowest kernel's time,
        which wall time is scaled by (the slowest fleet worker sets the
        fleet's wall time), and the mean, which CPU time is scaled by
        (it is summed over the workers)."""
        procs = [subprocess.Popen([LAYERS, "calib"], stdout=subprocess.PIPE)
                 for _ in range(self.parallel)]
        try:
            secs = [json.loads(p.communicate()[0])["calib_s"] for p in procs]
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                p.wait()
        self.calib_s += secs
        return max(secs), sum(secs) / len(secs)

    def calibrated(self, timed):
        """Runs each of `timed` (callables returning a SimpleNamespace),
        with a calibration between consecutive ones and at both ends,
        and sets each result's `scale` (for wall time) and `cpu_scale`:
        CALIB_REF_S over the mean of the calibrations on either side of
        it.  A time multiplied by its scale is in calibrated seconds:
        seconds at the speed at which the kernel takes CALIB_REF_S."""
        out = []
        before = self.calibrate()
        for f in timed:
            t = f()
            after = self.calibrate()
            t.scale = bs.calibration_scale(CALIB_REF_S, before[0], after[0])
            t.cpu_scale = bs.calibration_scale(CALIB_REF_S, before[1], after[1])
            before = after
            out.append(t)
        return out

    def setup_once(self):
        if self.workload == "serve-repeat":
            d = Daemon(self.work, "setup")
            try:
                return SimpleNamespace(wall=d.connect())
            finally:
                d.shutdown()
        return self.invoke(self.path("empty.ilb"), "setup")

    def measure_setup(self):
        def block():
            return SimpleNamespace(walls=[self.setup_once().wall for _ in range(SETUP_BLOCK)])
        blocks = self.calibrated([block] * SETUP_BLOCKS)
        raw = [w for b in blocks for w in b.walls]
        self.notes.append(("setup_wall_s", bs.median(raw), "s", len(raw)))
        if self.workload == "fleet-journal":
            # An empty fleet run is mostly the supervisor's 50 ms poll
            # interval, which does not run slower on a slow machine, so
            # calibration would only add the kernel's noise.
            walls = raw
        else:
            walls = [w * b.scale for b in blocks for w in b.walls]
        self.metrics["setup_s"] = (bs.median(walls), len(walls))

    def measure_e2e(self):
        """Trials run chunk after chunk, each between two calibrations,
        and each trial's times are scaled to calibrated seconds.  A
        chunk's cost is the median over its trials.  Every figure is
        taken over those costs."""
        deadline = time.perf_counter() + self.seconds
        trials = [[] for _ in self.chunks]
        k = 0
        while k == 0 or time.perf_counter() < deadline:
            timed = [lambda c=c: self.trial(c, "%d-%d" % (k, c)) for c in range(len(self.chunks))]
            for c, t in enumerate(self.calibrated(timed)):
                trials[c].append(t)
            k += 1
        n, count = sum(ts[0].requests for ts in trials), sum(map(len, trials))
        cost = [bs.median([t.wall * t.scale for t in ts]) for ts in trials]
        # A request is one loop on every workload.
        self.metrics["loops_per_s"] = (n / sum(cost), count)
        self.metrics["requests_per_s"] = self.metrics["loops_per_s"]
        if self.workload == "serve-repeat":
            # The median over trials of each trial's percentile, so that
            # one slow trial does not set the tail.
            waits = [w for ts in trials for t in ts for w in t.latencies]
            def wait_ms(q):
                return bs.median([latency([w * t.scale for w in t.latencies], q)
                                  for ts in trials for t in ts])
        else:
            # A loop's record appears when its invocation ends, so each
            # loop of a chunk waits the chunk's cost.
            waits = [c * 1000.0 for c, ts in zip(cost, trials) for _ in range(ts[0].requests)]
            def wait_ms(q):
                return latency(waits, q)
        self.metrics["request_p99_ms"] = (wait_ms(99), len(waits))
        # Printed, not gated: on serve the median is a cache hit of about
        # 0.1 ms, mostly the VM's wakeup latency, which varies between
        # runs by more than any bound BENCHMARK.json may set.
        self.notes.append(("request_p50_ms", wait_ms(50), "ms", len(waits)))
        cpu = sum(bs.median([t.cpu * t.cpu_scale for t in ts]) for ts in trials)
        self.metrics["cpu_ms_per_loop"] = (cpu * 1000.0 / n, count)
        # The median trial's peak: a maximum over all trials would grow
        # with the number of trials, and so with the program's speed.
        self.metrics["peak_rss_mb"] = (bs.median([t.rss_mb for ts in trials for t in ts]), count)
        ratios, degraded = [], 0
        for ch in self.chunks:
            for line in ch.reference:
                rec = json.loads(line)
                if rec.get("mii"):
                    ratios.append(rec["ii"] / rec["mii"])
                degraded += bool(rec.get("degraded"))
        self.metrics["ii_over_mii"] = (sum(ratios) / len(ratios), len(ratios))
        # The uncalibrated figure and the kernel's own time, for reading
        # the calibrated ones against the machine of the day.
        wall = sum(bs.median([t.wall for t in ts]) for ts in trials)
        self.notes.append(("loops_per_wall_s", n / wall, "1/s", count))
        self.notes.append(("calib_s", bs.median(self.calib_s), "s", len(self.calib_s)))
        self.note("degraded_share", degraded, len(self.names))
        if self.workload == "serve-repeat":
            self.note("cache_hit_share", sum(ts[0].hits for ts in trials), n)

    def note(self, name, num, den):
        r = bs.ratio(num, den)
        self.notes.append((name, r["value"], "ratio", "%d/%d" % (num, den)))

    # Per layer.

    def trace_chunk(self, c, k):
        ch = self.chunks[c]
        d = self.fresh_dir("trace%d-%d" % (k, c))
        if self.workload == "serve-repeat":
            args = ["--workload", "serve", "--dumps", self.path(ch.dumps),
                    "--order", ch.order_file]
            out = "records.jsonl"
        elif self.workload == "fleet-journal":
            args = ["--workload", "fleet", "--corpus", ch.corpus,
                    "--shards", str(FLEET_WORKERS)]
            out = "merged.jsonl"
        else:
            args = ["--workload", "batch", "--corpus", ch.corpus]
            out = "report1.jsonl"
        res = run_helper(["trace", "--dir", d] + args)
        res["records"] = read_lines(os.path.join(d, out))
        return res

    def measure_layers(self):
        """Traced passes over every chunk alternate with untraced product
        rounds; each metric is the median over the traced passes."""
        deadline = time.perf_counter() + self.seconds
        per, walls, untraced, fallbacks = [], [], [], []
        k = 0
        while k == 0 or time.perf_counter() < deadline:
            traced = [self.trace_chunk(c, k) for c in range(len(self.chunks))]
            product = self.product_round(k)
            for t, p in zip(traced, product):
                compare_traced(t["records"], p.records, self.ops)
            untraced.append(sum(p.wall for p in product))
            walls.append(sum(t["wall_s"] for t in traced))
            fallbacks.append(sum(t["layers"].get("check.fallback_s", 0.0) for t in traced))
            values, counts = self.layer_values(traced)
            per.append(values)
            k += 1
        for name in per[0]:
            self.metrics[name] = (bs.median([m[name] for m in per]), len(per))
        self.traced_wall, self.untraced_wall = bs.median(walls), bs.median(untraced)
        self.metrics["trace.overhead"] = (self.traced_wall / self.untraced_wall, len(walls))
        self.notes.append(("scheduled loops", counts.get("loops", 0), "count", "-"))
        # Time spent re-checking and list-scheduling degraded loops; 0
        # unless a loop degrades, so shown rather than gated.
        self.notes.append(("check.fallback_s", bs.median(fallbacks), "s", len(fallbacks)))
        self.note("interp supported", counts.get("check.interp_supported", 0),
                  counts.get("loops", 0))
        if "serve.requests" in counts:
            self.note("serve cache hits", counts.get("serve.cache_hits", 0),
                      counts["serve.requests"])

    def layer_values(self, traced):
        """One traced pass over every chunk, summed: (metrics, counts)."""
        layers, counts, loop_ms, wall = {}, {}, [], 0.0
        for t in traced:
            for name, v in t["layers"].items():
                layers[name] = layers.get(name, 0.0) + v
            for name, v in t["counts"].items():
                counts[name] = counts.get(name, 0) + v
            loop_ms += t["loop_ms"]
            wall += t["wall_s"]
        m = {name: layers.get(name, 0.0) for name in SPAN_UNITS}
        m.update({name: counts.get(name, 0) for name in COUNT_UNITS})
        m["trace.unattributed_s"] = wall - sum(layers.values())
        m["check.interp_coverage"] = bs.ratio(
            counts.get("check.interp_supported", 0), counts.get("loops", 0))["value"]
        m["serve.cache_hit_ratio"] = bs.ratio(
            counts.get("serve.cache_hits", 0), counts.get("serve.requests", 0))["value"] or 0.0
        m["run.loop_p50_ms"] = latency(loop_ms, 50)
        m["run.loop_p99_ms"] = latency(loop_ms, 99)
        return m, counts


# --- output -----------------------------------------------------------------------


def print_table(run, title, units, base=None):
    log("\n%s  seed %d  %s" % (run.workload, run.seed, title))
    log("%-24s %14s %-6s %8s %s" % ("metric", "value", "unit", "share", "samples"))
    names = list(units)
    if base:
        # Spans largest first, so the top layer heads the table.
        names.sort(key=lambda k: (units[k] != "s", -run.metrics[k][0] if units[k] == "s" else 0))
    for name in names:
        v, n = run.metrics[name]
        share = "%7.2f%%" % (100 * v / base) if base and units[name] == "s" else ""
        log("%-24s %14.6g %-6s %8s %s" % (name, v, units[name], share, n))
    f = run.ops.share()
    log("%-24s %14.6g %-6s %8s %d/%d" % ("fail_share", f["value"], "ratio", "",
                                          f["num"], f["den"]))
    for name, v, unit, n in run.notes:
        log("%-24s %14.6g %-6s %8s %s" % (name, v, unit, "", n))


def build():
    for f in ("dune-project", os.path.join("bin", "imsc.ml"),
              os.path.join("perfbench", "layers.ml")):
        if not os.path.exists(f):
            raise BenchError("no %s here: run from the root of a checkout" % f)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
                        "bin/imsc.exe", "perfbench/layers.exe"],
                       env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError("build failed")


def on_alarm(signum, frame):
    raise BenchError("run took longer than %d s" % RUN_TIMEOUT)


def on_term(signum, frame):
    raise BenchError("terminated by signal %d" % signum)


def main():
    ap = argparse.ArgumentParser(description="Product-path benchmark for imsc.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    work = os.path.join(WORK_ROOT, "%s-%d-%d" % (a.workload, a.seed, os.getpid()))
    try:
        build()
        # A fresh checkout's build may take long; the run's own limit
        # starts after it.
        signal.alarm(RUN_TIMEOUT)
        os.makedirs(work)
        run = Run(a.workload, a.seed, a.seconds, work)
        run.prepare()
        if a.trace:
            run.measure_layers()
            print_table(run, "per layer, traced (share of traced wall %.4f s; untraced "
                        "wall %.4f s)" % (run.traced_wall, run.untraced_wall),
                        LAYER_UNITS, base=run.traced_wall)
            units = LAYER_UNITS
        else:
            run.measure_setup()
            run.measure_e2e()
            print_table(run, "end to end, untraced", E2E_UNITS)
            units = E2E_UNITS
        signal.alarm(0)
    except (BenchError, subprocess.CalledProcessError, OSError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        kill_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    if run.ops.reasons:
        log("failures: %s" % json.dumps(run.ops.reasons))
    print(json.dumps({
        "correct": run.ops.failed == 0,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": {k: {"value": run.metrics[k][0], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
