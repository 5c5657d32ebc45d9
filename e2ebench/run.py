#!/usr/bin/env python3
"""BChainBench-E2E: SEBDB's end-to-end benchmark.

    python3 e2ebench/run.py --workload ingest|read_write|sql_query \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds sebdb_server and the
e2ebench load generator from source into .bench_build/ (CMake, Release).

Workloads (see e2ebench/METRICS.md for every metric and what moves it):
  ingest      open-loop signed INSERTs (thin.submit over TCP) to a 3-process
              sebdb_server cluster: a light phase at 200 tps, then an
              overload phase at 2000 tps.
  read_write  the same cluster preloaded with a signed chain that fits in the
              node caches; one closed-loop thin client runs verified OPERATOR
              traces (SyncHeaders + AuthTraceQuery) beside a 200 tps write
              stream.
  sql_query   one in-process node over a ~140 MiB donation chain (more than
              twice the 64 MiB block cache) running the Table II Q2-Q7 mix
              closed-loop.

Every output is checked (acked keys on chain exactly once, verified reads
with the seeded row counts, query row counts from the generator). Human
readable lines go first; the last stdout line is the JSON result. With
--trace 1 the run records spans (written under .bench_build/traces/) and
reports the per-layer metrics instead of the end-to-end ones.
"""

import argparse
import hashlib
import json
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build")
OUT_DIR = os.path.join(BUILD, "e2ebench")
SERVER = os.path.join(OUT_DIR, "sebdb_server")
GEN = os.path.join(OUT_DIR, "e2ebench")

WORKLOADS = ("ingest", "read_write", "sql_query")
SETUPS = 9            # set-ups per run (kSetups in workloads.cc for sql_query)
RUN_TIMEOUT_S = 150   # hard cap on one generator process
READY_TIMEOUT_S = 30

# sebdb_server runs with its defaults (Kafka, batches of 64 txns or 20 ms,
# 4 RPC workers, queue of 256, no per-append fsync); recorded per run.
SERVER_FLAGS = []

# The end-to-end metrics every workload reports, and which of its own
# measurements each one is. The p99s are printed, not bounded: on a shared
# 4-vCPU VM their run-to-run spread exceeded the largest bound allowed.
E2E = {
    "ingest": {"op_p50_ms": "write_p50_ms", "ops_per_s": "write_goodput_tps"},
    "read_write": {"op_p50_ms": "read_p50_ms", "ops_per_s": "reads_per_s"},
    "sql_query": {"op_p50_ms": "query_geomean_p50_ms",
                  "ops_per_s": "queries_per_s"},
}

# Metric names and units come from BENCHMARK.json: the untraced run reports
# its end_to_end set, the traced run its per_layer set. A count or ratio of
# a layer the workload bypasses reads 0; layer timings only some workloads
# have are printed (see METRICS.md) but are not in the per_layer set.
def metric_units(key):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[key]}

# The issue's named end-to-end metrics, printed per workload with units.
NAMED = {
    "ingest": [("write_p50_ms", "ms"), ("write_p99_ms", "ms"),
               ("write_goodput_tps", "1/s")],
    "read_write": [("read_p50_ms", "ms"), ("read_p99_ms", "ms"),
                   ("write_p50_ms", "ms"), ("write_p99_ms", "ms")],
    "sql_query": [("q2_p50_ms", "ms"), ("q3_p50_ms", "ms"),
                  ("q4_p50_ms", "ms"), ("q5_p50_ms", "ms"),
                  ("q6_p50_ms", "ms"), ("q7_p50_ms", "ms"),
                  ("query_p99_ms", "ms")],
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ build

def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        raise BenchError("SEBDB sources not found next to the benchmark "
                         "(expected src/CMakeLists.txt in the checkout)")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    os.makedirs(OUT_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(OUT_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", OUT_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"], 600)
    run_checked(["cmake", "--build", OUT_DIR, "-j", str(os.cpu_count() or 4),
                 "--target", "sebdb_server", "e2ebench"], 900)


def run_checked(cmd, timeout):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError("command failed: " + " ".join(cmd))


def gen(args, timeout=RUN_TIMEOUT_S):
    """Runs the generator; returns its last stdout line as JSON."""
    proc = subprocess.run([GEN] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(proc.stderr[-4000:])
        raise BenchError("e2ebench %s printed nothing (exit %d)"
                         % (args[0], proc.returncode))
    if proc.returncode not in (0, 1):
        log(proc.stderr[-4000:])
        raise BenchError("e2ebench %s exited %d" % (args[0], proc.returncode))
    return json.loads(lines[-1])


def dir_bytes(path):
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


# ---------------------------------------------------------------- servers

def free_ports(n):
    socks = []
    try:
        for _ in range(n):
            s = socket.socket()
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def vm_hwm_mb(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Cluster:
    """Three sebdb_server processes started on copies of one data dir."""

    def __init__(self, workdir, seed_dir):
        self.workdir = workdir
        self.seed_dir = seed_dir
        self.procs = []
        self.config = os.path.join(workdir, "cluster.conf")

    def start(self):
        """Starts the nodes and waits until each prints READY; returns the
        seconds from launch to the last READY."""
        for attempt in range(5):
            ports = free_ports(3)
            with open(self.config, "w") as f:
                for i, port in enumerate(ports):
                    f.write("node node%d 127.0.0.1 %d\n" % (i + 1, port))
            for i in range(3):
                data = os.path.join(self.workdir, "node%d" % (i + 1))
                shutil.rmtree(data, ignore_errors=True)
                shutil.copytree(self.seed_dir, data)
            t0 = time.monotonic()
            for i in range(3):
                node = "node%d" % (i + 1)
                err = open(os.path.join(self.workdir, node + ".log"), "w")
                self.procs.append(subprocess.Popen(
                    [SERVER, "--id=" + node, "--config=" + self.config,
                     "--data=" + os.path.join(self.workdir, node)]
                    + SERVER_FLAGS,
                    stdout=subprocess.PIPE, stderr=err, text=True,
                    start_new_session=True))
                err.close()
            if self._wait_ready():
                return time.monotonic() - t0
            collided = any("in use" in self._log(i) for i in range(3))
            self.stop()
            if not collided:
                raise BenchError("sebdb_server did not become READY:\n"
                                 + "\n".join(self._log(i)[-800:]
                                             for i in range(3)))
            log("port collision, retrying (attempt %d)" % (attempt + 1))
        raise BenchError("no free ports after 5 attempts")

    def _log(self, i):
        try:
            with open(os.path.join(self.workdir, "node%d.log" % (i + 1))) as f:
                return f.read()
        except OSError:
            return ""

    def _wait_ready(self):
        sel = selectors.DefaultSelector()
        for p in self.procs:
            sel.register(p.stdout, selectors.EVENT_READ, p)
        ready = set()
        deadline = time.monotonic() + READY_TIMEOUT_S
        try:
            while len(ready) < len(self.procs):
                left = deadline - time.monotonic()
                if left <= 0:
                    return False
                for key, _ in sel.select(timeout=min(left, 0.5)):
                    line = key.fileobj.readline()
                    if not line:  # the process exited
                        return False
                    if line.startswith("READY"):
                        ready.add(key.data.pid)
                        sel.unregister(key.fileobj)
                if any(p.poll() is not None for p in self.procs):
                    return False
            return True
        finally:
            sel.close()

    def peak_rss_mb(self):
        return max([vm_hwm_mb(p.pid) for p in self.procs] or [0.0])

    def stop(self):
        for p in self.procs:
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        for p in self.procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                os.killpg(p.pid, signal.SIGKILL)
                p.wait()
            if p.stdout is not None:
                p.stdout.close()
        self.procs = []


# -------------------------------------------------------------- workloads

def start_cluster(workdir, preload):
    """Set-up, SETUPS times: write the preloaded chain, copy it to three
    data dirs, start the nodes and wait for READY. The last cluster stays
    up. Returns it, the median set-up and node start times, the chain dir
    and the preload report."""
    times, starts = [], []
    cluster = None
    for i in range(SETUPS):
        if cluster is not None:
            cluster.stop()
        seed_dir = os.path.join(workdir, "seed")
        shutil.rmtree(seed_dir, ignore_errors=True)
        t0 = time.monotonic()
        pre = gen(["preload", "--dir=" + seed_dir] + preload)
        cluster = Cluster(workdir, seed_dir)
        LIVE.append(cluster)
        starts.append(cluster.start())
        times.append(time.monotonic() - t0)
    return (cluster, statistics.median(times), statistics.median(starts),
            seed_dir, pre)


def finish_cluster(cluster, open_s, workdir, seed_dir, report):
    """Stops the nodes; charges node1's growth to the bytes written."""
    rss = cluster.peak_rss_mb()
    cluster.stop()
    m = report["metrics"]
    m["core.open_s"] = open_s
    m["storage.disk_bytes_per_user_byte"] = (
        (dir_bytes(os.path.join(workdir, "node1")) - dir_bytes(seed_dir))
        / max(1.0, m.get("chain_user_bytes", 0)))
    return rss


def run_ingest(opts, workdir, gen_args):
    cluster, setup, open_s, seed_dir, _ = start_cluster(
        workdir, ["--kind=schema"])
    report = gen(["ingest", "--config=" + cluster.config] + gen_args)
    return report, setup, finish_cluster(cluster, open_s, workdir, seed_dir,
                                         report)


def run_read_write(opts, workdir, gen_args):
    cluster, setup, open_s, seed_dir, pre = start_cluster(
        workdir, ["--kind=rw", "--seed=%d" % opts.seed]
        + (["--blocks=20"] if opts.smoke else []))
    local = os.path.join(workdir, "local")
    shutil.copytree(seed_dir, local)
    report = gen(["read_write", "--config=" + cluster.config,
                  "--reader-counts=" + pre["reader_counts"],
                  "--local-chain=" + local] + gen_args)
    return report, setup, finish_cluster(cluster, open_s, workdir, seed_dir,
                                         report)


def sql_chain(opts):
    """The sql_query chain is a fixed function of the generator, so it is
    built once per build of e2ebench and copied for each run."""
    with open(GEN, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    blocks = ["--blocks=300"] if opts.smoke else []
    path = os.path.join(BUILD, "chains", "sql-%s%s" % (
        digest, "-smoke" if opts.smoke else ""))
    meta = path + ".json"
    if not os.path.isfile(meta):
        # Chains of earlier builds of the generator are stale: drop them.
        chains = os.path.dirname(path)
        for name in os.listdir(chains) if os.path.isdir(chains) else []:
            if not name.startswith("sql-" + digest):
                stale = os.path.join(chains, name)
                if os.path.isdir(stale):
                    shutil.rmtree(stale)
                else:
                    os.remove(stale)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        t0 = time.monotonic()
        pre = gen(["preload", "--kind=sql", "--dir=" + path] + blocks, 600)
        log("built the sql_query chain in %.1f s" % (time.monotonic() - t0))
        with open(meta, "w") as f:
            json.dump(pre, f)
    with open(meta) as f:
        return path, json.load(f), blocks


def run_sql_query(opts, workdir, gen_args):
    pristine, pre, blocks = sql_chain(opts)
    chain = os.path.join(workdir, "chain")
    shutil.copytree(pristine, chain)
    report = gen(["sql_query", "--chain=" + chain] + blocks + gen_args)
    m = report["metrics"]
    m["storage.disk_bytes_per_user_byte"] = (
        dir_bytes(pristine) / max(1.0, pre["user_bytes"]))
    return report, m["setup_s"], 0.0


def cpu_jiffies():
    """The aggregate cpu line of /proc/stat: user .. steal."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return [0] * 8


def steal_share(before, after):
    """Share of CPU time the host took from this VM (steal) in between."""
    delta = [a - b for a, b in zip(after, before)]
    return delta[7] / max(1, sum(delta))


RUNNERS = {"ingest": run_ingest, "read_write": run_read_write,
           "sql_query": run_sql_query}
LIVE = []  # clusters to stop on every exit path


def git_sha():
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny chains, for the benchmark's own test")
    opts = parser.parse_args()

    build()
    workdir = os.path.join(BUILD, "run", "%s-%d" % (opts.workload,
                                                    os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    trace_out = os.path.join(BUILD, "traces", "%s-seed%d.jsonl" % (
        opts.workload, opts.seed))
    if opts.trace:
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    gen_args = ["--seed=%d" % opts.seed, "--seconds=%d" % opts.seconds,
                "--trace=%d" % opts.trace, "--trace-out=" + trace_out,
                "--scratch=" + os.path.join(workdir, "scratch")]
    try:
        before = cpu_jiffies()
        report, setup, server_rss = RUNNERS[opts.workload](opts, workdir,
                                                           gen_args)
        steal = steal_share(before, cpu_jiffies())
    finally:
        for cluster in LIVE:
            cluster.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    m = report["metrics"]
    m["host.steal_pct"] = 100 * steal
    m["setup_s"] = setup
    m["peak_rss_mb"] = max(server_rss, m.get("gen_peak_rss_mb", 0.0))
    for generic, own in E2E[opts.workload].items():
        m[generic] = m.get(own, 0.0)

    failed = report["errored"] + report["unanswered"]
    print("e2ebench workload=%s seed=%d seconds=%d trace=%d git=%s nproc=%d "
          "server_flags=%s" % (opts.workload, opts.seed, opts.seconds,
                               opts.trace, git_sha(), os.cpu_count() or 0,
                               " ".join(SERVER_FLAGS) or "(defaults)"))
    print("ops attempted=%d acked=%d refused=%d timed_out=%d unanswered=%d "
          "errored=%d failed_share=%.4f" % (
              report["attempted"], report["acked"], report["refused"],
              report["timed_out"], report["unanswered"], report["errored"],
              (report["attempted"] - report["acked"])
              / max(1, report["attempted"])))
    for err in report["errors"]:
        print("check FAILED: " + err)
    for name, unit in NAMED[opts.workload]:
        print("metric %s %.4f %s" % (name, m.get(name, 0.0), unit))
    e2e_units = metric_units("end_to_end")
    for name in ("setup_s", "peak_rss_mb"):
        print("metric %s %.4f %s" % (name, m[name], e2e_units[name]))
    shown = {name for name, _ in NAMED[opts.workload]}
    for name in sorted(set(m) - shown - set(e2e_units)):
        print("detail %s %.4f" % (name, m[name]))
    if opts.trace:
        print("trace spans written to " + os.path.relpath(trace_out, REPO))

    chosen = metric_units("per_layer") if opts.trace else e2e_units
    result = {
        "correct": bool(report["correct"]),
        "attempted": int(max(1, report["attempted"])),
        "failed": int(failed),
        "metrics": {name: {"value": float(m.get(name, 0.0)), "unit": unit}
                    for name, unit in chosen.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def on_signal(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError) as e:
        log("e2ebench: " + str(e))
        for cluster in LIVE:
            cluster.stop()
        sys.exit(2)
