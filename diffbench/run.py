#!/usr/bin/env python3
"""The DiffCode benchmark: one workload per run, timed from outside.

    python3 diffbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds the `diffcode` and
`diffcode-serve` release binaries and the in-process probe
(diffbench/probe) into $CARGO_TARGET_DIR (default .bench_build).

Workloads (see diffbench/design.json for why each was chosen):

  mine_cold    `diffcode metrics --seed S --projects 1200 --threads 2`:
               generate, mine, filter, cluster, elicit with no cache.
  mine_warm    `diffcode mine ... --cache-dir D` against a cache primed
               by the same command, so every change is a cache hit.
  serve_mixed  `diffcode-serve --threads 2 --cache-dir D` (D primed as
               above) under a closed loop of 2 connections: ~50% /mine on
               primed changes, ~25% /mine on novel changes, ~25% /check.

With --trace 0 the run reports the end-to-end metrics. The mining
workloads are CPU-bound, and the shared host they run on can slow to
half speed for minutes at a time, so their times are given in
reference-host seconds: every mining command runs between two runs of
the host-speed reference kernel (`diffbench-probe calibrate`, which
uses none of the program's code), and its wall-clock is scaled by
REF_NOMINAL_S over the mean of the two kernel times. The raw
wall-clock is printed beside it. serve_mixed is reported as measured:
its request latency is mostly a fixed accept poll and does not follow
the host's speed. With --trace 1
it reports the per-layer metrics of an in-process traced run on the
same seed and inputs (plus, for serve_mixed, the server's own /status
and /metrics after the same load). Either way the outputs are checked;
a failed check prints `"correct": false` and exits 1. The last stdout
line is the JSON result; the lines before it are the same figures for
people, under per-workload names (wall_s, changes_per_s, serve_rps,
serve_p50_ms, serve_p90_ms, failed_frac).
"""

import argparse
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

PROJECTS = 1200
THREADS = 2
CONNECTIONS = 2
# Set-up is repeated and its median reported, so a slow first boot or a
# noisy neighbour does not decide setup_s alone.
SETUP_REPS = 3
MIN_MEASURED = 3
# mine_warm primes this many caches and cycles over them, so a run's
# median does not rest on the middle one of a few corpora.
WARM_CORPORA = 6
# A fixed constant near the reference kernel's typical wall-clock at
# THREADS threads on a 2-vCPU Xeon VM; a scaled mining time reads as what
# the command would take on a host where the kernel takes this long.
REF_NOMINAL_S = 0.30


class CheckFailed(Exception):
    pass


def check(cond, message):
    if not cond:
        raise CheckFailed(message)


def log(message):
    print(message, file=sys.stderr, flush=True)


class Bench:
    def __init__(self, root, args):
        self.root = root
        self.args = args
        self.seed = args.seed
        spec = json.loads((root / "BENCHMARK.json").read_text())
        self.e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        self.layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        self.target = target if target.is_absolute() else root / target
        self.bin = self.target / "release"
        work_base = root / ".bench_work"
        work_base.mkdir(exist_ok=True)
        self.work = Path(harness.fresh_workdir(work_base))
        self.lines = []
        self.last_reference = None

    # ---- processes -------------------------------------------------

    def build(self):
        env = dict(os.environ, CARGO_TARGET_DIR=str(self.target))
        for cmd in (
            ["cargo", "build", "--release", "--offline", "-q", "-p", "diffcode", "-p", "serve"],
            ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
             str(HERE / "probe" / "Cargo.toml")],
        ):
            done = subprocess.run(cmd, cwd=self.root, env=env, stdout=sys.stderr)
            if done.returncode != 0:
                raise SystemExit(f"build failed: {' '.join(cmd)}")

    def run(self, cmd):
        """Runs `cmd` to completion: (wall_s, exit code, stdout, peak RSS MB)."""
        with open(self.work / "stderr.txt", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=self.work)
            out = proc.stdout.read().decode()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, out, usage.ru_maxrss * 1024 / 1e6

    def probe(self, *args):
        _, code, out, _ = self.run([str(self.bin / "diffbench-probe"), *map(str, args)])
        check(code == 0, f"probe {args[0]} exited {code}: {self.stderr_tail()}")
        parsed = {}
        for line in out.splitlines():
            tag, _, body = line.partition(" ")
            if tag in ("METRICS", "COUNTS"):
                parsed[tag] = json.loads(body)
        return parsed

    def reference(self):
        """Wall-clock of the host-speed reference kernel, run now."""
        _, code, out, _ = self.run([str(self.bin / "diffbench-probe"), "calibrate",
                                    "--threads", str(THREADS)])
        found = re.search(r"^CALIBRATE (\S+)$", out, re.M)
        check(code == 0 and found, f"calibrate exited {code}: {self.stderr_tail()}")
        return float(found.group(1))

    def run_scaled(self, cmd):
        """Runs `cmd` between two runs of the reference kernel: (wall_s,
        exit code, stdout, peak RSS MB, host scale). Back-to-back calls
        share the kernel run between them."""
        before = self.last_reference if self.last_reference is not None else self.reference()
        result = self.run(cmd)
        self.last_reference = self.reference()
        return (*result, harness.host_scale(REF_NOMINAL_S, before, self.last_reference))

    def stderr_tail(self):
        path = self.work / "stderr.txt"
        return path.read_text(errors="replace")[-600:] if path.exists() else ""

    def diffcode(self, *args):
        return [str(self.bin / "diffcode"), *map(str, args)]

    def measure(self, command, parse):
        """Runs `command(k)` for k = 0, 1, ... until --seconds have passed
        (at least MIN_MEASURED times), each between two runs of the
        reference kernel; every run's output goes through `parse(k, out)`.
        Returns (wall_s, peak RSS MB, parsed, host scale) per run."""
        deadline = time.perf_counter() + self.args.seconds
        runs = []
        while len(runs) < MIN_MEASURED or time.perf_counter() < deadline:
            cmd = command(len(runs))
            wall, code, out, rss, scale = self.run_scaled(cmd)
            check(code == 0, f"{' '.join(cmd)} exited {code}: {self.stderr_tail()}")
            runs.append((wall, rss, parse(len(runs), out), scale))
        return runs

    # ---- output parsing --------------------------------------------

    FUNNEL_ROWS = {
        "code_changes": r"code changes processed\s+(\d+)",
        "mined": r"\n\s+mined\s+(\d+)",
        "skipped": r"skipped \(quarantined\)\s+(\d+)",
        "usage_changes": r"\nusage changes\s+(\d+)",
        "after_fsame": r"after fsame\s+(\d+)",
        "after_fadd": r"after fadd\s+(\d+)",
        "after_frem": r"after frem\s+(\d+)",
        "kept": r"after fdup \(kept\)\s+(\d+)",
        "clusters": r"clusters elicited\s+(\d+)",
    }

    def parse_metrics(self, out):
        check("\ninvariants: OK" in out, "diffcode metrics did not print `invariants: OK`")
        funnel = {}
        for key, pattern in self.FUNNEL_ROWS.items():
            found = re.search(pattern, out)
            check(found, f"diffcode metrics output lacks the `{key}` row")
            funnel[key] = int(found.group(1))
        return funnel

    @staticmethod
    def parse_mine(out):
        found = re.search(r"processed (\d+) code change\(s\): (\d+) mined, (\d+) skipped", out)
        digest = re.search(r"result digest: ([0-9a-f]+)", out)
        check(found and digest, "diffcode mine output lacks its summary or digest")
        processed, mined, skipped = map(int, found.groups())
        return {"processed": processed, "mined": mined, "skipped": skipped,
                "digest": digest.group(1)}

    # ---- workloads -------------------------------------------------

    def mine_cold(self):
        def cmd(k):
            return self.diffcode("metrics", "--seed", corpus_seed(self.seed, k), "--projects",
                                 PROJECTS, "--threads", THREADS)

        if self.args.trace:
            traced = self.probe("cold", "--seed", self.seed, "--projects", PROJECTS,
                                "--seconds", self.args.seconds)
            _, code, out, _ = self.run(cmd(0))
            check(code == 0, "diffcode metrics failed")
            self.same_funnel(self.parse_metrics(out), traced["COUNTS"])
            counts = traced["COUNTS"]
            return traced["METRICS"], counts["code_changes"], counts["skipped"]
        setups = [self.run_scaled(cmd(0)) for _ in range(SETUP_REPS)]
        for setup in setups:
            check(setup[1] == 0, f"warm-up run exited {setup[1]}: {self.stderr_tail()}")
        runs = self.measure(cmd, lambda _k, out: self.parse_metrics(out))
        composed = self.probe("cold", "--seed", self.seed, "--projects", PROJECTS,
                              "--funnel-only")["COUNTS"]
        self.same_funnel(runs[0][2], composed)
        return self.mining_metrics([(s[0], s[4]) for s in setups], runs, len(runs),
                                   [r[2]["code_changes"] for r in runs],
                                   [r[2]["skipped"] for r in runs],
                                   "warm-up run(s) of the first corpus")

    def same_funnel(self, cli, composed):
        for key, value in cli.items():
            check(int(composed[key]) == value,
                  f"funnel `{key}`: diffcode metrics says {value}, the layer-by-layer "
                  f"composition {composed[key]}")

    def prime(self, k):
        """Primes cache-<k> with corpus k: (wall_s, summary, host scale)."""
        cache_dir = self.work / f"cache-{k}"
        metrics_path = self.work / f"prime-{k}.json"
        wall, code, out, _, scale = self.run_scaled(self.diffcode(
            "mine", "--seed", corpus_seed(self.seed, k), "--projects", PROJECTS, "--threads",
            THREADS, "--cache-dir", cache_dir, "--metrics-json", metrics_path))
        check(code == 0, f"priming the cache exited {code}")
        summary = self.parse_mine(out)
        # A corpus may repeat a change; its second occurrence is a hit.
        counters = json.loads(metrics_path.read_text())["counters"]
        lookups = counters.get("cache.hit", 0) + counters.get("cache.miss", 0)
        check(lookups == summary["processed"] and "cache.stale_version" not in counters,
              f"priming looked up {lookups} of {summary['processed']} changes")
        return wall, summary, scale

    def mine_warm(self):
        if self.args.trace:
            traced = self.probe("warm", "--seed", self.seed, "--projects", PROJECTS,
                                "--seconds", self.args.seconds, "--dir", self.work / "traced")
            counts = traced["COUNTS"]
            check(counts["hits"] == counts["code_changes"], f"warm replay: {counts}")
            return traced["METRICS"], counts["code_changes"], \
                counts["code_changes"] - counts["mined"]
        primes = [self.prime(k) for k in range(WARM_CORPORA)]
        metrics_path = self.work / "warm.json"

        def cmd(k):
            k %= WARM_CORPORA
            return self.diffcode("mine", "--seed", corpus_seed(self.seed, k), "--projects",
                                 PROJECTS, "--threads", THREADS, "--cache-dir",
                                 self.work / f"cache-{k}", "--metrics-json", metrics_path)

        def parse(k, out):
            summary = self.parse_mine(out)
            check(summary["digest"] == primes[k % WARM_CORPORA][1]["digest"],
                  "warm result digest differs from the priming run's")
            snapshot = json.loads(metrics_path.read_text())
            hits = snapshot["counters"].get("cache.hit", 0)
            changes = snapshot["gauges"].get("corpus.code_changes")
            check(hits == summary["processed"] == changes,
                  f"cache.hit {hits} != code changes {changes}")
            return summary

        runs = self.measure(cmd, parse)
        return self.mining_metrics([(p[0], p[2]) for p in primes], runs,
                                   min(len(runs), WARM_CORPORA),
                                   [r[2]["processed"] for r in runs],
                                   [r[2]["skipped"] for r in runs], "cache-priming cold runs")

    def mining_metrics(self, setups, runs, corpora, changes, skipped, setup_what):
        """`setups` holds (wall_s, host scale) pairs, `runs` measure()'s
        tuples; times are reported in reference-host seconds."""
        walls = [r[0] for r in runs]
        scaled = [r[0] * r[3] for r in runs]
        wall = statistics.median(scaled)
        rate = statistics.median([c / s for c, s in zip(changes, scaled)])
        setup = statistics.median([w * scale for w, scale in setups])
        rss = statistics.median([r[1] for r in runs])
        attempted, failed = sum(changes), sum(skipped)
        scales = [r[3] for r in runs]
        self.lines += [
            f"  setup_s        {setup:.4f} s    (reference-host; median of {len(setups)} "
            f"{setup_what}; "
            f"as measured {statistics.median(s[0] for s in setups):.4f})",
            f"  wall_s         {wall:.4f} s    (reference-host; median of {len(runs)} runs over "
            f"{corpora} corpora; as measured {statistics.median(walls):.4f}, "
            f"min {min(walls):.4f}, max {max(walls):.4f})",
            f"  host scale     {statistics.median(scales):.4f}     (reference kernel "
            f"{REF_NOMINAL_S} s nominal over its time around each run; "
            f"min {min(scales):.4f}, max {max(scales):.4f})",
            f"  changes_per_s  {rate:.1f} 1/s  ({min(changes)}-{max(changes)} code changes "
            "per run)",
            f"  peak_rss_mb    {rss:.1f} MB",
            f"  failed_frac    {failed / attempted:.6f}  ({failed} of {attempted} changes "
            "quarantined)",
        ]
        metrics = {"setup_s": setup, "latency_ms": wall * 1e3, "ops_per_s": rate,
                   "peak_rss_mb": rss}
        return metrics, attempted, failed

    # ---- serve -----------------------------------------------------

    def spawn_server(self, cache_dir):
        """Boots diffcode-serve; returns (process, address, seconds until
        /readyz answered 200)."""
        start = time.perf_counter()
        err = open(self.work / "serve-stderr.txt", "ab")
        proc = subprocess.Popen(
            [str(self.bin / "diffcode-serve"), "--threads", str(THREADS), "--cache-dir",
             str(cache_dir), "--addr", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=err, cwd=self.work)
        err.close()
        line = proc.stdout.readline().decode()
        found = re.search(r"listening on http://(\S+)", line)
        if not found:
            self.stop_server(proc)
            raise CheckFailed(f"diffcode-serve did not start: {line!r}")
        addr = found.group(1)
        host, port = addr.rsplit(":", 1)
        while True:
            try:
                status, _ = http_get(host, int(port), "/readyz")
                if status == 200:
                    break
            except OSError:
                pass
            check(time.perf_counter() - start < 60, "diffcode-serve never became ready")
            time.sleep(0.001)
        return proc, addr, time.perf_counter() - start

    @staticmethod
    def stop_server(proc):
        """SIGTERMs the server and waits: (drain line, peak RSS MB)."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        out = proc.stdout.read().decode()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return out, usage.ru_maxrss * 1024 / 1e6

    @staticmethod
    def check_drain(out):
        found = re.search(r"drained: accepted (\d+) = completed (\d+) \+ shed (\d+) \+ "
                          r"failed (\d+); flushed (\d+) cache entries", out)
        check(found, f"no drain line in {out!r}")
        accepted, completed, shed, failed, flushed = map(int, found.groups())
        check(accepted == completed + shed + failed,
              f"drain line does not balance: {found.group(0)}")
        return {"accepted": accepted, "shed": shed, "failed": failed, "flushed": flushed}

    def serve_mixed(self):
        cache_dir = self.work / "cache-0"
        self.prime(0)
        if self.args.trace:
            for copy in ("replay-untraced", "replay-traced"):
                shutil.copytree(cache_dir, self.work / copy)
        boots = []
        proc = None
        try:
            for k in range(SETUP_REPS):
                proc, addr, boot_s = self.spawn_server(cache_dir)
                boots.append(boot_s)
                if k + 1 < SETUP_REPS:
                    out, _ = self.stop_server(proc)
                    self.check_drain(out)
            samples_path = self.work / "samples.txt"
            _, code, out, _ = self.run([
                str(self.bin / "diffbench-probe"), "serve-load", "--seed", str(self.seed),
                "--projects", str(PROJECTS), "--seconds", str(self.args.seconds),
                "--addr", addr, "--connections", str(CONNECTIONS),
                "--samples", str(samples_path)])
            check(code == 0, f"serve output checks failed: {self.stderr_tail()}")
            load = json.loads(out.split("COUNTS ", 1)[1])
            host, port = addr.rsplit(":", 1)
            scraped = None
            if self.args.trace:
                status, body = http_get(host, int(port), "/status")
                check(status == 200, "/status failed")
                _, text = http_get(host, int(port), "/metrics")
                scraped = (json.loads(body), text.decode())
            out, rss = self.stop_server(proc)
            proc = None
        finally:
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
        drain = self.check_drain(out)
        records = harness.parse_samples(samples_path.read_text())
        check(len(records) == load["sent"], "sample file is incomplete")
        summary = harness.summarize_requests(records)
        if scraped is not None:
            return self.serve_layers(summary, scraped, drain), summary["attempted"], \
                summary["failed"]
        rps = summary["ok"] / load["load_s"]
        setup = statistics.median(boots)
        tail_p, tail_v, n = summary["tail"]
        self.lines += [
            f"  setup_s        {setup:.4f} s    (median of {len(boots)} boots to /readyz 200)",
            f"  serve_rps      {rps:.1f} 1/s  ({summary['ok']} answered 200 in "
            f"{load['load_s']:.2f} s, {CONNECTIONS} closed-loop connections)",
            f"  serve_p50_ms   {summary['p50_ms']:.4f} ms   (n = {n})",
            f"  serve_p90_ms   {summary['p90_ms']:.4f} ms",
            f"  serve_p{tail_p:g}_ms  {tail_v:.4f} ms   (highest percentile with >= 10 "
            f"samples beyond it, n = {n})",
            f"  peak_rss_mb    {rss:.1f} MB   (server process)",
            f"  failed_frac    {summary['failed'] / summary['attempted']:.6f}  "
            f"({summary['failed']} of {summary['attempted']} requests)",
        ]
        metrics = {"setup_s": setup, "latency_ms": summary["p50_ms"], "ops_per_s": rps,
                   "peak_rss_mb": rss}
        return metrics, summary["attempted"], summary["failed"]

    def serve_layers(self, summary, scraped, drain):
        status, prometheus = scraped
        metrics = self.probe(
            "serve-replay", "--seed", self.seed, "--projects", PROJECTS,
            "--count", summary["attempted"], "--untraced-dir", self.work / "replay-untraced",
            "--traced-dir", self.work / "replay-traced")["METRICS"]
        endpoints = status["endpoints"]
        for endpoint in ("mine", "check"):
            metrics[f"serve.server_p50_ms.{endpoint}"] = endpoints[endpoint]["p50_ns"] / 1e6
            metrics[f"serve.server_p99_ms.{endpoint}"] = endpoints[endpoint]["p99_ns"] / 1e6
        metrics["serve.client_p50_ms"] = summary["p50_ms"]
        metrics["serve.client_p90_ms"] = summary["p90_ms"]
        metrics["serve.client_p99_ms"] = summary["p99_ms"]
        metrics["serve.client_samples"] = summary["attempted"]
        metrics["serve.accept_wait_p50_ms"] = (
            summary["p50_ms"] - endpoints["all"]["p50_ns"] / 1e6)
        metrics["serve.cache_hit_ratio"] = status["cache"]["hit_rate"]
        flushed = re.search(r"^diffcode_cache_flushed_entries (\d+)$", prometheus, re.M)
        check(flushed, "/metrics lacks diffcode_cache_flushed_entries")
        metrics["serve.flushed_entries"] = int(flushed.group(1))
        check(drain["flushed"] >= int(flushed.group(1)),
              "drain line flushed fewer entries than /metrics reported")
        metrics["serve.shed"] = status["requests"]["shed"]
        return metrics

    # ---- result ----------------------------------------------------

    def result(self, metrics, names):
        missing = [name for name, _ in names if name not in metrics]
        check(not missing, f"metrics not measured: {missing}")
        return {name: {"value": metrics[name], "unit": unit} for name, unit in names}


def corpus_seed(seed, k):
    """The seed of the k-th corpus of a run; corpus 0 uses the run's seed.

    Mining runs cycle over several corpora, so a run's median does not
    hang on the few heavy projects one generated corpus happens to draw.
    """
    return (seed + k * 0x9E3779B97F4A7C15) % 2**64


def http_get(host, port, path):
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


UNCOVERED = "gitsrc, intern (absdomain is counted inside analysis)"

WORKLOADS = {"mine_cold": Bench.mine_cold, "mine_warm": Bench.mine_warm,
             "serve_mixed": Bench.serve_mixed}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates" / "core").is_dir():
        sys.exit("run.py must run from the root of a DiffCode checkout")
    bench = Bench(root, args)
    try:
        bench.build()
        correct = True
        try:
            metrics, attempted, failed = WORKLOADS[args.workload](bench)
            names = bench.layers if args.trace else bench.e2e
            metrics = bench.result(metrics, names)
            if args.trace:
                bench.lines.append(f"  {len(names)} per-layer metrics; not covered: {UNCOVERED}")
        except CheckFailed as failure:
            log(f"output check failed: {failure}")
            correct, metrics, attempted, failed = False, {}, 1, 1
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}:")
        for line in bench.lines:
            print(line)
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        sys.stdout.flush()
        sys.exit(0 if correct else 1)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


if __name__ == "__main__":
    main()
