#!/usr/bin/env python3
"""The repository benchmark: four workloads, checked answers, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wfs-arenas --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload protocol-mix --seed 1 --seconds 25 --trace 1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate run whose first half is untraced and whose second half wraps
the program's public functions in spans, and prints the per-layer
metrics plus the tracing overhead.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The lines before it describe the run (environment, percentile used,
counts that must repeat exactly for a given seed).

Each run executes whole rounds of a fixed job list generated from
``--seed`` (see ``gen.py``) until ``--seconds`` have passed, so every
run attempts the same operations in the same proportions.  Every job's
answer is checked against ``oracles.py``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import datetime  # noqa: E402
import hashlib  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sqlite3  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracles  # noqa: E402
import spans as tracing  # noqa: E402

WORKLOADS = tuple(gen.MAKERS)

#: Fresh set-up samples taken after the timed phase, besides the run's own.
SETUP_PROBES = 6

CLK_TCK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# Process accounting
# ----------------------------------------------------------------------


def _self_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _proc_cpu(pid: int) -> float:
    """User + system CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def _cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (for the steal share)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(v) for v in handle.readline().split()[1:]]
    except OSError:
        return []


def store_bytes(path: Path) -> int:
    """Logical size of a sqlite store (pages in use, WAL included), read
    through a read-only connection of the benchmark's own."""
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        pages = conn.execute("PRAGMA page_count").fetchone()[0]
        size = conn.execute("PRAGMA page_size").fetchone()[0]
    finally:
        conn.close()
    return pages * size


def environment(stat_before: list[int], stat_after: list[int]) -> dict:
    steal = None
    if len(stat_before) > 7 and len(stat_after) > 7:
        deltas = [b - a for a, b in zip(stat_before, stat_after)]
        # user nice system idle iowait irq softirq steal (guest time is
        # already counted in user/nice).
        total = sum(deltas[:8])
        steal = round(deltas[7] / total, 4) if total else 0.0
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "steal_share": steal,
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (``p`` in 0..100)."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = p / 100 * (len(sorted_values) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (
        rank - low
    )


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten samples beyond it
    (never below the median)."""
    return max(50, min(99, math.floor(100 * (1 - 10 / count))))


# ----------------------------------------------------------------------
# Workload runners
# ----------------------------------------------------------------------


class Outcome:
    """What one job did: its latency, operations, failures, exact counts."""

    __slots__ = ("latency", "attempted", "failed", "wrong", "counts", "errors")

    def __init__(self, latency: float, attempted: int = 1) -> None:
        self.latency = latency
        self.attempted = attempted
        self.failed = 0
        self.wrong = False
        self.counts: dict = {}
        self.errors: list[str] = []

    def fail(self, message: str, *, wrong: bool = False) -> None:
        """Count one failed operation; *wrong* marks a wrong answer (as
        opposed to a refusal or an error status)."""
        self.failed += 1
        self.wrong = self.wrong or wrong
        self.errors.append(message)


class InProcessRunner:
    """Base for the workloads whose program runs in this process."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.recorder: tracing.Recorder | None = None

    def setup(self) -> None:
        pass

    def start_tracing(self) -> None:
        self.recorder = tracing.Recorder()
        tracing.install(self.recorder)

    def program_cpu(self) -> float:
        return _self_cpu() + _children_cpu()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def run_round(self, jobs: list[dict], outcomes: list) -> None:
        for index, job in enumerate(jobs):
            if self.recorder is not None:
                self.recorder.job_id = index
            outcomes[index] = self.run_job(job)

    def close(self) -> None:
        pass


class WfsRunner(InProcessRunner):
    """The ``repro eval`` path: parse, build the instance, evaluate."""

    def setup(self) -> None:
        import repro.core.analyzer as analyzer
        import repro.datalog.instance as instance
        import repro.datalog.parser as parser

        self.analyzer, self.instance, self.parser = analyzer, instance, parser

    def run_job(self, job: dict) -> Outcome:
        parser = self.parser
        started = time.perf_counter()
        program = parser.parse_program(job["program"])
        facts = self.instance.Instance(parser.parse_facts(job["facts"]))
        result = self.analyzer.query_for(program)(facts)
        outcome = Outcome(time.perf_counter() - started)
        got = oracles.as_pairs(result)
        if got != job["expected"]:
            outcome.fail("win-move answer differs from retrograde analysis", wrong=True)
        outcome.counts = {"fingerprint": oracles.fingerprint(got)[:16]}
        return outcome


def _report_counts(report: dict) -> dict:
    metrics = report.get("metrics", {})
    return {
        key: metrics.get(key, 0)
        for key in ("transitions", "message_facts_sent", "rounds",
                    "cache_hits", "cache_misses")
    }


class MixRunner(InProcessRunner):
    """``service.app.execute_request`` in process, over an on-disk store."""

    store = None

    def setup(self) -> None:
        import repro.service.app as app
        import repro.service.store as store

        self.app = app
        self.store_path = self.work / "mix.db"
        self.store = store.RunStore(str(self.store_path))

    def payload(self, job: dict) -> dict:
        payload = {
            "tenant": f"mix-{job['name']}",
            "program": job["program"],
            "facts": job["facts"],
            "mode": job["mode"],
            "seed": job["seed"],
            "ilog": job["ilog"],
        }
        if job["option"]:
            payload[job["option"]] = True
        return payload

    def run_job(self, job: dict) -> Outcome:
        payload = self.payload(job)
        started = time.perf_counter()
        status, body = self.app.execute_request(self.store, payload)
        outcome = Outcome(time.perf_counter() - started)
        if status != 200:
            outcome.fail(f"{job['name']}: HTTP {status}: {body.get('error')}")
        elif body.get("matches_centralized") is not True:
            outcome.fail(f"{job['name']}: matches_centralized is false")
        elif body.get("output_fingerprint") != job["fingerprint"]:
            outcome.fail(f"{job['name']}: output differs from the oracle", wrong=True)
        outcome.counts = {
            "fingerprint": str(body.get("output_fingerprint"))[:16],
            **_report_counts(body.get("report", {})),
        }
        return outcome

    def store_bytes(self) -> int:
        return store_bytes(self.store_path)

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None


class ProcsRunner(InProcessRunner):
    """``cluster.procs.ProcessCluster``: two worker processes per job."""

    def setup(self) -> None:
        import repro.cluster.procs as procs
        import repro.datalog.instance as instance
        import repro.datalog.parser as parser

        self.procs, self.instance, self.parser = procs, instance, parser
        self.runs = 0

    def peak_rss_mb(self) -> float:
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return max(super().peak_rss_mb(), children)

    def run_job(self, job: dict) -> Outcome:
        self.runs += 1
        run_dir = self.work / f"procs-{self.runs}"
        started = time.perf_counter()
        facts = self.instance.Instance(self.parser.parse_facts(job["facts"]))
        cluster = self.procs.ProcessCluster(
            {"kind": "program", "text": job["program"]},
            facts,
            processes=2,
            seed=job["seed"],
            run_dir=run_dir,
        )
        result = cluster.run_to_quiescence()
        outcome = Outcome(time.perf_counter() - started)
        shutil.rmtree(run_dir, ignore_errors=True)
        got = oracles.as_pairs(result)
        if got != job["expected"]:
            outcome.fail(
                "process-cluster win-move answer differs from retrograde", wrong=True
            )
        outcome.counts = {
            "fingerprint": oracles.fingerprint(got)[:16],
            "transitions": cluster.metrics.transitions,
            "message_facts_sent": cluster.metrics.message_facts_sent,
        }
        return outcome


class ServiceRunner:
    """``repro serve`` as a subprocess, driven by two keep-alive clients."""

    CLIENTS = 2

    def __init__(self, work: Path) -> None:
        self.work = work
        self.server: subprocess.Popen | None = None
        self.spans_path: Path | None = None
        self.boots = 0
        self.http_overheads: list[float] = []

    # -- server lifecycle -----------------------------------------------

    def setup(self, *, traced: bool = False) -> None:
        self.boots += 1
        self.store_path = self.work / f"service-{self.boots}.db"
        command = [sys.executable, str(HERE / "serve.py")]
        if traced:
            self.spans_path = self.work / "server-spans.json"
            command += ["--spans", str(self.spans_path)]
        command += [
            "--", "serve", "--port", "0", "--store", str(self.store_path),
            "--workers", "2", "--rate-limit", "1000000", "--rate-window", "1",
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        with open(self.work / f"server-{self.boots}.stderr", "wb") as stderr:
            self.server = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=stderr, env=env, text=True
            )
        line = self.server.stdout.readline()
        if "listening on http://" not in line:
            self.stop_server()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])
        deadline = time.monotonic() + 30
        while True:
            conn = self.connection()
            try:
                status, _ = self.request(conn, "GET", "/health")
                if status == 200:
                    break
            except OSError:
                pass
            finally:
                conn.close()
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)
        self.pid = self.server.pid

    def stop_server(self) -> None:
        if self.server is None:
            return
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server.stdout.close()
        self.server = None

    def start_tracing(self) -> None:
        self.stop_server()
        self.setup(traced=True)
        self.http_overheads = []

    def close(self) -> None:
        self.stop_server()

    # -- accounting -------------------------------------------------------

    def program_cpu(self) -> float:
        return _self_cpu() + _proc_cpu(self.pid)

    def peak_rss_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return max(own, _proc_peak_rss_mb(self.pid))

    def store_bytes(self) -> int:
        return store_bytes(self.store_path)

    # -- HTTP ---------------------------------------------------------------

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    @staticmethod
    def request(conn, method: str, path: str, body: dict | None = None):
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        payload = response.read()
        try:
            parsed = json.loads(payload)
        except json.JSONDecodeError:
            parsed = {}
        return response.status, parsed

    def run_job(self, job: dict, conn) -> Outcome:
        """One tenant session: analyze, run, read back, verify, list."""
        tenant = job["tenant"]
        name = job["name"]
        started = time.perf_counter()
        status, body = self.request(
            conn, "POST", "/v1/analyze", {"tenant": tenant, "program": job["program"]}
        )
        analyze_ok = (
            status == 200
            and body.get("certificate", {}).get("monotonicity")
            == oracles.EXPECTED_CLASS[name]
        )
        post_started = time.perf_counter()
        status, run = self.request(
            conn,
            "POST",
            "/v1/runs",
            {
                "tenant": tenant,
                "program": job["program"],
                "facts": job["facts"],
                "mode": "eval",
                "seed": job["seed"],
            },
        )
        post_latency = time.perf_counter() - post_started
        run_ok = status == 200 and run.get("matches_centralized") is True
        right = run.get("output_fingerprint") == job["fingerprint"]
        run_id = run.get("run_id", "missing")
        status_get, record = self.request(
            conn, "GET", f"/v1/runs/{run_id}?tenant={tenant}"
        )
        get_ok = (
            status_get == 200
            and record.get("output_fingerprint") == run.get("output_fingerprint")
        )
        status_verify, verdict = self.request(
            conn, "POST", f"/v1/runs/{run_id}/verify?tenant={tenant}", {}
        )
        verify_ok = status_verify == 200 and verdict.get("verified") is True
        status_list, listing = self.request(
            conn, "GET", f"/v1/runs?tenant={tenant}&limit=50"
        )
        list_ok = status_list == 200 and any(
            entry.get("run_id") == run_id for entry in listing.get("runs", ())
        )
        outcome = Outcome(time.perf_counter() - started, attempted=5)
        if run_ok and not right:
            outcome.fail(f"run {name}: output differs from the oracle", wrong=True)
        for ok, what in (
            (analyze_ok, f"analyze {name}: HTTP {status} or wrong Figure-2 class"),
            (run_ok, f"run {name}: not 200 or matches_centralized false"),
            (get_ok, f"get {name}: HTTP {status_get} or fingerprint changed"),
            (verify_ok, f"verify {name}: HTTP {status_verify} or not verified"),
            (list_ok, f"list {name}: HTTP {status_list} or run missing"),
        ):
            if not ok:
                outcome.fail(what)
        if "elapsed_s" in run:
            self.http_overheads.append(post_latency - run["elapsed_s"])
        outcome.counts = {
            "fingerprint": str(run.get("output_fingerprint"))[:16],
            **_report_counts(run.get("report", {})),
        }
        return outcome

    def run_round(self, jobs: list[dict], outcomes: list) -> None:
        """Both clients take jobs from the round's list until it is empty."""
        cursor = iter(range(len(jobs)))
        lock = threading.Lock()
        errors: list[BaseException] = []

        def client() -> None:
            conn = self.connection()
            try:
                while True:
                    with lock:
                        index = next(cursor, None)
                    if index is None:
                        return
                    outcomes[index] = self.run_job(jobs[index], conn)
            except BaseException as error:  # surfaced after the join
                errors.append(error)
            finally:
                conn.close()

        threads = [threading.Thread(target=client) for _ in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]


RUNNERS = {
    "wfs-arenas": WfsRunner,
    "protocol-mix": MixRunner,
    "service-sessions": ServiceRunner,
    "winmove-procs": ProcsRunner,
}


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------


class Phase:
    """The outcomes of one timed phase: whole rounds of the job list.

    Throughput and CPU per job are medians over the rounds, so a few
    seconds of interference from other tenants of the host move them
    less than a total over the phase would.
    """

    def __init__(self, runner, jobs: list[dict], seconds: float) -> None:
        self.rounds: list[list[Outcome]] = []
        self.round_windows: list[tuple[int, int]] = []
        self.round_cpu: list[float] = []
        self.start_ns = time.perf_counter_ns()
        while not self.rounds or time.perf_counter_ns() - self.start_ns < seconds * 1e9:
            outcomes: list = [None] * len(jobs)
            cpu_before = runner.program_cpu()
            round_start = time.perf_counter_ns()
            runner.run_round(jobs, outcomes)
            self.round_windows.append((round_start, time.perf_counter_ns()))
            self.round_cpu.append(runner.program_cpu() - cpu_before)
            self.rounds.append(outcomes)
        self.end_ns = time.perf_counter_ns()

    @property
    def outcomes(self) -> list[Outcome]:
        return [outcome for round_ in self.rounds for outcome in round_]

    @property
    def jobs(self) -> int:
        return sum(len(round_) for round_ in self.rounds)

    def jobs_per_s(self) -> float:
        return statistics.median(
            len(outcomes) / ((end - start) / 1e9)
            for outcomes, (start, end) in zip(self.rounds, self.round_windows)
        )

    def cpu_ms_per_job(self) -> float:
        return statistics.median(
            cpu * 1000 / len(outcomes)
            for outcomes, cpu in zip(self.rounds, self.round_cpu)
        )


def round_digest(outcomes: list[Outcome]) -> str:
    blob = json.dumps([o.counts for o in outcomes], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def exact_counts(phase: Phase) -> dict:
    """Per-round totals of the counts the program reports, plus whether
    every round repeated the first exactly."""
    first = phase.rounds[0]
    totals: dict = {}
    for outcome in first:
        for key, value in outcome.counts.items():
            if key != "fingerprint":
                totals[key] = totals.get(key, 0) + value
    totals["fingerprints"] = round_digest(first)
    totals["rounds_repeat"] = all(
        round_digest(r) == totals["fingerprints"] for r in phase.rounds
    )
    return totals


def program_wall_share(phase: Phase, jobs: list[dict]) -> dict:
    """Each program's share of the summed job latency."""
    spent: dict = {}
    for outcomes in phase.rounds:
        for job, outcome in zip(jobs, outcomes):
            spent[job["name"]] = spent.get(job["name"], 0.0) + outcome.latency
    total = sum(spent.values())
    return {name: round(value / total, 3) for name, value in sorted(spent.items())}


def end_to_end(phase: Phase, runner, setup_s: float) -> tuple[dict, dict]:
    latencies = sorted(o.latency * 1000 for o in phase.outcomes)
    tail = tail_percentile(len(latencies))
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_p50_ms": (statistics.median(latencies), "ms"),
        "job_tail_ms": (percentile(latencies, tail), "ms"),
        "jobs_per_s": (phase.jobs_per_s(), "1/s"),
        "cpu_ms_per_job": (phase.cpu_ms_per_job(), "ms"),
        "peak_rss_mb": (runner.peak_rss_mb(), "MB"),
    }
    detail = {"tail_percentile": tail, "samples": len(latencies)}
    return metrics, detail


#: Every per-layer metric and its unit, in the order printed.
PER_LAYER_UNITS = {
    "wfs.ms_per_job": "ms",
    "wfs.calls_per_job": "count",
    "kernel.ms_per_job": "ms",
    "kernel.calls_per_job": "count",
    "ilog.ms_per_job": "ms",
    "transducers.step_self_ms_per_job": "ms",
    "transducers.transitions_per_job": "count",
    "transducers.msg_facts_per_job": "count",
    "transducers.cache_hit_ratio": "ratio",
    "transducers.instances_per_job": "count",
    "cluster.runtime_self_ms_per_job": "ms",
    "cluster.codec_ms_per_job": "ms",
    "cluster.envelopes_per_job": "count",
    "procs.coordinator_ms_per_job": "ms",
    "procs.worker_cpu_ms_per_job": "ms",
    "procs.transitions_per_job": "count",
    "parse.ms_per_job": "ms",
    "core.classify_ms_per_job": "ms",
    "telemetry.fingerprint_ms_per_job": "ms",
    "telemetry.report_ms_per_job": "ms",
    "store.ms_per_job": "ms",
    "store.bytes_per_run": "bytes",
    "service.http_ms_per_request": "ms",
    "service.queue_wait_ms_per_request": "ms",
    "trace.overhead_pct": "%",
}


def per_layer(phase: Phase, runner, untraced: Phase, extra: dict) -> tuple[dict, dict]:
    """Per-layer metrics of a traced phase (see README.md)."""
    jobs = phase.jobs
    if isinstance(runner, ServiceRunner):
        with open(runner.spans_path, encoding="utf-8") as handle:
            dumped = json.load(handle)
        spans = dumped["spans"]
        counts = dumped["counts"]
        queue_waits = dumped["queue_waits_ns"]
    else:
        recorder = runner.recorder
        spans = recorder.spans
        counts = recorder.counts
        queue_waits = recorder.queue_waits_ns
    summary = tracing.summarize(spans, since_ns=phase.start_ns, until_ns=phase.end_ns)

    def total(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    def per_job(value: float) -> float:
        return value / jobs

    reports = [o.counts for o in phase.outcomes]
    hits = sum(c.get("cache_hits", 0) for c in reports)
    lookups = hits + sum(c.get("cache_misses", 0) for c in reports)
    stamps = sorted(counts.get("instances", []))
    instances = tracing.count_between(stamps, phase.start_ns, phase.end_ns)
    runs = extra.get("runs", 0)
    metrics = {
        "wfs.ms_per_job": per_job(total("wfs", "ms")),
        "wfs.calls_per_job": per_job(total("wfs", "calls")),
        "kernel.ms_per_job": per_job(total("kernel", "ms")),
        "kernel.calls_per_job": per_job(total("kernel", "calls")),
        "ilog.ms_per_job": per_job(total("ilog", "ms")),
        "transducers.step_self_ms_per_job": per_job(
            total("transducers.step", "self_ms")
        ),
        "transducers.transitions_per_job": per_job(
            sum(c.get("transitions", 0) for c in reports)
        ),
        "transducers.msg_facts_per_job": per_job(
            sum(c.get("message_facts_sent", 0) for c in reports)
        ),
        "transducers.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "transducers.instances_per_job": per_job(instances),
        "cluster.runtime_self_ms_per_job": per_job(
            total("cluster.runtime", "self_ms")
        ),
        "cluster.codec_ms_per_job": per_job(
            total("codec.encode", "ms") + total("codec.decode", "ms")
        ),
        "cluster.envelopes_per_job": per_job(total("codec.encode", "calls")),
        "procs.coordinator_ms_per_job": extra.get("coordinator_ms_per_job", 0.0),
        "procs.worker_cpu_ms_per_job": extra.get("worker_cpu_ms_per_job", 0.0),
        "procs.transitions_per_job": extra.get("procs_transitions_per_job", 0.0),
        "parse.ms_per_job": per_job(total("parse", "ms")),
        "core.classify_ms_per_job": per_job(total("core.classify", "ms")),
        "telemetry.fingerprint_ms_per_job": per_job(
            total("telemetry.fingerprint", "ms")
        ),
        "telemetry.report_ms_per_job": per_job(total("telemetry.report", "ms")),
        "store.ms_per_job": per_job(total("store", "ms")),
        "store.bytes_per_run": extra.get("store_bytes", 0) / runs if runs else 0.0,
        "service.http_ms_per_request": (
            statistics.fmean(runner.http_overheads) * 1000
            if getattr(runner, "http_overheads", None)
            else 0.0
        ),
        "service.queue_wait_ms_per_request": (
            statistics.fmean(queue_waits) / 1e6 if queue_waits else 0.0
        ),
        "trace.overhead_pct": (
            untraced.jobs_per_s() / phase.jobs_per_s() - 1
        ) * 100,
    }
    out = {name: (metrics[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    # Calls per round, for the exact-count comparison between runs.
    round_calls = []
    for since, until in phase.round_windows:
        in_round = tracing.summarize(spans, since_ns=since, until_ns=until)
        round_calls.append(
            {
                "instances": tracing.count_between(stamps, since, until),
                **{name: entry["calls"] for name, entry in sorted(in_round.items())
                   if name in ("wfs", "kernel", "ilog", "transducers.step")},
            }
        )
    detail = {
        "cache_lookups": lookups,
        "traced_jobs": jobs,
        "untraced_jobs_per_s": untraced.jobs_per_s(),
        "traced_jobs_per_s": phase.jobs_per_s(),
        "engine_calls_per_round": round_calls[0],
        "engine_calls_repeat": all(r == round_calls[0] for r in round_calls),
    }
    return out, detail


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def warmup_job(jobs: list[dict]) -> dict:
    return min(jobs, key=lambda job: job["size"])


def warm_up(runner, jobs: list[dict]) -> None:
    """One untimed job so lazy imports and caches are ready; its answer
    is checked like every other."""
    outcomes = [None]
    runner.run_round([warmup_job(jobs)], outcomes)
    if outcomes[0].failed:
        raise RuntimeError(f"warm-up job failed: {outcomes[0].errors}")


def probe_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, each measured like the run's own."""
    samples = []
    for _ in range(SETUP_PROBES):
        result = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if result.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{result.stderr}")
        samples.append(float(result.stdout.strip().splitlines()[-1]))
    return samples


def make_work_dir() -> Path:
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)
    return work


def traced_run(runner, jobs: list[dict], seconds: float, spans_out: Path):
    """An untraced half, then a traced half; returns the per-layer metrics
    and writes the spans to *spans_out*."""
    untraced = Phase(runner, jobs, seconds / 2)
    runner.start_tracing()
    if isinstance(runner, ServiceRunner):
        warm_up(runner, jobs)  # the traced server is a fresh process
    store_before = runner.store_bytes() if hasattr(runner, "store_bytes") else 0
    self_before, children_before = _self_cpu(), _children_cpu()
    phase = Phase(runner, jobs, seconds / 2)
    runner.close()  # the server writes its spans when it stops
    extra: dict = {}
    if hasattr(runner, "store_bytes"):
        extra["store_bytes"] = runner.store_bytes() - store_before
        extra["runs"] = phase.jobs
    if isinstance(runner, ProcsRunner):
        extra["coordinator_ms_per_job"] = (
            (_self_cpu() - self_before) * 1000 / phase.jobs
        )
        extra["worker_cpu_ms_per_job"] = (
            (_children_cpu() - children_before) * 1000 / phase.jobs
        )
        extra["procs_transitions_per_job"] = (
            sum(o.counts["transitions"] for o in phase.outcomes) / phase.jobs
        )
    metrics, detail = per_layer(phase, runner, untraced, extra)
    if isinstance(runner, ServiceRunner):
        shutil.copyfile(runner.spans_path, spans_out)
    else:
        runner.recorder.dump(spans_out)
    detail["spans"] = str(spans_out.relative_to(ROOT))
    return metrics, detail, [untraced, phase]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    generated = time.perf_counter()
    jobs = gen.make_jobs(args.workload, args.seed)
    generation_s = time.perf_counter() - generated
    work = make_work_dir()
    runner = RUNNERS[args.workload](work)
    try:
        runner.setup()
        warm_up(runner, jobs)
        setup_s = time.perf_counter() - _PROCESS_START - generation_s
        if args.setup_probe:
            print(setup_s)
            return 0
        stat_before = _cpu_times()
        if args.trace:
            metrics, detail, checked = traced_run(
                runner, jobs, args.seconds, WORK / f"spans-{args.workload}.json"
            )
        else:
            phase = Phase(runner, jobs, args.seconds)
            metrics, detail = end_to_end(phase, runner, setup_s)
            checked = [phase]
        runner.close()
        stat_after = _cpu_times()
        if not args.trace:
            samples = [setup_s] + probe_setup(args.workload, args.seed)
            metrics["setup_s"] = (statistics.median(samples), "s")
            detail["setup_samples_s"] = [round(s, 4) for s in samples]
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [o for p in checked for o in p.outcomes]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    errors = sorted({e for o in outcomes for e in o.errors})
    detail.update(
        workload=args.workload,
        seed=args.seed,
        rounds=sum(len(p.rounds) for p in checked),
        jobs_per_round=len(jobs),
        counts=exact_counts(checked[-1]),
        environment=environment(stat_before, stat_after),
    )
    if args.workload == "protocol-mix":
        detail["program_wall_share"] = program_wall_share(checked[-1], jobs)
    if args.workload in ("wfs-arenas", "winmove-procs"):
        detail["multi_component_share"] = round(
            sum(job["components"] > 1 for job in jobs) / len(jobs), 3
        )
    for line in errors[:20]:
        print(f"failed: {line}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:38s} {value:14.4f} {unit}")
    print(
        json.dumps(
            {
                "correct": not any(o.wrong for o in outcomes),
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
