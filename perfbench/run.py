"""Benchmark of the mvprob CLI: end to end untraced, per layer traced.

Run from the root of a checkout; the program is taken from ``src/``::

    python3 perfbench/run.py --workload finite-sweep --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40

Each workload (see ``workloads.py``) is a batch of CLI commands over
documents generated from ``--seed``.  The batch runs as a closed loop,
one client, each command starting after the previous one exits.

A run is pinned to one core and repeats rounds until the next one would
end after ``--seconds``.  With ``--trace 0`` a round times a few set-up
interpreters, then for each command in turn times a reference process
and runs the command three times: called as ``mvprob.cli.main(argv)``
in this process with stdout captured, spawned as ``python -m mvprob``,
and called again.  It prints the end-to-end metrics: means over the
rounds, scaled by the machine's speed as the reference times read it
(see `measure_end_to_end`).  With ``--trace 1`` a round times a few
start-up interpreters, then makes an untraced library pass and a traced
one (``layertrace.Tracer``), and it prints the per-layer metrics.

Every command's exit code, verdict and the report fields known by
construction are checked on every run; the library run must print the
same bytes as the CLI; for the default seed every report must match the
SHA-256 recorded in ``digests.json``.  A traceback on stderr or an exit
code outside {0, 1, 2} is a failure too.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is the run record (machine, load, commit, failures).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import layertrace
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 0
SPAWNS_PER_ROUND = 3  # set-up (or start-up) samples taken in each round

SETUP_CODE = (
    "import json, sys\n"
    "import mvprob\n"
    "from mvprob import documents\n"
    "for path in sys.argv[1:]:\n"
    "    with open(path) as f:\n"
    "        documents.parse_document(json.load(f))\n"
)
STARTUP_CODE = "import mvprob.cli"
# The reference process: an interpreter that imports the standard modules
# mvprob imports, and not mvprob.  Its spawn-to-exit time measures how
# fast the machine is at the moment (see `measure_end_to_end`).
REFERENCE_CODE = (
    "import argparse, dataclasses, fractions, functools, itertools, json, math, pathlib,"
    " random, re, typing"
)
# Seconds the reference process takes on the nominal machine that the
# end-to-end times are scaled to.  A round figure: the 2-vCPU Xeon the
# benchmark was built on ran it in 50-80 ms.
REFERENCE_S = 0.05

# report metric keys that count verification work
CHECK_COUNTERS = (
    "checks",
    "pairs",
    "triples",
    "elements_checked",
    "identities_checked",
    "pairs_checked",
    "linearity_checks",
    "bound_checks",
    "uniqueness_checks",
    "entries",
)

END_TO_END = {
    "wall_s": "s",
    "cmd_p50_s": "s",
    "lib_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (traced function, statistic); `.calls` is a count, `.us` the mean
# inclusive microseconds per call, `.s` inclusive seconds
FUNCTION_METRICS = (
    ("core.oplus", "calls"),
    ("core.oplus", "us"),
    ("core.neg", "calls"),
    ("core.neg", "us"),
    ("core.dist", "calls"),
    ("core.dist", "us"),
    ("core.enumerate_carrier", "calls"),
    ("rationals.require_unit", "calls"),
    ("axioms.check_axioms", "s"),
    ("axioms.random_element", "calls"),
    ("states.table_state", "s"),
    ("states.rho", "calls"),
    ("states.rho", "us"),
    ("states.eval_state", "calls"),
    ("states.eval_state", "us"),
    ("states.is_faithful", "calls"),
    ("spectra.ideals", "s"),
    ("spectra.ideal", "s"),
    ("spectra.quotient", "s"),
    ("representation.embed_l1", "s"),
    ("representation.integral", "us"),
    ("analysis.pow_bounds", "s"),
    ("analysis.moment_fit_lp", "s"),
    ("analysis.check_hausdorff", "s"),
    ("independence.bilinear_map", "s"),
    ("independence.check_bilinear", "s"),
    ("independence.verify_factorization", "s"),
    ("independence.apply_bilinear", "calls"),
    ("documents.parse_document", "s"),
    ("cli.main", "s"),
    ("cli.render_report", "s"),
)
STAT_UNITS = {"calls": "count", "us": "us", "s": "s"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for layer in layertrace.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    for key, stat in FUNCTION_METRICS:
        units[f"{key}.{stat}"] = STAT_UNITS[stat]
    units["axioms.us_per_check"] = "us"
    units["cli.checks_reported"] = "count"
    units["cli.startup_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    exit: int
    stdout: str
    stderr: str
    seconds: float
    rss_mb: float = 0.0


@dataclass
class Checker:
    """Checks every outcome and tallies attempts and failures."""

    digests: dict | None  # label -> expected SHA-256 of the report
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)  # label -> first report seen

    def check(self, cmd: workloads.Command, outcome: Outcome, where: str) -> None:
        self.attempted += 1
        problem = self._problem(cmd, outcome)
        if problem is None:
            first = self.reference.setdefault(cmd.label, outcome.stdout)
            if first != outcome.stdout:
                problem = "report differs from the first pass's bytes"
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{where} {cmd.label}: {problem}")

    def _problem(self, cmd: workloads.Command, outcome: Outcome) -> str | None:
        if "Traceback" in outcome.stderr:
            return "traceback on stderr"
        if outcome.exit not in (0, 1, 2):
            return f"exit code {outcome.exit} outside the contract"
        if outcome.exit != cmd.exit:
            return f"exit code {outcome.exit}, expected {cmd.exit}"
        try:
            report = json.loads(outcome.stdout)
        except ValueError:
            return "report is not JSON"
        if report.get("verdict") != cmd.verdict:
            return f"verdict {report.get('verdict')!r}, expected {cmd.verdict!r}"
        for section, expected in (("metrics", cmd.metrics), ("result", cmd.result)):
            got = report.get(section) or {}
            for key, value in expected.items():
                if got.get(key) != value:
                    return f"{section}.{key} is {got.get(key)!r}, expected {value!r}"
        if cmd.witness is not None and cmd.witness not in report.get("witnesses", []):
            return f"witness {cmd.witness} missing"
        if self.digests is not None:
            digest = hashlib.sha256(outcome.stdout.encode()).hexdigest()
            if self.digests.get(cmd.label) != digest:
                return "report digest differs from the recorded one"
        return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# The kernel seeds a child's max-RSS with the memory of the process that
# spawned it, so the timed processes are started by this small helper
# rather than by the benchmark, whose own memory would otherwise be read
# as the child's.  It reads one JSON job per line and answers with the
# exit code, the seconds from spawn to exit and the max-RSS in kilobytes.
SPAWNER_CODE = """
import json, os, sys, time
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
for line in sys.stdin:
    args, out, err = json.loads(line)
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(args[0], args, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    print(json.dumps([os.waitstatus_to_exitcode(status), seconds, usage.ru_maxrss]), flush=True)
"""


class Spawner:
    """Runs processes through the helper above; close it with ``with``."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.helper = subprocess.Popen(
            [sys.executable, "-c", SPAWNER_CODE],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=workdir,
            env=child_env(),
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.helper.stdin.close()
        try:
            self.helper.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.helper.kill()
            self.helper.wait()
        self.helper.stdout.close()

    def run(self, args: list[str]) -> Outcome:
        """Run one process; time it from spawn to exit and read its max RSS."""
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        self.helper.stdin.write(json.dumps([args, str(out_path), str(err_path)]) + "\n")
        self.helper.stdin.flush()
        reply = self.helper.stdout.readline()
        if not reply:
            raise RuntimeError("the spawning helper exited")
        exit_code, seconds, max_rss_kb = json.loads(reply)
        return Outcome(
            exit_code,
            out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"),
            seconds,
            max_rss_kb / 1024.0,  # kilobytes on Linux
        )


def run_in_process(argv: list[str]) -> Outcome:
    """Run one command through ``mvprob.cli.main`` with output captured."""
    from mvprob import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed command, not the end of the run
            traceback.print_exc()
            code = -1
    return Outcome(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    commands: tuple[workloads.Command, ...]
    argvs: list[list[str]]
    doc_paths: list[str]
    spawner: Spawner


def lib_pass(batch: Batch, checker: Checker, where: str = "lib") -> tuple[list[float], list[str]]:
    """Run every command in this process; return per-command seconds and reports."""
    times, reports = [], []
    for cmd, argv in zip(batch.commands, batch.argvs):
        outcome = run_in_process(argv)
        checker.check(cmd, outcome, where)
        times.append(outcome.seconds)
        reports.append(outcome.stdout)
    return times, reports


def end_to_end_round(batch: Batch, checker: Checker, references: list[float]):
    """Each command in turn: the reference process, then the command in
    process, through the CLI, and in process again.

    The library runs take less time than the CLI runs, so each command
    runs twice in process to give them a like share of the run.  The
    reference times are appended to ``references``.  Returns per-command
    CLI seconds, per-command library seconds (the mean of the two runs)
    and the largest max-RSS (MB) of the CLI processes.
    """
    cli_times, lib_times, peak = [], [], 0.0
    for cmd, argv in zip(batch.commands, batch.argvs):
        references.extend(timed_spawns(REFERENCE_CODE, [], 1, batch, checker))
        first = run_in_process(argv)
        checker.check(cmd, first, "lib")
        outcome = batch.spawner.run([sys.executable, "-m", "mvprob", *argv])
        checker.check(cmd, outcome, "cli")
        cli_times.append(outcome.seconds)
        peak = max(peak, outcome.rss_mb)
        second = run_in_process(argv)
        checker.check(cmd, second, "lib")
        lib_times.append((first.seconds + second.seconds) / 2)
    return cli_times, lib_times, peak


def traced_pass(batch: Batch, checker: Checker) -> dict:
    with layertrace.Tracer() as tracer:
        _, reports = lib_pass(batch, checker, "traced")
    metrics: dict[str, float] = {}
    for layer in layertrace.LAYERS:
        metrics[f"{layer}.self_s"] = tracer.layer_self(layer)
        metrics[f"{layer}.calls"] = tracer.layer_calls(layer)
    absent = [key for key, _ in FUNCTION_METRICS if not tracer.has(key)]
    read = {"calls": tracer.calls, "us": tracer.us_per_call, "s": tracer.seconds}
    for key, stat in FUNCTION_METRICS:
        metrics[f"{key}.{stat}"] = read[stat](key)
    axiom_checks, checks_reported = 0, 0
    for cmd, text in zip(batch.commands, reports):
        try:
            counters = json.loads(text).get("metrics", {})
        except ValueError:
            continue  # already counted as a failure by the checker
        checks_reported += sum(
            v for k, v in counters.items() if k in CHECK_COUNTERS and not isinstance(v, bool)
        )
        if "check-axioms" in cmd.argv:
            axiom_checks += counters.get("checks", 0)
    metrics["axioms.us_per_check"] = (
        tracer.seconds("axioms.check_axioms") / axiom_checks * 1e6 if axiom_checks else 0.0
    )
    metrics["cli.checks_reported"] = checks_reported
    return {"metrics": metrics, "absent": absent}


def timed_spawns(code: str, extra: list[str], repeats: int, batch: Batch, checker) -> list[float]:
    times = []
    for _ in range(repeats):
        outcome = batch.spawner.run([sys.executable, "-c", code, *extra])
        checker.attempted += 1
        if outcome.exit != 0 or outcome.stderr:
            checker.failed += 1
            checker.failures.append(f"set-up process: exit {outcome.exit}: {outcome.stderr[-300:]}")
        times.append(outcome.seconds)
    return times


def rounds_until(seconds: float, run_start: float, one_round) -> int:
    """Call ``one_round`` until the next round would end after ``seconds``; at least once."""
    rounds = 0
    while True:
        round_start = time.perf_counter()
        one_round()
        rounds += 1
        now = time.perf_counter()
        if now - run_start + (now - round_start) > seconds:
            return rounds


def measure_end_to_end(batch: Batch, checker: Checker, seconds: float, run_start: float):
    """End-to-end metrics, their unscaled values and the run's speed factor.

    The shared machine's speed swings by up to a factor of two within
    seconds and drifts by a fifth over minutes, for the program and any
    other code alike, so two runs of the same program minutes apart read
    different times.  The run therefore times a reference process before
    every command, and divides every time by the speed factor: the mean
    reference time over the run / ``REFERENCE_S``.  What is left is the
    time on a nominal machine that runs the reference in ``REFERENCE_S``.
    The reference never imports mvprob, so a slower program reads slower;
    a slower machine moves the reference and the program together.
    """
    setup, cli_times, lib_times, peaks, references = [], [], [], [], []

    def one_round():
        # set-up samples are spread over the run like the passes
        setup.extend(timed_spawns(SETUP_CODE, batch.doc_paths, SPAWNS_PER_ROUND, batch, checker))
        cli, lib, peak = end_to_end_round(batch, checker, references)
        cli_times.append(cli)
        lib_times.append(lib)
        peaks.append(peak)

    rounds = rounds_until(seconds, run_start, one_round)
    raw = {
        "wall_s": statistics.fmean(sum(times) for times in cli_times),
        # each command's mean first: a median over all CLI runs lands at
        # the edge between the quick and the slow commands
        "cmd_p50_s": statistics.median(statistics.fmean(t) for t in zip(*cli_times)),
        "lib_wall_s": statistics.fmean(sum(times) for times in lib_times),
        "setup_s": statistics.median(setup),
    }
    speed = statistics.fmean(references) / REFERENCE_S
    metrics = {name: value / speed for name, value in raw.items()}
    metrics["peak_rss_mb"] = statistics.median(peaks)
    return metrics, rounds, {"speed_factor": speed, "unscaled_s": raw}


def measure_per_layer(batch: Batch, checker: Checker, seconds: float, run_start: float):
    startup: list[float] = []
    samples: list[dict] = []
    absent: list[str] = []

    def one_round():
        nonlocal absent
        startup.extend(timed_spawns(STARTUP_CODE, [], SPAWNS_PER_ROUND, batch, checker))
        untraced = sum(lib_pass(batch, checker)[0])
        traced = traced_pass(batch, checker)
        traced["metrics"]["trace.overhead"] = traced["metrics"]["cli.main.s"] / untraced
        samples.append(traced["metrics"])
        absent = traced["absent"]

    rounds = rounds_until(seconds, run_start, one_round)
    metrics = {}
    for name, unit in per_layer_units().items():
        if name == "cli.startup_s":
            metrics[name] = statistics.median(startup)
        elif unit == "count":  # exact: every traced pass must agree
            metrics[name] = samples[0][name]
            checker.attempted += 1
            if any(r[name] != metrics[name] for r in samples):
                checker.failed += 1
                checker.failures.append(f"count {name} differs between traced passes")
        else:
            metrics[name] = statistics.median(r[name] for r in samples)
    return metrics, rounds, {"absent_functions": absent}


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


@contextlib.contextmanager
def work_directory(tag: str):
    """A fresh directory under the checkout for generated documents, removed on exit."""
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it


def load_digests(workload: str, seed: int, scale: str) -> dict | None:
    """Recorded report digests apply to the default seed at full scale only."""
    if seed != DEFAULT_SEED or scale != "full":
        return None
    try:
        recorded = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        recorded = {}
    return recorded.get(workload, {})


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
                 digests: dict | None = None) -> dict:
    """One measured run; returns the result and its record."""
    run_start = time.perf_counter()
    load_before = os.getloadavg()
    workload = workloads.build(name, seed, scale)
    checker = Checker(load_digests(name, seed, scale) if digests is None else digests)
    with work_directory(f"{name}-{seed}") as workdir, Spawner(workdir) as spawner:
        paths = workload.write(workdir)
        batch = Batch(
            workload.commands,
            [workloads.resolve_argv(c.argv, paths) for c in workload.commands],
            [str(p) for p in paths.values()],
            spawner,
        )
        spawner.run([sys.executable, "-c", STARTUP_CODE])  # fills __pycache__, untimed
        measure = measure_per_layer if trace else measure_end_to_end
        metrics, rounds, measured = measure(batch, checker, seconds, run_start)
    units = per_layer_units() if trace else END_TO_END
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "seconds": seconds,
        "rounds": rounds,
        "commands_per_pass": len(workload.commands),
        "error_rate": checker.failed / checker.attempted,
        "failures": checker.failures,
        **measured,
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "git_commit": _git_commit(),
        "elapsed_s": time.perf_counter() - run_start,
    }
    return {"result": result, "record": record}


def report_digests(workload: workloads.Workload) -> dict[str, str]:
    """SHA-256 of every command's report, run in this process."""
    with work_directory("digests") as workdir:
        paths = workload.write(workdir)
        return {
            cmd.label: hashlib.sha256(
                run_in_process(workloads.resolve_argv(cmd.argv, paths)).stdout.encode()
            ).hexdigest()
            for cmd in workload.commands
        }


def record_digests() -> None:
    """Rewrite digests.json from the default seed's reports at this commit."""
    recorded = {
        name: report_digests(workloads.build(name, DEFAULT_SEED)) for name in workloads.WORKLOADS
    }
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def _print_table(results: dict) -> None:
    for name, runs in results.items():
        print(f"== {name}")
        for run in runs:
            for metric, m in run["result"]["metrics"].items():
                print(f"  {metric:40s} {m['value']:>16.6g} {m['unit']}")
            print(f"  {'error_rate':40s} {run['record']['error_rate']:>16.6g} ratio")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the default seed and exit")
    args = parser.parse_args(argv)
    if not (SRC / "mvprob" / "__init__.py").is_file():
        print(f"error: no mvprob sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mvprob

    if Path(mvprob.__file__).resolve().parent != SRC / "mvprob":
        print(f"error: imported mvprob from {mvprob.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # One core for this process, the helper and every process they
        # start, so the reference process runs on the core that runs the
        # commands: each virtual core of a shared host has its own speed.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    if args.workload != "all":
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"record": run["record"]}))
        print(json.dumps(run["result"]))
        return 0

    results, combined = {}, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        results[name] = []
        for trace in (False, True):
            run = run_workload(name, args.seed, args.seconds, trace)
            results[name].append(run)
            print(json.dumps({"record": run["record"]}))
            combined["correct"] &= run["result"]["correct"]
            combined["attempted"] += run["result"]["attempted"]
            combined["failed"] += run["result"]["failed"]
            for metric, m in run["result"]["metrics"].items():
                combined["metrics"][f"{name}:{metric}"] = m
    _print_table(results)
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
