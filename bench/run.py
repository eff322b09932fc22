#!/usr/bin/env python3
"""Benchmark for rignac: one workload's CLI jobs, run serially in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --selfcheck

Run from the root of a source checkout; the program is imported from
`src/`. Each job is a call of `rignac.cli.main` with the job's input on
stdin: a closed loop with a single client. The job list of the workload
(`workloads.py`) is run in passes until S seconds have gone by, and every
answer is checked against an independent oracle after it is timed.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates
untraced passes with passes that record spans around calls into each
module's entry points (`tracing.py`), and reports the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed
and metrics. Job diagnostics go to stderr.

Metric names and units are read from BENCHMARK.json. `--tiny` runs the
same jobs on small inputs; `--selfcheck` runs every workload that way,
traced and untraced, and checks that every answer is correct.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 5  # set-ups before the first pass; one more precedes each later pass
EXIT_CODE_REFUSAL = (2, 3)  # rignac's usage error and precondition failure

# metric names and units, by --trace value
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    trace: {m["name"]: m["unit"] for m in SPEC[key]} for trace, key in ((0, "end_to_end"), (1, "per_layer"))
}

# counters that must repeat exactly from one traced pass to the next
DETERMINISTIC = (
    "colouring.nodes",
    "colouring.classes",
    "colouring.split_nodes",
    "rigidity.related_pairs_calls",
    "graph.canonical_form_calls",
    "stable_cut.alg1_calls",
    "stable_cut.pair_probes_est",
    "catalog.classes",
)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# set-up


def import_cli():
    """Import rignac afresh from the checkout's src/ and return its cli module."""
    for name in [m for m in sys.modules if m == "rignac" or m.startswith("rignac.")]:
        del sys.modules[name]
    cli = importlib.import_module("rignac.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"rignac was imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int, tiny: bool, probe: "SpeedProbe"):
    """Import the program and build the inputs.

    Returns both and the time taken in nominal seconds: wall seconds scaled
    to a host on which the calibration loop takes CAL_NOMINAL_S (see Pass).
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    with probe.sampling():
        start = time.perf_counter()
        cli = import_cli()
        jobs = workloads.build(workload, seed, tiny)
        elapsed = time.perf_counter() - start
    return cli, jobs, elapsed * CAL_NOMINAL_S / probe.mean_s()


# ---------------------------------------------------------------------------
# jobs and passes


def run_job(cli, job: workloads.Job) -> tuple[float, object, str, str]:
    """Wall time of one cli.main call, its exit code (None if it raised), stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(job.stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main(list(job.argv))
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code
            except Exception:
                rc = None
                traceback.print_exc()
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    return elapsed, rc, out.getvalue(), err.getvalue()


class Judge:
    """Classifies each job run as ok, refused, wrong or error.

    Verdicts are cached by output, so a repeated identical answer is
    checked once. Each distinct failure is logged once.
    """

    def __init__(self) -> None:
        self._verdicts: dict[tuple[int, object, bytes], str] = {}

    def __call__(self, index: int, job: workloads.Job, rc, out: str, err: str) -> str:
        key = (index, rc, hashlib.sha256(out.encode()).digest())
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._judge(job, rc, out)
            self._verdicts[key] = verdict
            if verdict != "ok":
                tail = err.strip().splitlines()[-1:] or [""]
                log(f"job {index} `rignac {' '.join(job.argv)}`: {verdict}, exit {rc}: {tail[0]}")
        return verdict

    @staticmethod
    def _judge(job: workloads.Job, rc, out: str) -> str:
        if rc is None:
            return "error"
        if rc != job.exit_code:
            return "refused" if rc in EXIT_CODE_REFUSAL else "wrong"
        try:
            return "ok" if job.check(out) else "wrong"
        except (ValueError, KeyError, TypeError):  # malformed output
            return "wrong"


CAL_PERIOD_S = 0.05
CAL_NOMINAL_S = 0.0005  # a typical calibration_s() on a 2.1 GHz Xeon core


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop of integer and dict work (about 0.5 ms)."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(2000):
        k = (i * 2_654_435_761) & 0x3FF
        table[k] = i
        acc += len(table) & 3
    return time.perf_counter() - start


class SpeedProbe:
    """Times the calibration loop every CAL_PERIOD_S of wall time while a job runs.

    A SIGALRM handler runs the loop between the job's bytecodes, so the
    samples see the interpreter's speed during the job; they cost about 1%
    of its time. Timers are not inherited by forked workers.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self.samples.append(calibration_s()))

    @contextlib.contextmanager
    def sampling(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def mean_s(self) -> float:
        """Mean calibration time during the last job; a short job is topped up after it."""
        while len(self.samples) < 3:
            self.samples.append(calibration_s())
        return statistics.fmean(self.samples)


class Pass:
    """One run of the whole job list.

    `wall_cal` sums each job's wall time divided by the mean calibration
    time sampled during that job. On a shared host the CPU's speed drifts
    by a fifth within seconds to minutes; the ratio cancels most of it.
    """

    def __init__(
        self, cli, jobs: list[workloads.Job], judge: Judge, probe: SpeedProbe, tracer: Tracer | None = None
    ) -> None:
        self.command_s = dict.fromkeys(workloads.COMMANDS, 0.0)
        self.outcomes: Counter[str] = Counter()
        self.spans = []
        self.cli_self_s = 0.0
        self.wall_cal = 0.0
        for index, job in enumerate(jobs):
            gc.collect()
            with probe.sampling():
                elapsed, rc, out, err = run_job(cli, job)
            self.wall_cal += elapsed / probe.mean_s()
            self.command_s[job.command] += elapsed
            if tracer is not None:
                spans, root_s = tracer.take()
                self.spans += spans
                self.cli_self_s += elapsed - root_s
            self.outcomes[judge(index, job, rc, out, err)] += 1
        self.wall_s = sum(self.command_s.values())


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def layer_metrics(p: Pass) -> tuple[dict[str, float], list[str]]:
    """Per-layer values of a traced pass, and any inconsistency found."""
    self_s: defaultdict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    for s in p.spans:
        self_s[s.name] += s.self_time
        calls[s.name] += 1
    problems = []

    def spans_of(name: str):
        return [s for s in p.spans if s.name == name]

    nac = spans_of("enumerate_nac_detailed")
    single = [s for s in nac if s.info["workers"] <= 1]
    by_graph = {s.info["graph"]: s for s in single}
    nodes = sum(s.info["nodes"] for s in single)
    classes = sum(s.info["count"] for s in single)
    enum_s = sum(s.self_time for s in single)
    split_nodes, time_1w, time_nw = 0, 0.0, 0.0
    for s in nac:
        one = by_graph.get(s.info["graph"]) if s.info["workers"] > 1 else None
        if one is None:
            continue
        if s.info["count"] != one.info["count"]:
            problems.append(f"{s.info['workers']} workers counted {s.info['count']}, 1 worker {one.info['count']}")
        split_nodes += s.info["nodes"] - one.info["nodes"]
        time_1w += one.duration
        time_nw += s.duration

    rank_s = {s.info: s.self_time for s in spans_of("rank")}
    report_s = {s.info: s.self_time for s in spans_of("rigidity_report")}
    both = rank_s.keys() & report_s.keys()
    rank_both = sum(rank_s[k] for k in both)

    alg1 = [s.info for s in spans_of("algorithm1_stable_cut") if s.info is not None]
    values = {
        "colouring.enum_s": enum_s,
        "colouring.nodes": nodes,
        "colouring.classes": classes,
        "colouring.yield": classes / nodes if nodes else 0.0,
        "colouring.nodes_per_s": nodes / enum_s if enum_s else 0.0,
        "colouring.split_nodes": split_nodes,
        "colouring.speedup_2w": time_1w / time_nw if time_nw else 0.0,
        "colouring.construct_s": self_s["construct_nac_minimally_rigid"],
        "rigidity.rank_s": self_s["rank"],
        "rigidity.report_s": self_s["rigidity_report"],
        "rigidity.report_over_rank": sum(report_s[k] for k in both) / rank_both if rank_both else 0.0,
        "rigidity.related_pairs_s": self_s["rigidly_related_pairs"],
        "rigidity.related_pairs_calls": calls["rigidly_related_pairs"],
        "rigidity.gsc_s": self_s["recognize_gsc"],
        "rigidity.zext_s": self_s["recognize_0extension_graph"],
        "graph.canonical_form_s": self_s["canonical_form"],
        "graph.canonical_form_calls": calls["canonical_form"],
        "graph.parse_s": self_s["parse_graph"],
        "stable_cut.alg1_s": self_s["algorithm1_stable_cut"],
        "stable_cut.alg1_calls": sum(i["calls"] for i in alg1),
        "stable_cut.pair_probes_est": sum(i["pair_probes_est"] for i in alg1),
        "stable_cut.exhaustive_s": self_s["exhaustive_stable_cut"],
        "catalog.generate_s": self_s["minimally_rigid_graph6"],
        "catalog.classify_s": self_s["enumerate_minimally_rigid"],
        "catalog.classes": sum(s.info for s in spans_of("enumerate_minimally_rigid")),
        "cli.self_s": p.cli_self_s,
    }
    return values, problems


# ---------------------------------------------------------------------------
# one benchmark run


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    probe = SpeedProbe()
    setups = [set_up(workload, seed, tiny, probe)[2] for _ in range(SETUP_REPEATS - 1)]
    judge = Judge()
    plain: list[Pass] = []
    traced: list[Pass] = []
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        cli, jobs, setup_s = set_up(workload, seed, tiny, probe)
        setups.append(setup_s)
        plain.append(Pass(cli, jobs, judge, probe))
        if trace:
            with tracer.installed():
                traced.append(Pass(cli, jobs, judge, probe, tracer))
        if time.perf_counter() - start >= seconds and (not trace or len(traced) >= 2):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes = sum((p.outcomes for p in plain + traced), Counter())
    attempted = sum(outcomes.values())
    failed = attempted - outcomes["ok"]
    correct = outcomes["wrong"] == 0 and outcomes["error"] == 0

    if not trace:
        values = {
            "wall_cal": statistics.median(p.wall_cal for p in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": peak_rss_mib,
            "ok_ratio": outcomes["ok"] / attempted,
        }
    else:
        per_pass = []
        for p in traced:
            layer, problems = layer_metrics(p)
            per_pass.append(layer)
            for problem in problems:
                log(f"inconsistent counts: {problem}")
                correct = False
        for name in DETERMINISTIC:
            seen = {layer[name] for layer in per_pass}
            if len(seen) > 1:
                log(f"{name} differs between traced passes: {sorted(seen)}")
                correct = False
        values = {name: statistics.median(p.command_s[name] for p in plain) for name in workloads.COMMANDS}
        values["wall_s"] = statistics.median(p.wall_s for p in plain)
        values["fail_ratio"] = failed / attempted
        for name in per_pass[0]:
            values[name] = statistics.median(layer[name] for layer in per_pass)
        # in nominal seconds, like setup_s, so that host drift cancels
        overhead_cal = statistics.median(p.wall_cal for p in traced) - statistics.median(p.wall_cal for p in plain)
        values["trace.overhead_s"] = overhead_cal * CAL_NOMINAL_S
    log(f"{workload} seed {seed}: {len(plain)} untraced and {len(traced)} traced passes, outcomes {dict(outcomes)}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in UNITS[trace].items()},
    }


# ---------------------------------------------------------------------------
# self-check


def selfcheck() -> int:
    """Run every workload on tiny inputs, traced and untraced; check that each run is correct."""
    ok = True
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            argv = ["--workload", w["name"], "--seed", "1", "--seconds", "0", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), *argv],
                capture_output=True, text=True, timeout=170, cwd=ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            good = result is not None and result["correct"]
            ok &= good
            summary = {k: result[k] for k in ("attempted", "failed")} if result else proc.stderr.strip()[-300:]
            print(f"{'PASS' if good else 'FAIL'}  {w['name']:13s} trace={trace}  {summary}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for checking the harness")
    parser.add_argument("--selfcheck", action="store_true", help="run every workload with --tiny")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except ImportError as exc:
        log(f"cannot import the program from {SRC}: {exc}")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
