"""diagrank benchmark: drive ``diagrank.cli.main`` on seeded instance files.

Usage, from the repository root:

    python3 bench/run.py --workload random-mix --seed 1 --seconds 35 --trace 0

One process, no threads, one closed-loop client: each CLI call is made
in-process (stdout captured) when the previous one has returned.  The
instance files are generated from ``--seed`` under ``.bench_work/`` and
removed at exit.  Every answer is verified by ``checker`` (independent of
the package); a run whose checker self-test fails cannot be ``correct``.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to
a reference machine speed measured in the run by ``speed.Gauge`` (see
that module); the unscaled values are printed on ``#`` lines.
``--trace 1`` replays the workload's fixed first rounds untraced and
traced, in alternation, and prints the per-layer metrics.  The last
stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

import checker
import instances
import selftest
import speed
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Set-up is repeated at least SETUP_MIN_REPS times and for at least
# SETUP_MIN_S seconds; setup_s is the median repetition.
SETUP_MIN_REPS = 5
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 40
# Highest percentile latency_tail_s may use; see tail_level.
TAIL_CAP = 90
# No new round starts after this much wall time, so a much slower program
# still exits well inside three minutes.
WALL_LIMIT_S = 120.0
UNITS = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_rps": "1/s",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _import_fresh():
    """Import the package from scratch, as a new CLI process would."""
    for name in [m for m in sys.modules if m == "diagrank" or m.startswith("diagrank.")]:
        del sys.modules[name]
    cli = importlib.import_module("diagrank.cli")
    generate = importlib.import_module("diagrank.generate")
    return cli, generate


def setup(workload: str, seed: int, workdir: str, gauge: speed.Gauge):
    """Import, generate and write the instances, repeatedly.

    Returns the modules and rounds of the last repetition, and the median
    set-up and generation seconds, scaled to the reference speed by the
    gauge units run alongside the set-up.
    """
    totals, gens = [], []
    while len(totals) < SETUP_MAX_REPS and (
        len(totals) < SETUP_MIN_REPS or sum(totals) < SETUP_MIN_S
    ):
        shutil.rmtree(workdir, ignore_errors=True)
        gc.collect()  # the previous repetition's garbage is not this one's cost
        start = time.perf_counter()
        cli, generate = _import_fresh()
        imported = time.perf_counter()
        os.makedirs(workdir)
        rounds, write_s = instances.build_rounds(workload, seed, workdir, generate)
        end = time.perf_counter()
        totals.append(end - start)
        gauge.accompany(end - start)
        gens.append(end - imported - write_s)
    factor = gauge.factor()
    print(f"# set-up: {len(totals)} repetitions, median {statistics.median(totals):.6f} s "
          f"unscaled, gauge factor {factor:.4f}")
    return (cli, generate, rounds, statistics.median(totals) * factor,
            statistics.median(gens) * factor)


def call(cli, argv: list[str]) -> tuple[int | None, str, float]:
    """One request: exit code (None on an exception), stdout, seconds."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed request, not a crashed benchmark
        code = None
    return code, out.getvalue(), time.perf_counter() - start


class Client:
    """Sends requests, verifies answers and tallies the outcome."""

    def __init__(self, cli, seed: int, gauge: speed.Gauge):
        self.cli = cli
        self.gauge = gauge
        self.verifier = checker.Verifier(seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def send(self, req, digest) -> float:
        code, stdout, seconds = call(self.cli, req.argv)
        self.gauge.accompany(seconds)
        self.attempted += 1
        problems, answer = self.verifier.verify(req, code, stdout)
        if problems:
            self.failed += 1
            self.problems.append(f"{' '.join(req.argv)}: {problems[0]}")
        if digest is not None:
            digest.update(answer)
        return seconds

    def finish(self) -> None:
        cross = self.verifier.finish()
        self.failed += len(cross)
        self.problems += cross


def tail_level(samples: int) -> int:
    """Highest whole percentile up to p90 with at least ten samples beyond it.

    Capped at p90: beyond it the tail is an order statistic of only ten
    samples, and on heavy-tailed instance costs (planted-exact) that
    moves by a fifth of its value from one seed to the next.
    """
    return max(50, min(TAIL_CAP, math.floor(100 - 1000 / samples)))


def percentile(values: list[float], level: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(level * len(ordered) / 100) - 1)]


def measure(client: Client, rounds, trace_rounds: int, seconds: float, started: float):
    """Whole rounds, cycling the pool, until ``seconds`` of request time.

    Returns the latencies of each round sent and the digest of the answers
    of the first ``trace_rounds`` rounds.
    """
    done: list[list[float]] = []
    digest = hashlib.sha256()
    busy = 0.0
    while busy < seconds or len(done) < trace_rounds:
        if time.perf_counter() - started > WALL_LIMIT_S:
            print(f"# stopped after {len(done)} rounds: wall limit {WALL_LIMIT_S:.0f} s")
            break
        into = digest if len(done) < trace_rounds else None
        done.append([client.send(req, into) for req in rounds[len(done) % len(rounds)]])
        busy += sum(done[-1])
    return done, digest.hexdigest()


def traced_passes(client: Client, subset, seconds: float, started: float):
    """Pairs of an untraced and a traced pass over ``subset``.

    At least one pair; another only if it still fits in ``seconds``.
    """
    plain, traced, layer_runs, digests = [], [], [], set()

    def one_pass():
        digest = hashlib.sha256()
        total = sum(client.send(req, digest) for rnd in subset for req in rnd)
        digests.add(digest.hexdigest())
        return total

    while True:
        plain.append(one_pass())
        with tracing.Tracer() as tracer:
            traced.append(one_pass())
        layer_runs.append(tracer.layers())
        spent = sum(plain) + sum(traced)
        if (spent + plain[-1] + traced[-1] > seconds
                or time.perf_counter() - started > WALL_LIMIT_S):
            return plain, traced, layer_runs, digests, tracer.absent


def layer_metrics(client: Client, subset, seconds: float, gen_s: float, started: float):
    """Per-layer metrics of the traced run, and whether its own checks held."""
    plain, traced, layer_runs, digests, absent = traced_passes(client, subset, seconds, started)
    ok = True
    if absent:
        print(f"# trace: absent hooks (reported as 0): {' '.join(absent)}")
    for name in tracing.COUNT_METRICS:
        if len({layers[name] for layers in layer_runs}) != 1:
            print(f"# trace: count {name} differs between passes")
            ok = False
    if len(digests) != 1:
        print("# answers differ between untraced and traced passes")
        ok = False
    values = {
        name: layer_runs[0][name] if name in tracing.COUNT_METRICS
        else statistics.median(run[name] for run in layer_runs)
        for name in layer_runs[0]
    }
    values["generate.gen_s"] = gen_s
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    print(f"# per-layer values are per pass of the first {len(subset)} rounds "
          f"({sum(map(len, subset))} requests); medians of {len(traced)} traced passes")
    print(f"# answers_sha256 {min(digests)} over the first {len(subset)} rounds")
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _) in tracing.LAYER_METRICS.items()
    }
    return metrics, ok


def end_to_end_metrics(client: Client, rounds, trace_rounds: int, seconds: float,
                       setup_s: float, started: float):
    measure_mark = client.gauge.mark()
    per_round, digest = measure(client, rounds, trace_rounds, seconds, started)
    latencies = [t for times in per_round for t in times]
    level = tail_level(len(latencies))
    beyond = len(latencies) - math.ceil(level * len(latencies) / 100)
    print(f"# {len(per_round)} rounds, {len(latencies)} requests")
    print(f"# latency_tail_s is p{level} over {len(latencies)} samples ({beyond} beyond it)")
    print(f"# answers_sha256 {digest} over the first {trace_rounds} rounds")
    # Complete rounds send every request kind equally often.  The kinds'
    # latencies lie far apart, so the plain median of all requests sits on
    # the edge between two kinds; the median over rounds of each round's
    # median (and of each round's throughput) does not, and a slow spell of
    # the machine moves only a minority of rounds.
    raw = {
        "latency_p50_s": statistics.median(statistics.median(t) for t in per_round),
        "latency_tail_s": percentile(latencies, level),
        "throughput_rps": statistics.median(len(t) / sum(t) for t in per_round),
    }
    # Seconds at the reference speed: times scale by the gauge's factor
    # over the measured requests, rates by its inverse.  setup_s comes
    # scaled by the factor over the set-up.
    factor = client.gauge.factor(since=measure_mark)
    print(f"# speed gauge: {client.gauge.units - measure_mark[0]} units, "
          f"mean {client.gauge.mean_s(measure_mark):.6f} s, factor {factor:.4f} "
          f"(reference {speed.REFERENCE_S} s per unit)")
    print("# unscaled: " + " ".join(f"{name}={value:.6g}" for name, value in raw.items()))
    values = {
        name: value / factor if name == "throughput_rps" else value * factor
        for name, value in raw.items()
    }
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS
            if name in values}


def run(args, workdir: str) -> int:
    started = time.perf_counter()
    gauge = speed.Gauge()
    cli, generate, rounds, setup_s, gen_s = setup(args.workload, args.seed, workdir, gauge)
    checker_failures = selftest.selftest(
        lambda argv: call(cli, argv)[:2], generate, os.path.join(workdir, "selftest")
    )
    for failure in checker_failures:
        print(f"# checker self-test: {failure}")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"pool={len(rounds)} rounds of {len(rounds[0])} requests")
    client = Client(cli, args.seed, gauge)
    trace_rounds = instances.TRACE_ROUNDS[args.workload]
    ok = True
    if args.trace:
        metrics, ok = layer_metrics(
            client, rounds[:trace_rounds], args.seconds, gen_s, started
        )
    else:
        metrics = end_to_end_metrics(
            client, rounds, trace_rounds, args.seconds, setup_s, started
        )
    client.finish()
    if not args.trace:
        rate = 1 - client.failed / client.attempted
        metrics["success_rate"] = {"value": rate, "unit": UNITS["success_rate"]}
    print(f"# error_rate={client.failed / client.attempted:.6f} "
          f"({client.failed} of {client.attempted} requests failed)")
    for problem in client.problems[:20]:
        print(f"# failed: {problem}")
    result = {
        "correct": ok and not checker_failures and client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _parse(argv=None):
    parser = argparse.ArgumentParser(description="diagrank benchmark")
    parser.add_argument("--workload", required=True, choices=instances.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _workdir(tag: str) -> str:
    return os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")


def _cleanup(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(os.path.dirname(workdir))


def _require_package() -> bool:
    if not os.path.isfile(os.path.join(SRC, "diagrank", "cli.py")):
        print(f"error: no diagrank package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    return True


def main(argv=None) -> int:
    args = _parse(argv)
    if not _require_package():
        return 2
    workdir = _workdir(f"{args.workload}-{args.seed}")
    try:
        return run(args, workdir)
    finally:
        _cleanup(workdir)


def selftest_main() -> int:
    """Entry point of ``python3 bench/selftest.py``."""
    if not _require_package():
        return 2
    workdir = _workdir("selftest")
    try:
        cli, generate = _import_fresh()
        failures = selftest.selftest(lambda argv: call(cli, argv)[:2], generate, workdir)
    finally:
        _cleanup(workdir)
    for failure in failures:
        print(failure)
    print("checker self-test:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
