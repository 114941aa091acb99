"""Command-line interface.

Subcommands cover the matrix pipeline (rank, complete, decide, approx,
exact, oracle, upper-bound), the hieroglyph pipeline (hiero overlap /
decide / approx / canon), seeded instance generation (gen) and a
micro-benchmark runner (bench).  ``--json`` switches any subcommand to
the machine-readable payload; plain text output is human-facing and not
stability-guaranteed.

The argument parser is built once per process, by the first call of
``build_parser`` (``main`` calls it), and reused by every later call.

Exit codes: 0 success (and "yes" for decisions), 1 for "no"/"exhausted",
2 for usage, input, format and guard errors.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import statistics
import sys
import time
from typing import Any

from . import generate, gf2, hieroglyph, rankmin

# Largest n for `gen`, `bench` and words made into overlap matrices: each costs n^2.
MAX_DIM = 2048

# Word subcommands that search for a diagonal also report it as the
# twisting data of the ribbons.
_TWIST_COMMANDS = ("decide", "approx")


def _check_dim(n: int) -> None:
    if not 0 <= n <= MAX_DIM:
        raise ValueError(f"dimension {n} outside 0..{MAX_DIM}")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_hieroglyph(arg: str) -> hieroglyph.Hieroglyph:
    """An existing path or - is read as a file; anything else is an inline
    word, unless it names a path (has a separator) and does not parse."""
    if arg == "-" or os.path.exists(arg):
        return hieroglyph.parse_hieroglyph(_read_text(arg))
    try:
        return hieroglyph.parse_hieroglyph(arg)
    except hieroglyph.HieroglyphFormatError:
        if "/" in arg or os.sep in arg:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), arg) from None
        raise


def _payload(command: str, n: int, **fields: Any) -> dict[str, Any]:
    base: dict[str, Any] = {
        "command": command,
        "n": n,
        "k": None,
        "answer": None,
        "rank_bounds": None,
        "witness_diagonal": None,
        "achieved_rank": None,
    }
    base.update(fields)
    return base


def _on_matrix(args) -> tuple[dict, str, int]:
    """Run the subcommand's matrix handler on its input.

    A word input (at most MAX_DIM letters) is replaced by its overlap
    matrix; the payload then adds the word's alphabet and, for the
    diagonal searches, the witness again as ``twist_witness``.
    """
    if "word" not in args:
        m = gf2.parse_matrix(_read_text(args.file))
        fields, text, code = args.handler(args, m)
        return _payload(args.command, m.n, **fields), text, code
    h = _read_hieroglyph(args.word)
    _check_dim(h.n)
    fields, text, code = args.handler(args, hieroglyph.overlap_matrix(h))
    command = args.hiero_command
    payload = _payload(f"hiero-{command}", h.n, alphabet=list(h.alphabet), **fields)
    if command in _TWIST_COMMANDS:
        payload["twist_witness"] = payload["witness_diagonal"]
    return payload, text, code


# Matrix handlers: (args, matrix) -> (payload fields, text, exit code).
# A handler that reports a diagonal renders its text from the payload fields.


def _witness(m, d, achieved: int | None = None, **fields: Any) -> dict[str, Any]:
    """``fields`` plus the witness diagonal ``d`` of ``m`` and the rank it
    reaches, which is computed unless the caller already knows it."""
    if achieved is None:
        achieved = gf2.rank(gf2.with_diagonal(m, d))
    return {**fields, "witness_diagonal": d.to_string(), "achieved_rank": achieved}


def _cmd_rank(args, m) -> tuple[dict, str, int]:
    r = gf2.rank(m)
    return {"achieved_rank": r}, str(r), 0


def _cmd_show(args, m) -> tuple[dict, str, int]:
    matrix = gf2.render_matrix(m)
    return {"matrix": matrix}, matrix.rstrip("\n"), 0


def _cmd_complete(args, m) -> tuple[dict, str, int]:
    completed, d = gf2.complete_nondegenerate(m)
    fields = _witness(m, d, m.n, answer="yes", matrix=gf2.render_matrix(completed))
    text = "diagonal: {witness_diagonal}\n{matrix}".format_map(fields)
    return fields, text.rstrip("\n"), 0


def _cmd_decide(args, m) -> tuple[dict, str, int]:
    witness = rankmin.min_rank_decide(m, args.k).witness
    if witness is None:
        return {"k": args.k, "answer": "no"}, "no", 1
    fields = _witness(m, witness, k=args.k, answer="yes")
    text = "yes witness={witness_diagonal} achieved_rank={achieved_rank}"
    return fields, text.format_map(fields), 0


def _cmd_approx(args, m) -> tuple[dict, str, int]:
    bounds, witness = rankmin.min_rank_approx(m)
    fields = _witness(
        m, witness, bounds.upper, rank_bounds={"lower": bounds.lower, "upper": bounds.upper}
    )
    text = "lower={rank_bounds[lower]} upper={achieved_rank} witness={witness_diagonal}"
    return fields, text.format_map(fields), 0


def _cmd_exact(args, m) -> tuple[dict, str, int]:
    result = rankmin.min_rank_exact(m, args.k_max)
    if result is None:
        return {"k": args.k_max, "answer": "exhausted"}, f"exhausted k_max={args.k_max}", 1
    value, witness = result  # every flip set S has rank >= |S|, so value is the witness's rank
    fields = _witness(m, witness, value, k=value, answer="yes")
    return fields, "rank={k} witness={witness_diagonal}".format_map(fields), 0


def _cmd_oracle(args, m) -> tuple[dict, str, int]:
    value, witness = rankmin.min_rank_oracle(m)
    fields = _witness(m, witness, value, answer="yes", rank_bounds={"lower": value, "upper": value})
    return fields, "rank={achieved_rank} witness={witness_diagonal}".format_map(fields), 0


def _cmd_upper_bound(args, m) -> tuple[dict, str, int]:
    d = rankmin.upper_bound_even_rows(m)
    fields = _witness(m, d, rank_bounds={"lower": 0, "upper": m.n - 1})
    text = "witness={witness_diagonal} achieved_rank={achieved_rank} bound={rank_bounds[upper]}"
    return fields, text.format_map(fields), 0


def _cmd_hiero_canon(args) -> tuple[dict, str, int]:
    h = _read_hieroglyph(args.word)
    canon = hieroglyph.canonical_form(h)
    text = canon.to_text()
    payload = _payload("hiero-canon", h.n, alphabet=list(canon.alphabet), canonical=text)
    return payload, text, 0


def _cmd_gen(args) -> tuple[dict, str, int]:
    _check_dim(args.n)
    m = generate.gen_random(args.n, args.density, args.seed)
    fields, text, code = _cmd_show(args, m)
    return _payload("gen", m.n, density=args.density, seed=args.seed, **fields), text, code


_BENCH_OPS = {
    "rank": lambda m, k: gf2.rank(m),
    "complete": lambda m, k: gf2.complete_nondegenerate(m),
    "decide": lambda m, k: rankmin.min_rank_decide(m, k),
    "approx": lambda m, k: rankmin.min_rank_approx(m),
    "oracle": lambda m, k: rankmin.min_rank_oracle(m),
}


def run_bench(algo: str, sizes: list[int], k: int, reps: int, seed: int) -> list[dict]:
    """Median wall time of ``algo`` per size; inputs derive from the seed."""
    if algo not in _BENCH_OPS:
        raise ValueError(f"unknown algorithm {algo!r}")
    if reps < 1:
        raise ValueError("reps must be positive")
    for n in sizes:
        _check_dim(n)
    top = max(sizes, default=0)
    if not 0 <= seed <= (1 << 64) - 1 - top:
        raise ValueError(f"seed {seed} outside 0..2^64 - 1 - {top}, where seed + n fits 64 bits")
    op = _BENCH_OPS[algo]
    results = []
    for n in sizes:
        m = generate.gen_random(n, 0.5, seed + n)
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            op(m, k)
            times.append(time.perf_counter() - start)
        results.append(
            {"algo": algo, "n": n, "reps": reps, "median_seconds": statistics.median(times)}
        )
    return results


def _cmd_bench(args) -> tuple[dict, str, int]:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    rows = run_bench(args.algo, sizes, args.k, args.reps, args.seed)
    lines = ["algo,n,reps,median_seconds"]
    lines += [f"{r['algo']},{r['n']},{r['reps']},{r['median_seconds']:.6f}" for r in rows]
    return {"command": "bench", "rows": rows}, "\n".join(lines), 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="emit a JSON payload")

    parser = argparse.ArgumentParser(
        prog="diagrank",
        description="Minimum rank of a GF(2) matrix over free rewrites of its main diagonal.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(subparsers, name, help_, func=_on_matrix, **defaults):
        p = subparsers.add_parser(name, parents=[shared], help=help_)
        p.set_defaults(func=func, **defaults)
        return p

    def add_matrix(name, handler, help_):
        p = add(sub, name, help_, handler=handler)
        p.add_argument("file", help="matrix file, or - for stdin")
        return p

    def add_word(name, help_, **defaults):
        p = add(hsub, name, help_, **defaults)
        p.add_argument("word", help="word, file containing one, or - for stdin")
        return p

    add_matrix("rank", _cmd_rank, "rank of a matrix")
    add_matrix("complete", _cmd_complete, "rewrite the diagonal to reach full rank")
    p = add_matrix("decide", _cmd_decide, "is some diagonal rewrite of rank <= k?")
    p.add_argument("--k", type=int, required=True, help="rank budget")
    add_matrix("approx", _cmd_approx, "factor-2 bracket on the minimum rank")
    p = add_matrix("exact", _cmd_exact, "exact minimum rank, searching budgets 0..k-max")
    p.add_argument("--k-max", type=int, required=True, help="largest budget to try")
    add_matrix("oracle", _cmd_oracle, "brute-force minimum over all 2^n diagonals")
    add_matrix("upper-bound", _cmd_upper_bound, "even-row-sum diagonal, rank <= n-1")

    hiero = sub.add_parser("hiero", help="double-occurrence word pipeline")
    hsub = hiero.add_subparsers(dest="hiero_command", required=True)
    add_word("overlap", "interlacement matrix of the word", handler=_cmd_show)
    p = add_word("decide", "realizable with at most k Möbius strips?", handler=_cmd_decide)
    p.add_argument("--k", type=int, required=True, help="strip budget")
    add_word("approx", "factor-2 bracket on the strip count", handler=_cmd_approx)
    add_word(
        "canon",
        "canonical form under rotation/reversal/relabeling",
        func=_cmd_hiero_canon,
    )

    p = add(sub, "gen", "seeded random matrix with zero diagonal", func=_cmd_gen)
    p.add_argument("--n", type=int, required=True, help="dimension")
    p.add_argument("--density", type=float, default=0.5, help="off-diagonal one-probability")
    p.add_argument("--seed", type=int, default=0, help="SplitMix64 seed")

    p = add(sub, "bench", "median wall times as CSV", func=_cmd_bench)
    p.add_argument("--algo", required=True, choices=sorted(_BENCH_OPS), help="operation to time")
    p.add_argument("--sizes", required=True, help="comma-separated dimensions, e.g. 16,32,64")
    p.add_argument("--k", type=int, default=1, help="budget for decide timings")
    p.add_argument("--reps", type=int, default=3, help="repetitions per size")
    p.add_argument("--seed", type=int, default=0, help="instance seed")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, text, code = args.func(args)
    except (gf2.MatrixFormatError, hieroglyph.HieroglyphFormatError, UnicodeDecodeError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except rankmin.OracleSizeError as exc:
        print(f"guard error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(json.dumps(payload, indent=2) if args.json else text, flush=True)
    except BrokenPipeError:  # the reader went away; the exit flush must not raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
