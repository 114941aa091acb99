"""Seeded instance families and the request rounds of each workload.

Every random choice is drawn from ``diagrank.generate.SplitMix64`` (the
pinned stream of the README), so a (workload, seed) pair gives the same
files and the same request order on any platform.  ``random-mix`` uses the
README-pinned ``gen_random`` family itself; the planted-rank matrices and
the double-occurrence words are generated here.

A workload is a list of rounds.  A round holds one request of each kind
the workload mixes, in a seeded order, so that a run made of whole rounds
always sends the same mix.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

# Rounds generated per run.  A run cycles through them; more distinct
# instances make the run-to-run spread smaller but set-up longer.
POOL_ROUNDS = {"random-mix": 6, "planted-exact": 110, "words": 12}

# Rounds of the fixed prefix that the traced run replays and that
# answers_sha256 covers.  Sized so that two or more pairs of an untraced
# and a traced pass fit in a 35 s run on a 2-core machine.
TRACE_ROUNDS = {"random-mix": 4, "planted-exact": 4, "words": 1}

WORKLOADS = tuple(POOL_ROUNDS)

RANDOM_APPROX_SIZES = (192, 256)
RANDOM_DECIDE_SIZES = (96, 128)
RANDOM_DECIDE_K = 2
# (n, planted rank).  Rank 3 stays at n = 48.  Its cost per instance is
# heavy-tailed and grows fast with n: at n = 64 the mean is 0.3 s with
# instances past 0.5 s, at n = 96 and 128 one request costs 0.4-1.4 s and
# 1-5.6 s.  Those cells leave few rounds in a run and made median, tail
# and throughput move by 8-16% from one seed to the next.
PLANTED_CELLS = ((64, 2), (96, 2), (128, 2), (48, 3))
WORD_TEXT_SIZES = (500, 1000)  # hiero canon and hiero overlap
WORD_APPROX_SIZES = (64, 128)  # hiero approx


@dataclass
class Request:
    """One CLI call and what the checker needs to verify its answer."""

    argv: list[str]
    kind: str  # approx, decide, exact, canon, overlap, hiero-approx
    n: int
    rows: tuple[int, ...] | None = None  # matrix requests
    k: int | None = None  # decide budget, exact k-max (= planted rank)
    tokens: tuple[str, ...] | None = None  # word requests
    base: str | None = None  # words: id shared by a base word and its image


def _below(rng, bound: int) -> int:
    """Uniform-enough draw in [0, bound) from one 64-bit output."""
    return rng.next_u64() % bound


def _shuffle(rng, items: list) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = _below(rng, i + 1)
        items[i], items[j] = items[j], items[i]


def planted_rows(rng, n: int, r: int) -> tuple[int, ...]:
    """U·Vᵀ over GF(2) with U, V random n x r, diagonal zeroed.

    Restoring the diagonal of U·Vᵀ gives rank <= r, so the minimum over
    diagonal rewrites is at most r.
    """
    u = [rng.next_u64() >> (64 - r) for _ in range(n)]
    v = [rng.next_u64() >> (64 - r) for _ in range(n)]
    # column b of V as a row mask: bit j set iff V[j] has bit b
    vcols = [sum(1 << j for j in range(n) if (v[j] >> b) & 1) for b in range(r)]
    rows = []
    for i in range(n):
        row = 0
        for b in range(r):
            if (u[i] >> b) & 1:
                row ^= vcols[b]
        rows.append(row & ~(1 << i))
    return tuple(rows)


def random_word(rng, n: int) -> tuple[str, ...]:
    """Uniformly shuffled double-occurrence word on letters t0..t{n-1}."""
    word = [f"t{i}" for i in range(n)] * 2
    _shuffle(rng, word)
    return tuple(word)


def word_image(rng, word: tuple[str, ...]) -> tuple[str, ...]:
    """The word rotated, reversed and relabeled: the same hieroglyph."""
    shift = _below(rng, len(word))
    rotated = word[shift:] + word[:shift]
    names = sorted(set(word), key=lambda t: int(t[1:]))
    renamed = names[:]
    _shuffle(rng, renamed)
    relabel = dict(zip(names, renamed))
    return tuple(relabel[t] for t in reversed(rotated))


def render_rows(rows: tuple[int, ...], n: int) -> str:
    """The documented matrix file format: n lines of n characters."""
    return "".join(
        "".join("1" if (row >> j) & 1 else "0" for j in range(n)) + "\n" for row in rows
    )


class FileWriter:
    """Writes numbered instance files and keeps the seconds spent doing so."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0
        self.seconds = 0.0

    def write(self, text: str) -> str:
        start = time.perf_counter()
        path = os.path.join(self.workdir, f"in{self.count:05d}.txt")
        self.count += 1
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        self.seconds += time.perf_counter() - start
        return path


def _random_mix_round(rng, gen_random, out: FileWriter) -> list[Request]:
    reqs = []
    for n in RANDOM_APPROX_SIZES:
        m = gen_random(n, 0.5, rng.next_u64())
        path = out.write(render_rows(m.rows, n))
        reqs.append(Request(["approx", "--json", path], "approx", n, rows=m.rows))
    for n in RANDOM_DECIDE_SIZES:
        m = gen_random(n, 0.5, rng.next_u64())
        path = out.write(render_rows(m.rows, n))
        argv = ["decide", "--k", str(RANDOM_DECIDE_K), "--json", path]
        reqs.append(Request(argv, "decide", n, rows=m.rows, k=RANDOM_DECIDE_K))
    return reqs


def _planted_round(rng, out: FileWriter) -> list[Request]:
    reqs = []
    for n, r in PLANTED_CELLS:
        rows = planted_rows(rng, n, r)
        path = out.write(render_rows(rows, n))
        argv = ["exact", "--k-max", str(r), "--json", path]
        reqs.append(Request(argv, "exact", n, rows=rows, k=r))
    return reqs


def _words_round(rng, index: int, out: FileWriter) -> list[Request]:
    reqs = []
    for n in WORD_TEXT_SIZES + WORD_APPROX_SIZES:
        base_id = f"r{index}n{n}"
        base = random_word(rng, n)
        for tokens in (base, word_image(rng, base)):
            path = out.write(" ".join(tokens) + "\n")
            kinds = ("canon", "overlap") if n in WORD_TEXT_SIZES else ("hiero-approx",)
            for kind in kinds:
                argv = ["hiero", kind.removeprefix("hiero-"), "--json", path]
                reqs.append(Request(argv, kind, n, tokens=tokens, base=base_id))
    return reqs


def build_rounds(
    workload: str, seed: int, workdir: str, generate
) -> tuple[list[list[Request]], float]:
    """Generate the workload's instance files under ``workdir``.

    ``generate`` is the ``diagrank.generate`` module (passed in so that
    set-up timing covers a fresh import of it).  Returns the rounds and
    the seconds spent writing files.
    """
    if workload not in POOL_ROUNDS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = generate.SplitMix64(seed)
    out = FileWriter(workdir)
    rounds = []
    for index in range(POOL_ROUNDS[workload]):
        if workload == "random-mix":
            reqs = _random_mix_round(rng, generate.gen_random, out)
        elif workload == "planted-exact":
            reqs = _planted_round(rng, out)
        else:
            reqs = _words_round(rng, index, out)
        _shuffle(rng, reqs)
        rounds.append(reqs)
    return rounds, out.seconds
