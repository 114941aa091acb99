"""Independent verification of the CLI's JSON answers.

Nothing here calls ``diagrank``: ranks come from an XOR basis keyed by the
leading bit (not the column-pivot elimination of ``diagrank.gf2``),
completions from one forward elimination, and interlacement from the
crossing condition on occurrence positions.  Each ``check_*`` function
returns a list of problems; an empty list means the answer is verified.
"""

from __future__ import annotations

import hashlib
import json
import random


def rank(rows) -> int:
    """GF(2) rank of packed rows via an XOR basis indexed by leading bit."""
    basis: dict[int, int] = {}
    for v in rows:
        while v:
            top = v.bit_length() - 1
            b = basis.get(top)
            if b is None:
                basis[top] = v
                break
            v ^= b
    return len(basis)


def with_diagonal(rows, mask: int) -> list[int]:
    return [(row & ~(1 << i)) | (mask & (1 << i)) for i, row in enumerate(rows)]


def completion_mask(rows, n: int) -> int:
    """Diagonal making every leading corner minor 1 (unique such diagonal).

    Row i, with a zero at (i, i), is reduced by the reduced rows above it;
    the diagonal bit enters the reduced row additively, so it is chosen to
    make the reduced bit i equal 1.
    """
    pivots: list[int] = []
    mask = 0
    for i in range(n):
        r = rows[i] & ~(1 << i)
        for c in range(i):
            if (r >> c) & 1:
                r ^= pivots[c]
        a = ((r >> i) & 1) ^ 1
        pivots.append(r ^ (a << i))
        mask |= a << i
    return mask


def approx_upper(rows, n: int) -> int:
    """rank of the completion with its diagonal erased; min rank >= ceil(u/2)."""
    full = (1 << n) - 1
    return rank(with_diagonal(rows, completion_mask(rows, n) ^ full))


def _witness(payload, n: int, problems: list[str]) -> int | None:
    text = payload.get("witness_diagonal")
    if not isinstance(text, str) or len(text) != n or set(text) - {"0", "1"}:
        problems.append(f"witness {text!r} is not an {n}-bit string")
        return None
    return sum(1 << i for i, c in enumerate(text) if c == "1")


def _common(payload, command: str, n: int, code: int, want_code: int, problems) -> None:
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    if payload.get("command") != command:
        problems.append(f"command {payload.get('command')!r}, expected {command!r}")
    if payload.get("n") != n:
        problems.append(f"n {payload.get('n')!r}, expected {n}")


def check_approx(rows, n: int, payload, code: int, command: str = "approx") -> list[str]:
    """Witness reaches ``upper``, its complement has full rank, lower = ceil(u/2)."""
    problems: list[str] = []
    _common(payload, command, n, code, 0, problems)
    bounds = payload.get("rank_bounds") or {}
    upper, lower = bounds.get("upper"), bounds.get("lower")
    if upper != approx_upper(rows, n):
        problems.append(f"upper {upper!r} differs from the completion bound")
    if not isinstance(upper, int) or lower != (upper + 1) // 2:
        problems.append(f"lower {lower!r} is not ceil(upper/2) for upper {upper!r}")
    if payload.get("achieved_rank") != upper:
        problems.append(f"achieved_rank {payload.get('achieved_rank')!r} != upper {upper!r}")
    w = _witness(payload, n, problems)
    if w is not None:
        if rank(with_diagonal(rows, w)) != upper:
            problems.append("witness does not reach the upper bound")
        if rank(with_diagonal(rows, w ^ ((1 << n) - 1))) != n:
            problems.append("complement of the witness is not full rank")
    return problems


def check_decide(rows, n: int, k: int, payload, code: int) -> list[str]:
    """A yes carries a witness of rank <= k; a no needs k < ceil(u/2)."""
    problems: list[str] = []
    answer = payload.get("answer")
    if answer == "no":
        _common(payload, "decide", n, code, 1, problems)
        u = approx_upper(rows, n)
        if k >= (u + 1) // 2:
            problems.append(f"'no' at k={k} is not certified by the bound ceil({u}/2)")
    elif answer == "yes":
        _common(payload, "decide", n, code, 0, problems)
        w = _witness(payload, n, problems)
        if w is not None:
            achieved = rank(with_diagonal(rows, w))
            if achieved > k or achieved != payload.get("achieved_rank"):
                problems.append(f"witness reaches rank {achieved}, budget {k}")
    else:
        problems.append(f"answer {answer!r}")
    return problems


def check_exact(rows, n: int, planted: int, payload, code: int) -> list[str]:
    """Witness reaches the value, and ceil(u/2) <= value <= planted rank."""
    problems: list[str] = []
    _common(payload, "exact", n, code, 0, problems)
    value = payload.get("k")
    if payload.get("answer") != "yes" or not isinstance(value, int):
        return problems + [f"answer {payload.get('answer')!r} value {value!r}"]
    u = approx_upper(rows, n)
    if not (u + 1) // 2 <= value <= planted:
        problems.append(f"value {value} outside [ceil({u}/2), {planted}]")
    w = _witness(payload, n, problems)
    if w is not None:
        achieved = rank(with_diagonal(rows, w))
        if achieved != value or payload.get("achieved_rank") != value:
            problems.append(f"witness reaches rank {achieved}, value {value}")
    return problems


def first_occurrence(tokens) -> list[str]:
    seen: dict[str, None] = {}
    for t in tokens:
        seen.setdefault(t)
    return list(seen)


def _spans(tokens) -> tuple[list[str], list[list[int]]]:
    """Alphabet in first-occurrence order and each letter's two positions."""
    alphabet = first_occurrence(tokens)
    pos: dict[str, list[int]] = {t: [] for t in alphabet}
    for p, t in enumerate(tokens):
        pos[t].append(p)
    return alphabet, [pos[t] for t in alphabet]


def _crossing(a, b) -> bool:
    """Letters interlace iff exactly one occurrence of b lies inside a's span."""
    return (a[0] < b[0] < a[1]) != (a[0] < b[1] < a[1])


def overlap_rows(tokens) -> list[int]:
    """Interlacement by the crossing condition, rows in alphabet order."""
    _, spans = _spans(tokens)
    return [
        sum(1 << j for j, b in enumerate(spans) if _crossing(a, b)) for a in spans
    ]


def check_hiero_approx(tokens, payload, code: int) -> list[str]:
    n = len(tokens) // 2
    problems = check_approx(overlap_rows(tokens), n, payload, code, "hiero-approx")
    if payload.get("alphabet") != first_occurrence(tokens):
        problems.append("alphabet is not in first-occurrence order")
    return problems


def check_overlap(tokens, payload, code: int, rng: random.Random, samples: int = 256):
    """Sampled cells (all of them for small words) match the crossing condition."""
    problems: list[str] = []
    n = len(tokens) // 2
    _common(payload, "hiero-overlap", n, code, 0, problems)
    alphabet, spans = _spans(tokens)
    if payload.get("alphabet") != alphabet:
        problems.append("alphabet is not in first-occurrence order")
    lines = (payload.get("matrix") or "").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) != n or any(len(line) != n for line in lines):
        return problems + [f"matrix is not {n} x {n}"]
    if n * n <= samples:
        cells = [(i, j) for i in range(n) for j in range(n)]
    else:
        cells = [(rng.randrange(n), rng.randrange(n)) for _ in range(samples)]
        cells += [(i, i) for i in rng.sample(range(n), min(n, 16))]
    for i, j in cells:
        want = "1" if _crossing(spans[i], spans[j]) else "0"
        if lines[i][j] != want:
            problems.append(f"cell ({i}, {j}) is {lines[i][j]}, crossing says {want}")
            break
    return problems


def _tokens_of(text: str) -> list[str]:
    text = text.strip()
    return text.split() if any(c.isspace() for c in text) else list(text)


def _relabeled(tokens) -> list[int]:
    ids: dict[str, int] = {}
    return [ids.setdefault(t, len(ids)) for t in tokens]


def _compare_image(seq, start: int, target: list[int]) -> int:
    """Sign of relabel(rotation of ``seq`` at ``start``) minus ``target``.

    Lazy: stops at the first differing symbol, so scanning every rotation
    of a random word costs about O(length).
    """
    ids: dict[str, int] = {}
    length = len(target)
    for t in range(length):
        tok = seq[(start + t) % length]
        v = ids.get(tok)
        if v is None:
            v = ids[tok] = len(ids)
        if v != target[t]:
            return -1 if v < target[t] else 1
    return 0


def check_canon(tokens, payload, code: int) -> list[str]:
    """The canonical word is an image of the input and least among its images.

    Being least in the orbit makes it its own canonical form (idempotent);
    equality across a word's images is checked by the caller.
    """
    problems: list[str] = []
    n = len(tokens) // 2
    _common(payload, "hiero-canon", n, code, 0, problems)
    text = payload.get("canonical")
    if not isinstance(text, str):
        return problems + ["no canonical word"]
    canon = _tokens_of(text)
    if len(canon) != len(tokens):
        return problems + [f"canonical word has {len(canon)} letters, expected {len(tokens)}"]
    if payload.get("alphabet") != first_occurrence(canon):
        problems.append("alphabet does not match the canonical word")
    target = _relabeled(canon)
    found = False
    for seq in (list(tokens), list(reversed(tokens))):
        for start in range(len(seq)):
            sign = _compare_image(seq, start, target)
            if sign < 0:
                return problems + ["a rotation or reversal relabels below the canonical word"]
            found |= sign == 0
    if not found:
        problems.append("canonical word is not an image of the input")
    return problems


def canonical_json(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode() + b"\n"


class Verifier:
    """Checks each request's first answer; later answers must repeat it.

    The pool of instances is cycled, so a request seen before is checked by
    comparing its output with the first one, which was verified in full.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._first: dict[int, tuple[str, bool]] = {}
        self._canon: dict[str, set] = {}

    def verify(self, req, code, stdout: str) -> tuple[list[str], bytes]:
        """Problems found, and the answer's canonical bytes for the digest."""
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        try:
            payload = json.loads(stdout)
        except ValueError:
            payload = None
        answer = canonical_json(payload) if isinstance(payload, dict) else (
            f"exit {code}: {stdout}\n".encode()
        )
        seen = self._first.get(id(req))
        if seen is not None:
            if seen[0] != digest:
                return ["answer differs from an earlier call on the same input"], answer
            return ([] if seen[1] else ["same failed answer as before"]), answer
        if not isinstance(payload, dict):
            problems = [f"exit {code} without a JSON payload"]
        elif req.kind == "approx":
            problems = check_approx(req.rows, req.n, payload, code)
        elif req.kind == "decide":
            problems = check_decide(req.rows, req.n, req.k, payload, code)
        elif req.kind == "exact":
            problems = check_exact(req.rows, req.n, req.k, payload, code)
        elif req.kind == "hiero-approx":
            problems = check_hiero_approx(req.tokens, payload, code)
        elif req.kind == "overlap":
            problems = check_overlap(req.tokens, payload, code, self.rng)
        elif req.kind == "canon":
            problems = check_canon(req.tokens, payload, code)
            self._canon.setdefault(req.base, set()).add(payload.get("canonical"))
        else:
            problems = [f"unknown request kind {req.kind!r}"]
        self._first[id(req)] = (digest, not problems)
        return problems, answer

    def finish(self) -> list[str]:
        """Cross-request checks: a word and its image share one canonical form."""
        return [
            f"canonical forms differ across the images of {base}"
            for base, forms in sorted(self._canon.items())
            if len(forms) != 1
        ]
