"""Self-test of the output checker: real answers pass, corrupted ones fail.

Run on its own with ``python3 bench/selftest.py`` from the repository
root; ``run.py`` also runs it (untimed) before every measurement, so a
checker that stopped flagging bad answers cannot report ``correct``.
The corruptions are wrong by construction, not by luck of the instance.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import checker
import instances
from instances import Request


def selftest(call, generate, workdir: str) -> list[str]:
    """Failures of the checker; an empty list means it behaves.

    ``call(argv)`` runs the CLI and returns ``(code, stdout)``.
    """
    os.makedirs(workdir, exist_ok=True)
    rng = generate.SplitMix64(2021)
    out = instances.FileWriter(workdir)

    def matrix_request(kind, rows, n, argv, k=None):
        path = out.write(instances.render_rows(rows, n))
        return Request(argv + ["--json", path], kind, n, rows=tuple(rows), k=k)

    random16 = generate.gen_random(16, 0.5, rng.next_u64()).rows
    word = instances.random_word(rng, 12)
    image = instances.word_image(rng, word)
    word_paths = [out.write(" ".join(w) + "\n") for w in (word, image)]
    reqs = {
        "approx": matrix_request("approx", random16, 16, ["approx"]),
        "decide": matrix_request("decide", random16, 16, ["decide", "--k", "2"], k=2),
        "exact": matrix_request(
            "exact", instances.planted_rows(rng, 16, 2), 16, ["exact", "--k-max", "2"], k=2
        ),
        # [[0,1],[1,0]]: minimum 1, reached only by the diagonal 11; u = 2
        "exact2": matrix_request("exact", (0b10, 0b01), 2, ["exact", "--k-max", "2"], k=2),
    }
    for i, (tokens, path) in enumerate(zip((word, image), word_paths)):
        for kind in ("canon", "overlap", "hiero-approx"):
            argv = ["hiero", kind.removeprefix("hiero-"), "--json", path]
            reqs[f"{kind}{i}"] = Request(argv, kind, 12, tokens=tokens, base="w")

    failures: list[str] = []
    verifier = checker.Verifier(0)
    answers = {}
    for name, req in reqs.items():
        code, stdout = call(req.argv)
        problems, _ = verifier.verify(req, code, stdout)
        if problems:
            failures.append(f"valid {name} answer rejected: {problems}")
        answers[name] = (code, json.loads(stdout))
    failures += [f"valid answers rejected: {p}" for p in verifier.finish()]
    if answers["decide"][1]["answer"] != "no":
        failures.append("decide at k=2 on a random 16 x 16 matrix should be 'no'")
    if not any(int(c) for c in answers["overlap0"][1]["matrix"] if c in "01"):
        failures.append("self-test word has an empty overlap matrix; pick another seed")

    def corrupt(name, edit, code=None):
        req = reqs[name]
        old_code, payload = answers[name]
        payload = copy.deepcopy(payload)
        edit(payload)
        fresh = checker.Verifier(0)
        problems, _ = fresh.verify(req, old_code if code is None else code, json.dumps(payload))
        return problems

    def bump_upper(p):
        p["rank_bounds"]["upper"] += 1
        p["achieved_rank"] += 1

    def false_yes(p):
        # the checker certified 'no', so no diagonal reaches rank <= 2
        p.update(answer="yes", witness_diagonal="0" * 16, achieved_rank=2)

    def flip_cell(p):
        rows = p["matrix"].split("\n")
        cell = "1" if rows[0][1] == "0" else "0"
        rows[0] = rows[0][:1] + cell + rows[0][2:]
        p["matrix"] = "\n".join(rows)

    def unrelated_canon(p):
        # aabb... has an empty overlap graph, unlike the input word
        p["canonical"] = " ".join(t for t in sorted(set(word)) for _ in range(2))

    cases = {
        "approx upper off by one": corrupt("approx", bump_upper),
        "approx witness truncated": corrupt(
            "approx", lambda p: p.update(witness_diagonal=p["witness_diagonal"][1:])
        ),
        "decide no turned yes": corrupt("decide", false_yes, code=0),
        "decide exit code": corrupt("decide", lambda p: None, code=0),
        "exact value above planted rank": corrupt("exact", lambda p: p.update(k=3)),
        "exact witness not reaching the value": corrupt(
            "exact2", lambda p: p.update(witness_diagonal="00")
        ),
        "exact value below ceil(u/2)": corrupt(
            "exact2", lambda p: p.update(k=0, achieved_rank=0)
        ),
        "overlap cell flipped": corrupt("overlap0", flip_cell),
        "canonical word not an image": corrupt("canon0", unrelated_canon),
        "hiero approx upper off by one": corrupt("hiero-approx0", bump_upper),
    }
    failures += [f"corruption not flagged: {name}" for name, found in cases.items() if not found]

    split = checker.Verifier(0)
    split.verify(reqs["canon0"], *_answer_text(answers["canon0"]))
    other = copy.deepcopy(answers["canon1"][1])
    unrelated_canon(other)
    split.verify(reqs["canon1"], 0, json.dumps(other))
    if not split.finish():
        failures.append("corruption not flagged: canonical forms differ across images")

    repeat = checker.Verifier(0)
    repeat.verify(reqs["approx"], *_answer_text(answers["approx"]))
    changed = copy.deepcopy(answers["approx"][1])
    changed["witness_diagonal"] = "1" + changed["witness_diagonal"][1:]
    if not repeat.verify(reqs["approx"], 0, json.dumps(changed))[0]:
        failures.append("corruption not flagged: a repeated request answered differently")
    return failures


def _answer_text(answer):
    code, payload = answer
    return code, json.dumps(payload)


if __name__ == "__main__":
    import run

    sys.exit(run.selftest_main())
