"""The three benchmark workloads: seeded inputs, job steps and output checks.

A job is a list of steps run in one fresh interpreter (see ``job.py``).
A step is either a CLI call, ``{"kind": "cli", "argv": [...]}``, or a call
into the public API where the CLI has no command for it (``ogf``,
``oracle``). Every step carries an ``expect`` tag naming its check.

The checks use the benchmark's own reference arithmetic (``math.comb`` and
integer polynomials in plain lists), never the program under test, so a
wrong answer cannot vouch for itself.
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("proof-sweep", "discover", "crosscheck")

#: Upper end of the range on which every emitted operator must annihilate
#: A032123.
CHECK_TO = 2000
#: The numeric range on which every mutant must show a nonzero residual.
MUTANT_TO = 50
PROOF_SWEEP_MAX_N = 30000
OGF_ORDER = 300
ORACLE_K = range(12)        # A032123 via C(2k, k) strings of length 2k
ORACLE_LENGTHS = range(1, 17)  # A005418 via all 2^L strings
PROOF_LINES = 9
GUESS_BASIS_SIZE = 64       # nullity of the (8, 12) system on 145 terms


# -- reference arithmetic ------------------------------------------------------


def a032123(n: int) -> int:
    """(C(2n, n) + C(n, n/2) [n even]) / 2."""
    v = math.comb(n, n // 2) if n % 2 == 0 else 0
    return (math.comb(2 * n, n) + v) // 2


def a005418(length: int) -> int:
    """(2^L + 2^ceil(L/2)) / 2."""
    return (2**length + 2 ** ((length + 1) // 2)) // 2


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_add(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return out


def poly_shift(p: list[int], d: int) -> list[int]:
    """p(n + d) by binomial expansion."""
    return [
        sum(p[i] * math.comb(i, k) * d ** (i - k) for i in range(k, len(p)))
        for k in range(len(p))
    ]


def compose(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Backward operator a after b: coefficient t gathers a_i(n) * b_j(n - i)."""
    out: list[list[int]] = [[] for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = poly_add(out[i + j], poly_mul(ai, poly_shift(bj, -i)))
    return out


def operator_json(coeffs: list[list[int]]) -> str:
    doc = {
        "convention": "backward",
        "order": len(coeffs) - 1,
        "coeffs": [[str(c) for c in p] for p in coeffs],
    }
    return json.dumps(doc) + "\n"


def parse_operators(text: str) -> list[list[list[int]]]:
    """Every backward operator document in ``text``, with integer coefficients."""
    decoder = json.JSONDecoder()
    ops, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return ops
        doc, pos = decoder.raw_decode(text, pos)
        if doc.get("convention") != "backward" or doc["order"] + 1 != len(doc["coeffs"]):
            raise ValueError("not a backward operator document")
        rows = [[Fraction(c) for c in p] for p in doc["coeffs"]]
        den = math.lcm(*(c.denominator for p in rows for c in p))
        ops.append([[int(c * den) for c in p] for p in rows])


def first_nonzero_residual(op: list[list[int]], terms: list[int], n_from: int, n_to: int):
    """The first n in n_from..n_to where op applied to ``terms`` is nonzero."""
    for n in range(n_from, n_to + 1):
        total = 0
        for j, p in enumerate(op):
            c = 0
            for x in reversed(p):
                c = c * n + x
            if c:
                total += c * terms[n - j]
        if total:
            return n
    return None


_N = [0, 1]
U_OP = [_N, [2, -4]]                  # n a(n) - (4n - 2) a(n-1)
V_OP = [_N, [], [4, -4]]              # n a(n) - 4(n - 1) a(n-2)
MATHAR = [
    poly_mul(_N, [-1, 1]),
    [-2 * c for c in poly_mul([-1, 1], [-4, 3])],
    [4 * c for c in [19, -14, 2]],
    [8 * c for c in [-19, 5, 1]],
    [-16 * c for c in poly_mul([-3, 1], [-10, 3])],
    [32 * c for c in poly_mul([-4, 1], [-9, 2])],
]
MUTANT_SLOTS = [(shift, power) for shift in range(6) for power in range(3)]


# -- jobs ------------------------------------------------------------------------


def _cli(expect: str, *argv: str) -> dict:
    return {"kind": "cli", "expect": expect, "argv": list(argv)}


def make_job(workload: str, seed: int, input_dir: Path) -> list[dict]:
    """The steps of one job. The seed picks mutant deltas and step order only."""
    rng = random.Random(seed)
    if workload == "proof-sweep":
        return [_cli("proof", "--format", "machine", "prove-a032123",
                     "--max-n", str(PROOF_SWEEP_MAX_N))]
    if workload == "discover":
        steps = [
            _cli("guess-basis", "guess", "--sequence", "A032123",
                 "--order", "8", "--degree", "12"),
            _cli("guess-minimal", "guess", "--sequence", "A032123", "--order", "5",
                 "--degree", "4", "--terms", "80", "--minimal"),
        ]
        rng.shuffle(steps)
        return steps
    if workload != "crosscheck":
        raise ValueError(f"unknown workload {workload!r}")

    uv, vu = input_dir / "uv.json", input_dir / "vu.json"
    uv.write_text(operator_json(compose(U_OP, V_OP)))
    vu.write_text(operator_json(compose(V_OP, U_OP)))
    mutants = []
    for shift, power in MUTANT_SLOTS:
        delta = rng.choice([d for d in range(-9, 10) if d])
        coeffs = [list(p) for p in MATHAR]
        coeffs[shift][power] += delta
        path = input_dir / f"mutant-{shift}-{power}.json"
        path.write_text(operator_json(coeffs))
        mutants.append([
            _cli("mutant-certify", "certify", "--operator", str(path), "--term", "u-spec"),
            _cli("mutant-verify", "verify", "--operator", str(path),
                 "--sequence", "A032123", "--from", "6", "--to", str(MUTANT_TO)),
        ])
    rng.shuffle(mutants)
    parts = [
        [_cli("proof", "--format", "machine", "prove-a032123")],
        [_cli("lclm", "lclm", "--a", str(uv), "--b", str(vu))],
        [step for pair in mutants for step in pair],
        [{"kind": "ogf", "expect": "ogf", "order": OGF_ORDER}],
        [{"kind": "oracle", "expect": "oracle",
          "args": [[2 * k, k] for k in ORACLE_K] + [[n, None] for n in ORACLE_LENGTHS]}],
    ]
    rng.shuffle(parts)
    return [step for part in parts for step in part]


# -- checks ----------------------------------------------------------------------


class Checker:
    """Checks step results against reference values; caches verdicts by output."""

    def __init__(self):
        self.terms = [a032123(n) for n in range(CHECK_TO + 1)]
        self._verdicts: dict[str, str | None] = {}

    def check_inputs(self, input_dir: Path) -> str | None:
        """Reference sanity of the generated inputs: mutants fail on 6..50."""
        for path in sorted(input_dir.glob("mutant-*.json")):
            (op,) = parse_operators(path.read_text())
            if first_nonzero_residual(op, self.terms, 6, MUTANT_TO) is None:
                return f"{path.name} annihilates A032123 on 6..{MUTANT_TO}"
        return None

    def check(self, step: dict, result: dict) -> str | None:
        """None when the step's result is right, otherwise the reason it is not."""
        key = json.dumps([step["expect"], result], sort_keys=True)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = getattr(self, "_" + step["expect"].replace("-", "_"))(result)
            except (ValueError, KeyError, TypeError) as e:
                self._verdicts[key] = f"unreadable output: {e}"
        return self._verdicts[key]

    def _annihilates(self, op) -> str | None:
        if not any(op[0]) or not any(op[-1]):
            return "c_0 or the top coefficient is zero, which annihilates trivially"
        n = first_nonzero_residual(op, self.terms, max(6, len(op) - 1), CHECK_TO)
        return None if n is None else f"nonzero residual at n={n}"

    def _proof(self, r):
        lines = r["stdout"].strip().splitlines()
        if r["code"] != 0 or len(lines) != PROOF_LINES:
            return f"exit {r['code']} with {len(lines)} lines, want 0 and {PROOF_LINES}"
        bad = [ln for ln in lines if ln.split("\t")[1:2] != ["PASS"]]
        return f"not PASS: {bad}" if bad else None

    def _guess_basis(self, r):
        ops = parse_operators(r["stdout"])
        if r["code"] != 0 or len(ops) != GUESS_BASIS_SIZE:
            return f"exit {r['code']} with {len(ops)} operators, want 0 and {GUESS_BASIS_SIZE}"
        for i, op in enumerate(ops):
            if len(op) > 9 or any(len(p) > 13 for p in op):
                return f"operator {i} exceeds order 8 or degree 12"
            why = self._annihilates(op)
            if why:
                return f"operator {i}: {why}"
        return None

    def _guess_minimal(self, r):
        ops = parse_operators(r["stdout"])
        if r["code"] != 0 or len(ops) != 1:
            return f"exit {r['code']} with {len(ops)} operators, want 0 and 1"
        if len(ops[0]) > 4 or any(len(p) > 5 for p in ops[0]):
            return f"order {len(ops[0]) - 1} is not minimal (want <= 3, degree <= 4)"
        return self._annihilates(ops[0])

    def _lclm(self, r):
        ops = parse_operators(r["stdout"])
        if r["code"] != 0 or len(ops) != 1 or len(ops[0]) != 7:
            return f"exit {r['code']}, want 0 and one order-6 operator"
        return self._annihilates(ops[0])

    def _mutant_certify(self, r):
        if r["code"] != 1 or "NOT CERTIFIED" not in r["stdout"]:
            return f"mutant not rejected: exit {r['code']}, {r['stdout'].strip()!r}"
        return None

    def _mutant_verify(self, r):
        if r["code"] != 1 or "FAIL" not in r["stdout"]:
            return f"mutant passed the sweep: exit {r['code']}, {r['stdout'].strip()!r}"
        return None

    def _ogf(self, r):
        return None if r["passed"] and r["order"] == OGF_ORDER else f"ogf report {r}"

    def _oracle(self, r):
        want = [a032123(k) for k in ORACLE_K] + [a005418(n) for n in ORACLE_LENGTHS]
        return None if r["values"] == want else f"oracle values {r['values']} != {want}"
