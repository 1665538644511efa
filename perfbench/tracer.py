"""Layer tracing for one benchmark job, installed from outside the program.

``Tracer.install()`` reassigns public module and class attributes of
``recurra`` to timing wrappers; nothing under ``src/`` changes. Coarse calls
(``verify_range``, ``lclm``, ``nullspace``, ...) each record a span
``[name, start, end, parent, hot_s]``, where ``hot_s`` is the time spent in
hot calls and trace notes directly inside the span. Hot calls (``term``,
``apply`` and ``Polynomial`` arithmetic) are too frequent for spans; they aggregate into
``[calls, total_s, self_s]`` per name. Hot calls never call coarse ones.
Spans stay in memory until ``export()``.

``summarize()`` runs in the benchmark process and turns one job's export
into the per-layer metrics: self time of a span is its duration minus its
child spans and the hot calls directly under it.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from fractions import Fraction

#: Metric -> the span or hot-call names whose self time it sums.
SELF_TIME = {
    "sequences.term_s": ("sequences.term",),
    "sequences.oracle_s": ("sequences.oracle",),
    "operators.apply_s": ("operators.apply",),
    "operators.verify_range_s": ("operators.verify_range",),
    "operators.lclm_s": ("operators.lclm",),
    "linalg.nullspace_s": ("linalg.nullspace",),
    "exact.poly_mul_s": ("exact.poly_mul",),
    "exact.poly_shift_s": ("exact.poly_shift",),
    "exact.series_s": ("exact.series",),
    "certify.certify_s": ("certify.certify",),
    "guess.guess_s": ("guess.guess", "guess.minimal"),
}
#: Count metrics; each must repeat exactly between runs with the same seed.
COUNTS = (
    "sequences.term_calls", "sequences.max_index", "sequences.max_term_bits",
    "sequences.oracle_strings", "operators.apply_calls", "operators.lclm_shapes_tried",
    "linalg.nullspace_calls", "linalg.rows_max", "linalg.cols_max",
    "linalg.nullity_sum", "linalg.entry_bits_max", "exact.poly_mul_calls",
    "exact.poly_shift_calls", "certify.certify_calls", "certify.rejected",
    "guess.shapes_tried", "guess.candidates", "guess.verified",
)


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return int(x).bit_length()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.hot: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.root_hot_s = 0.0
        # One frame per active wrapped call: [time directly inside that is
        # not its own (hot calls, trace notes), span index or -1 if hot].
        self._stack: list[list] = []

    def _max(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def _add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def coarse(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            frame = [0.0, len(spans)]
            span = [name, 0.0, 0.0, parent, 0.0]
            spans.append(span)
            stack.append(frame)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                span[4] = frame[0]
            if note is not None:
                note(args, kwargs, result)
                if stack:  # the parent excludes the note from its self time
                    stack[-1][0] += clock() - span[2]
            return result

        return wrapper

    def hot_call(self, name, fn, note=None):
        stats = self.hot.setdefault(name, [0, 0.0, 0.0])
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, -1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
            if note is not None:
                note(args, result)
            # The parent excludes this call and its note from its self time.
            if stack:
                stack[-1][0] += clock() - t0
            else:
                self.root_hot_s += dt
            return result

        return wrapper

    def install(self) -> None:
        import recurra.certify as certify
        import recurra.exact as exact
        import recurra.guess as guess
        import recurra.linalg as linalg
        import recurra.operators as operators
        import recurra.sequences as sequences

        def on_term(args, value):
            self._max("sequences.max_index", args[1])
            self._max("sequences.max_term_bits", value.bit_length())

        def on_nullspace(args, kwargs, basis):
            rows = args[0]
            ncols = kwargs.get("ncols", args[1] if len(args) > 1 else None)
            if ncols is None:
                ncols = len(rows[0])
            self._max("linalg.rows_max", len(rows))
            self._max("linalg.cols_max", ncols)
            self._add("linalg.nullity_sum", len(basis))
            self._max("linalg.entry_bits_max",
                      max((_bits(x) for row in rows for x in row), default=0))

        def on_oracle(args, kwargs, _):
            length = args[0]
            ones = args[1] if len(args) > 1 else kwargs.get("ones")
            self._add("sequences.oracle_strings",
                      2**length if ones is None else math.comb(length, ones))

        def on_certify(args, kwargs, report):
            self._add("certify.rejected", not report.certified)

        def on_guess(args, kwargs, result):
            self._add("guess.candidates", len(result.candidates))
            self._add("guess.verified", len(result.verified))

        nullspace = self.coarse("linalg.nullspace", linalg.nullspace, on_nullspace)
        mul = self.hot_call("exact.poly_mul", exact.Polynomial.__mul__)
        plan = [
            (linalg, "nullspace", nullspace),
            (operators, "nullspace", nullspace),
            (guess, "nullspace", nullspace),
            (sequences, "series_inv_sqrt",
             self.coarse("exact.series", sequences.series_inv_sqrt)),
            (exact.Polynomial, "__mul__", mul),
            (exact.Polynomial, "__rmul__", mul),
            (exact.Polynomial, "shifted",
             self.hot_call("exact.poly_shift", exact.Polynomial.shifted)),
            (sequences.SequenceSource, "term",
             self.hot_call("sequences.term", sequences.SequenceSource.term, on_term)),
            (operators.ShiftOperator, "apply",
             self.hot_call("operators.apply", operators.ShiftOperator.apply)),
            (operators, "verify_range",
             self.coarse("operators.verify_range", operators.verify_range)),
            (operators, "lclm", self.coarse("operators.lclm", operators.lclm)),
            (certify, "certify_annihilation",
             self.coarse("certify.certify", certify.certify_annihilation, on_certify)),
            (guess, "guess_recurrence",
             self.coarse("guess.guess", guess.guess_recurrence, on_guess)),
            (guess, "minimal_guess", self.coarse("guess.minimal", guess.minimal_guess)),
            (sequences, "verify_ogf", self.coarse("sequences.ogf", sequences.verify_ogf)),
            (sequences, "orbit_count_oracle",
             self.coarse("sequences.oracle", sequences.orbit_count_oracle, on_oracle)),
        ]
        for owner, attr, wrapper in plan:
            setattr(owner, attr, wrapper)

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "hot": self.hot,
            "counts": self.counts,
            "root_hot_s": self.root_hot_s,
        }


def summarize(trace: dict, job_s: float, setup_s: float, import_s: float) -> dict:
    """Per-layer metrics of one traced job."""
    spans, hot = trace["spans"], trace["hot"]
    self_s: dict[str, float] = {}
    for name, (_, _, sub) in hot.items():
        self_s[name] = sub
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    for (name, start, end, _, hot_s), kids in zip(spans, child_s):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - kids - hot_s

    def under(i: int, name: str) -> bool:
        while i >= 0:
            if spans[i][0] == name:
                return True
            i = spans[i][3]
        return False

    calls = Counter(s[0] for s in spans)
    counts = dict.fromkeys(COUNTS, 0)
    counts.update(trace["counts"])
    counts.update({
        "sequences.term_calls": hot.get("sequences.term", [0])[0],
        "operators.apply_calls": hot.get("operators.apply", [0])[0],
        "exact.poly_mul_calls": hot.get("exact.poly_mul", [0])[0],
        "exact.poly_shift_calls": hot.get("exact.poly_shift", [0])[0],
        "linalg.nullspace_calls": calls.get("linalg.nullspace", 0),
        "operators.lclm_shapes_tried": sum(
            1 for s in spans if s[0] == "linalg.nullspace" and under(s[3], "operators.lclm")
        ),
        "certify.certify_calls": calls.get("certify.certify", 0),
        "guess.shapes_tried": calls.get("guess.guess", 0),
    })
    covered = setup_s + trace["root_hot_s"] + sum(
        end - start for _, start, end, parent, _ in spans if parent < 0
    )
    metrics = {"cli.import_s": import_s}
    for metric, names in SELF_TIME.items():
        metrics[metric] = sum(self_s.get(n, 0.0) for n in names)
    metrics.update(counts)
    metrics["trace.coverage"] = covered / job_s
    return metrics
