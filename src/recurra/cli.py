"""Command-line driver: term generation, verification, certification,
guessing, LCLM, b-file handling, and the one-shot A032123 proof pipeline.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error,
3 I/O or network trouble.
"""
from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from . import certify as certify_mod
from . import guess as guess_mod
from . import oeis
from . import operators as ops
from . import sequences as seqs

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

#: First index of the order-5 sweep: Mathar's recurrence holds from n = 6.
SWEEP_FROM = 6


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


@dataclass(frozen=True)
class PipelineReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self, fmt: str) -> str:
        lines = []
        if fmt == "machine":
            for c in self.checks:
                lines.append(f"{c.name}\t{'PASS' if c.passed else 'FAIL'}\t{c.detail}")
        else:
            width = max(len(c.name) for c in self.checks)
            for c in self.checks:
                mark = "ok " if c.passed else "FAIL"
                lines.append(f"[{mark}] {c.name:<{width}}  {c.detail} ({c.seconds:.2f}s)")
            lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def run_prove_a032123(max_n: int = 5000, operator: ops.ShiftOperator | None = None) -> PipelineReport:
    """The four-stage offline proof pipeline plus the LCLM bonus stage.

    1. closed form against the bundled 20-term b-file,
    2. the two elementary recurrences numerically to n = 200,
    3. symbolic certification of the order-5 operator against both summands,
       plus the transcription identities,
    4. the order-5 recurrence numerically on 6..max_n,
    and finally the computed 3-step common left multiple re-verified.
    """
    op = operator if operator is not None else ops.builtin_operator("mathar")
    checks: list[CheckResult] = []

    def run(name, fn):
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as e:  # a component error counts as a failing check
            passed, detail = False, f"error: {e}"
        checks.append(CheckResult(name, passed, detail, time.perf_counter() - start))

    def closed_vs_bfile():
        rep = oeis.compare_sequence(
            seqs.builtin_sequence("A032123"), oeis.bundled_a032123(), 0, 19
        )
        return rep.passed, rep.detail()

    def u_recurrence():
        rep = ops.verify_range(
            ops.builtin_operator("u-op"), seqs.builtin_sequence("central-binomial"), 1, 200
        )
        return rep.passed, rep.detail()

    def v_recurrence():
        rep = ops.verify_range(
            ops.builtin_operator("v-op"),
            seqs.builtin_sequence("aerated-central-binomial"), 2, 200,
        )
        return rep.passed, rep.detail()

    def certify_u():
        rep = certify_mod.certify_annihilation(op, certify_mod.builtin_term("u-spec"))
        return rep.certified, rep.detail()

    def certify_v():
        rep = certify_mod.certify_annihilation(op, certify_mod.builtin_term("v-spec"))
        return rep.certified, rep.detail()

    def identities():
        rep = certify_mod.check_cancellation_identities()
        bad = [c.name for c in rep.checks if not c.passed]
        return rep.passed, "all transcription identities hold" if rep.passed else f"failed: {bad}"

    def mathar_numeric():
        a = seqs.builtin_sequence("A032123")
        rep = ops.verify_range(op, a, SWEEP_FROM, max_n)
        note = f"; n=5 residual (informational): {op.apply(a, 5)}"
        return rep.passed, rep.detail() + note

    stash: dict[str, ops.ShiftOperator] = {}

    def lclm_order():
        lcm_op = ops.lclm(ops.builtin_operator("u-op"), ops.builtin_operator("v-op"))
        stash["lclm"] = lcm_op
        return lcm_op.order <= 3, f"computed order {lcm_op.order} (bound 3)"

    def lclm_numeric():
        lcm_op = stash.get("lclm")
        if lcm_op is None:
            return False, "skipped: no LCLM available"
        rep = ops.verify_range(lcm_op, seqs.builtin_sequence("A032123"), 3, 2000)
        return rep.passed, rep.detail()

    run("closed-form-vs-bfile", closed_vs_bfile)
    run("u-recurrence", u_recurrence)
    run("v-recurrence", v_recurrence)
    run("certify-u", certify_u)
    run("certify-v", certify_v)
    run("identities", identities)
    run("mathar-numeric", mathar_numeric)
    run("lclm-order", lclm_order)
    run("lclm-numeric", lclm_numeric)
    return PipelineReport(checks=tuple(checks))


# -- argument handling ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recurra",
        description="Exact-arithmetic toolkit for P-recursive recurrences.",
    )
    parser.add_argument("--offline", action="store_true",
                        help="never touch the network")
    parser.add_argument("--cache-dir", default=None, help="b-file cache directory")
    parser.add_argument("--format", choices=("human", "machine"), default="human",
                        help="report rendering")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="print terms of a builtin sequence")
    p.add_argument("sequence")
    p.add_argument("--from", dest="n_from", type=int, required=True)
    p.add_argument("--to", dest="n_to", type=int, required=True)

    p = sub.add_parser("verify", help="check an operator annihilates a sequence")
    p.add_argument("--operator", required=True, help="builtin name or operator file")
    p.add_argument("--sequence", required=True, help="builtin id or b-file path")
    p.add_argument("--from", dest="n_from", type=int, required=True)
    p.add_argument("--to", dest="n_to", type=int, required=True)

    p = sub.add_parser("certify", help="symbolically certify annihilation of a term")
    p.add_argument("--operator", required=True)
    p.add_argument("--term", required=True, help="u-spec, v-spec, or a term file")

    p = sub.add_parser("guess", help="recover a recurrence from terms")
    p.add_argument("--sequence", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--terms", type=int, default=None,
                   help="how many terms to sample (default: minimum required)")
    p.add_argument("--minimal", action="store_true",
                   help="search (order, degree) ascending and print the first hit")

    p = sub.add_parser("lclm", help="least common left multiple of two operators")
    p.add_argument("--a", required=True, dest="op_a")
    p.add_argument("--b", required=True, dest="op_b")
    p.add_argument("--order-cap", type=int, default=8)
    p.add_argument("--degree-cap", type=int, default=10)

    p = sub.add_parser("bfile", help="b-file utilities")
    bsub = p.add_subparsers(dest="bfile_command", required=True)
    bp = bsub.add_parser("parse", help="parse and summarize a local b-file")
    bp.add_argument("path")
    bp = bsub.add_parser("fetch", help="fetch (or reuse cached) b-file from oeis.org")
    bp.add_argument("sequence_id")
    bp.add_argument("--refresh", action="store_true")
    bp = bsub.add_parser("compare", help="compare a builtin sequence against a b-file")
    bp.add_argument("--sequence", required=True)
    bp.add_argument("--bfile", required=True, help="b-file path")
    bp.add_argument("--from", dest="n_from", type=int, required=True)
    bp.add_argument("--to", dest="n_to", type=int, required=True)

    p = sub.add_parser("prove-a032123", help="run the full offline proof pipeline")
    p.add_argument("--max-n", type=_sweep_end, default=5000,
                   help="upper end of the numeric sweep (default 5000)")
    p.add_argument("--operator", default=None,
                   help="operator file overriding the builtin order-5 operator")

    return parser


def _sweep_end(text: str) -> int:
    """``--max-n``: an integer no smaller than ``SWEEP_FROM``."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < SWEEP_FROM:
        raise argparse.ArgumentTypeError(
            f"must be at least {SWEEP_FROM}, where the numeric sweep starts; got {n}"
        )
    return n


def _load_operator(spec: str) -> ops.ShiftOperator:
    if spec in ops.builtin_operator_names():
        return ops.builtin_operator(spec)
    return ops.ShiftOperator.from_json(Path(spec).read_text())


def _load_sequence(spec: str) -> seqs.SequenceSource:
    names = seqs.builtin_sequence_names()
    if spec in names:
        return seqs.builtin_sequence(spec)
    path = Path(spec)
    if path.exists():
        return oeis.parse_bfile(path.read_text(), source=str(path))
    raise ValueError(
        f"unknown sequence {spec!r}: neither a builtin ({', '.join(names)}) nor a file"
    )


def _load_term(spec: str) -> certify_mod.HyperTermSpec:
    if spec in certify_mod.builtin_term_names():
        return certify_mod.builtin_term(spec)
    return certify_mod.HyperTermSpec.from_json(Path(spec).read_text())


@contextmanager
def _any_size_ints():
    """Lift CPython's int-to-str digit cap while printing integers recurra computed.

    Parsing untrusted input (b-files) keeps the cap; only output is exempt.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # interpreters before 3.10.7 have no cap
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: list[str]) -> int:
    """Route parsed arguments to a subcommand; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout

    try:
        if args.command == "gen":
            s = _load_sequence(args.sequence)
            with _any_size_ints():
                for i in range(args.n_from, args.n_to + 1):
                    print(s.term(i), file=out)
            return EXIT_PASS

        if args.command == "verify":
            op = _load_operator(args.operator)
            s = _load_sequence(args.sequence)
            rep = ops.verify_range(op, s, args.n_from, args.n_to)
            with _any_size_ints():
                detail = rep.detail()
            if args.format == "machine":
                print(f"verify\t{'PASS' if rep.passed else 'FAIL'}\t{detail}", file=out)
            else:
                print("PASS" if rep.passed else f"FAIL: {detail}", file=out)
            return EXIT_PASS if rep.passed else EXIT_FAIL

        if args.command == "certify":
            op = _load_operator(args.operator)
            term = _load_term(args.term)
            rep = certify_mod.certify_annihilation(op, term)
            if args.format == "machine":
                print(
                    f"certify\t{'PASS' if rep.certified else 'FAIL'}\t{rep.detail()}",
                    file=out,
                )
            else:
                print(
                    ("CERTIFIED" if rep.certified else "NOT CERTIFIED") + f": {rep.detail()}",
                    file=out,
                )
            return EXIT_PASS if rep.certified else EXIT_FAIL

        if args.command == "guess":
            s = _load_sequence(args.sequence)
            count = args.terms or guess_mod.required_terms(args.order, args.degree)
            terms = s.terms(s.min_index, s.min_index + count - 1)
            if args.minimal:
                op = guess_mod.minimal_guess(
                    terms, args.order, args.degree, offset=s.min_index
                )
                out.write(op.to_json())
                return EXIT_PASS
            problem = guess_mod.GuessProblem(
                terms=terms, order=args.order, degree=args.degree, offset=s.min_index
            )
            result = guess_mod.guess_recurrence(problem)
            verified = result.verified
            if not verified:
                print("no holdout-verified recurrence found", file=sys.stderr)
                return EXIT_FAIL
            for op in verified:
                out.write(op.to_json())
            return EXIT_PASS

        if args.command == "lclm":
            a = _load_operator(args.op_a)
            b = _load_operator(args.op_b)
            result = ops.lclm(a, b, order_cap=args.order_cap, degree_cap=args.degree_cap)
            out.write(result.to_json())
            return EXIT_PASS

        if args.command == "bfile":
            return _dispatch_bfile(args, out)

        if args.command == "prove-a032123":
            override = _load_operator(args.operator) if args.operator else None
            report = run_prove_a032123(max_n=args.max_n, operator=override)
            print(report.render(args.format), file=out)
            return EXIT_PASS if report.passed else EXIT_FAIL

    except (oeis.OfflineError, oeis.FetchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (
        ValueError,
        seqs.TermRangeError,
        ops.LclmCapError,
        guess_mod.GuessNotFoundError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def _dispatch_bfile(args, out) -> int:
    if args.bfile_command == "parse":
        b = oeis.parse_bfile(Path(args.path).read_text(), source=args.path)
        print(f"{len(b.values)} terms, indices {b.min_index}..{b.max_index}", file=out)
        return EXIT_PASS
    if args.bfile_command == "fetch":
        b = oeis.fetch_bfile(
            args.sequence_id,
            cache_dir=args.cache_dir,
            offline=args.offline,
            refresh=args.refresh,
        )
        print(
            f"{b.name}: {len(b.values)} terms, "
            f"indices {b.min_index}..{b.max_index} ({b.source})",
            file=out,
        )
        return EXIT_PASS
    if args.bfile_command == "compare":
        s = _load_sequence(args.sequence)
        b = oeis.parse_bfile(Path(args.bfile).read_text(), source=args.bfile)
        rep = oeis.compare_sequence(s, b, args.n_from, args.n_to)
        if args.format == "machine":
            print(f"compare\t{'PASS' if rep.passed else 'FAIL'}\t{rep.detail()}", file=out)
        else:
            print(("PASS" if rep.passed else "FAIL") + f": {rep.detail()}", file=out)
        return EXIT_PASS if rep.passed else EXIT_FAIL
    raise AssertionError(f"unhandled bfile command {args.bfile_command}")  # pragma: no cover


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
