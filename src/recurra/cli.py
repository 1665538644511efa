"""Command-line driver: term generation, verification, certification,
guessing, LCLM, b-file handling, and the one-shot A032123 proof pipeline.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error,
3 I/O or network trouble.

A subcommand imports ``certify``, ``guess`` and ``oeis`` itself, where it
uses them, so a command loads only the modules it runs.
"""
from __future__ import annotations

import argparse
import sys
import time
from functools import cache, partial
from typing import TYPE_CHECKING

from . import operators as ops
from . import sequences as seqs
from .check import Check, decimal

if TYPE_CHECKING:
    from .certify import HyperTermSpec

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

#: First index of the order-5 sweep: Mathar's recurrence holds from n = 6.
SWEEP_FROM = 6


def render(checks: list[Check], fmt: str) -> str:
    """Machine form: one tab-separated name, PASS|FAIL, detail line per check.

    Human form: the pipeline table with seconds, then the overall verdict.
    """
    if fmt == "machine":
        return "\n".join(
            f"{c.name}\t{'PASS' if c.passed else 'FAIL'}\t{c.detail}" for c in checks
        )
    width = max(len(c.name) for c in checks)
    lines = [
        f"[{'ok ' if c.passed else 'FAIL'}] {c.name:<{width}}  {c.detail} ({c.seconds:.2f}s)"
        for c in checks
    ]
    lines.append(f"overall: {'PASS' if all(c.passed for c in checks) else 'FAIL'}")
    return "\n".join(lines)


def _certify(op: ops.ShiftOperator, term: HyperTermSpec) -> Check:
    from .certify import certify_annihilation

    rep = certify_annihilation(op, term)
    return Check("certify", rep.certified, rep.detail())


def _summand_recurrence(op: ops.ShiftOperator) -> Check:
    """op on order..200 against ``binomial_summand`` at step op.order (u, or its aeration v):
    a closed form, not the builtin source, which unrolls the very operator checked."""
    terms = (seqs.binomial_summand(op.order, k) for k in range(201))
    return ops.verify_range(op, seqs.BFileSequence("closed form", 0, terms), op.order, 200)


def _identities() -> Check:
    from .certify import check_cancellation_identities

    bad = [c.name for c in check_cancellation_identities() if not c.passed]
    detail = f"failed: {bad}" if bad else "all transcription identities hold"
    return Check("identities", not bad, detail)


def _sweep(op: ops.ShiftOperator, max_n: int) -> Check:
    """op on A032123 on max(SWEEP_FROM, order)..max_n, noting its n = 5 residual up to order 5."""
    a = seqs.builtin_sequence("A032123")
    check = ops.verify_range(op, a, max(SWEEP_FROM, op.order), max_n)
    note = (decimal(op.apply(a, 5)) if op.order <= 5
            else f"does not apply at order {op.order}")
    return check._replace(detail=f"{check.detail}; n=5 residual (informational): {note}")


def _lclm_order(lcm) -> Check:
    order = lcm().order
    return Check("lclm-order", order <= 3, f"computed order {order} (bound 3)")


def _lclm_sweep(lcm) -> Check:
    return ops.verify_range(lcm(), seqs.builtin_sequence("A032123"), 3, 2000)


def _run_stages(stages) -> list[Check]:
    """Each (name, thunk) row's Check, renamed and timed; an exception fails its row."""
    checks = []
    for name, stage in stages:
        start = time.perf_counter()
        try:
            check = stage()
        except Exception as e:  # a component error counts as a failing check
            check = Check(name, False, f"error: {e}")
        checks.append(check._replace(name=name, seconds=time.perf_counter() - start))
    return checks


def run_prove_a032123(max_n: int = 5000, operator: ops.ShiftOperator | None = None) -> list[Check]:
    """The offline A032123 proof: one table of (stage name, thunk) rows, in proof order.

    ``operator`` replaces Mathar's order-5 operator in the certify and sweep stages.
    The LCLM of ``u-op`` and ``v-op`` is computed once and read by both LCLM stages.
    """
    from . import oeis
    from .certify import builtin_term

    op = operator if operator is not None else ops.builtin_operator("mathar")
    u_op, v_op = ops.builtin_operator("u-op"), ops.builtin_operator("v-op")
    lcm = cache(lambda: ops.lclm(u_op, v_op)[0])
    return _run_stages([
        ("closed-form-vs-bfile", partial(
            oeis.compare_sequence, seqs.builtin_sequence("A032123"), oeis.bundled_a032123(), 0, 19
        )),
        ("u-recurrence", partial(_summand_recurrence, u_op)),
        ("v-recurrence", partial(_summand_recurrence, v_op)),
        ("certify-u", partial(_certify, op, builtin_term("u-spec"))),
        ("certify-v", partial(_certify, op, builtin_term("v-spec"))),
        ("identities", _identities),
        ("mathar-numeric", partial(_sweep, op, max_n)),
        ("lclm-order", partial(_lclm_order, lcm)),
        ("lclm-numeric", partial(_lclm_sweep, lcm)),
    ])


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
    p.set_defaults(run=_gen)
    p.add_argument("sequence")
    p.add_argument("--from", dest="n_from", type=int, required=True)
    p.add_argument("--to", dest="n_to", type=int, required=True)

    p = sub.add_parser("verify", help="check an operator annihilates a sequence")
    p.set_defaults(run=_verify)
    p.add_argument("--operator", required=True, help="builtin name or operator file")
    p.add_argument("--sequence", required=True, help="builtin id or b-file path")
    p.add_argument("--from", dest="n_from", type=int, required=True)
    p.add_argument("--to", dest="n_to", type=int, required=True)

    p = sub.add_parser("certify", help="symbolically certify annihilation of a term")
    p.set_defaults(run=_certify_term)
    p.add_argument("--operator", required=True)
    p.add_argument("--term", required=True, help="u-spec, v-spec, or a term file")

    p = sub.add_parser("guess", help="recover a recurrence from terms")
    p.set_defaults(run=_guess)
    p.add_argument("--sequence", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--terms", type=_bounded_int(1, ""), default=None,
                   help="how many terms to sample, at least 1 (default: minimum required)")
    p.add_argument("--minimal", action="store_true",
                   help="search (order, degree) ascending and print the first hit")

    p = sub.add_parser("lclm", help="least common left multiple of two operators")
    p.set_defaults(run=_lclm)
    p.add_argument("--a", required=True, dest="op_a")
    p.add_argument("--b", required=True, dest="op_b")
    p.add_argument("--order-cap", type=int, default=8)
    p.add_argument("--degree-cap", type=int, default=10)

    p = sub.add_parser("bfile", help="b-file utilities")
    bsub = p.add_subparsers(dest="bfile_command", required=True)
    bp = bsub.add_parser("parse", help="parse and summarize a local b-file")
    bp.set_defaults(run=_bfile_parse)
    bp.add_argument("path")
    bp = bsub.add_parser("fetch", help="fetch (or reuse cached) b-file from oeis.org")
    bp.set_defaults(run=_bfile_fetch)
    bp.add_argument("sequence_id")
    bp.add_argument("--refresh", action="store_true")
    bp = bsub.add_parser("compare", help="compare a builtin sequence against a b-file")
    bp.set_defaults(run=_bfile_compare)
    bp.add_argument("--sequence", required=True)
    bp.add_argument("--bfile", required=True, help="b-file path")
    bp.add_argument("--from", dest="n_from", type=int, required=True)
    bp.add_argument("--to", dest="n_to", type=int, required=True)

    p = sub.add_parser("prove-a032123", help="run the full offline proof pipeline")
    p.set_defaults(run=_prove)
    sweep_end = _bounded_int(SWEEP_FROM, ", where the numeric sweep starts",
                             seqs.MAX_INDEX, ", the last index a builtin sequence serves")
    p.add_argument("--max-n", type=sweep_end, default=5000,
                   help=f"upper end of the numeric sweep, {SWEEP_FROM}..{seqs.MAX_INDEX} "
                        "(default 5000)")
    p.add_argument("--operator", default=None,
                   help="operator file overriding the builtin order-5 operator")

    return parser


def _bounded_int(low: int, why_low: str, high: int | None = None, why_high: str = ""):
    """An argparse type: an integer in low..high, or no smaller than low without high."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}{why_low}; got {n}")
        if high is not None and n > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}{why_high}; got {n}")
        return n

    return parse


def _load(spec: str, kind: str):
    """The builtin operator, term or sequence (kind) named spec, else the file at path spec.

    A builtin wins over a same-named file. A file is a JSON operator or term, or
    a b-file for a sequence; it is read outside the lookup's ``try``, so a
    malformed file's ``ValueError`` is never taken for an unknown name. A name
    that is neither, the empty name included (``Path("")`` is the current
    directory), is the lookup's ``ValueError``, which lists the builtins, with
    "; no file of that name either" appended.
    """
    if kind == "term":
        from .certify import HyperTermSpec, builtin_term

        lookup, read = builtin_term, HyperTermSpec.from_json
    elif kind == "operator":
        lookup, read = ops.builtin_operator, ops.ShiftOperator.from_json
    else:
        lookup, read = seqs.builtin_sequence, None  # a b-file, which oeis parses
    try:
        return lookup(spec)
    except ValueError as e:
        from pathlib import Path

        if not spec or not Path(spec).exists():
            raise ValueError(f"{e}; no file of that name either") from None
    from . import oeis

    text = oeis.read_file(spec)
    return read(text) if read else oeis.parse_bfile(text, source=spec)


# -- subcommands: each takes the parsed arguments and returns the exit code ----


def _gen(args) -> int:
    s = _load(args.sequence, "sequence")
    if args.n_from > args.n_to:
        raise ValueError("empty term range")
    s.check_range(args.n_from, args.n_to)
    for _, t in zip(range(args.n_from, args.n_to + 1), s.run(args.n_from)):
        print(decimal(t))
    return EXIT_PASS


def _verify(args) -> int:
    op, s = _load(args.operator, "operator"), _load(args.sequence, "sequence")
    check = ops.verify_range(op, s, args.n_from, args.n_to)
    return _report(check, args.format, "PASS" if check.passed else f"FAIL: {check.detail}")


def _certify_term(args) -> int:
    check = _certify(_load(args.operator, "operator"), _load(args.term, "term"))
    verdict = "CERTIFIED" if check.passed else "NOT CERTIFIED"
    return _report(check, args.format, f"{verdict}: {check.detail}")


def _guess(args) -> int:
    from . import guess as guess_mod

    s = _load(args.sequence, "sequence")
    count = args.terms or guess_mod.required_terms(args.order, args.degree)
    guess_mod.check_size(args.order, args.degree, count)
    terms = s.terms(s.min_index, s.min_index + count - 1)
    if args.minimal:  # one operator, or GuessNotFoundError
        verified = [guess_mod.minimal_guess(terms, args.order, args.degree, offset=s.min_index)]
    else:
        verified = guess_mod.guess_recurrence(terms, args.order, args.degree, s.min_index).verified
    if not verified:
        print("no holdout-verified recurrence found", file=sys.stderr)
        return EXIT_FAIL
    for op in verified:
        sys.stdout.write(op.to_json())
    return EXIT_PASS


def _lclm(args) -> int:
    a, b = _load(args.op_a, "operator"), _load(args.op_b, "operator")
    lcm, _, _ = ops.lclm(a, b, order_cap=args.order_cap, degree_cap=args.degree_cap)
    sys.stdout.write(lcm.to_json())
    return EXIT_PASS


def _bfile_parse(args) -> int:
    from . import oeis

    b = oeis.parse_bfile(oeis.read_file(args.path), source=args.path)
    print(f"{len(b.values)} terms, indices {b.min_index}..{b.max_index}")
    return EXIT_PASS


def _bfile_fetch(args) -> int:
    from . import oeis

    b = oeis.fetch_bfile(
        args.sequence_id, cache_dir=args.cache_dir, offline=args.offline, refresh=args.refresh
    )
    print(f"{b.name}: {len(b.values)} terms, indices {b.min_index}..{b.max_index} ({b.source})")
    return EXIT_PASS


def _bfile_compare(args) -> int:
    from . import oeis

    s = _load(args.sequence, "sequence")
    b = oeis.parse_bfile(oeis.read_file(args.bfile), source=args.bfile)
    check = oeis.compare_sequence(s, b, args.n_from, args.n_to)
    return _report(check, args.format, f"{'PASS' if check.passed else 'FAIL'}: {check.detail}")


def _prove(args) -> int:
    override = _load(args.operator, "operator") if args.operator else None
    checks = run_prove_a032123(max_n=args.max_n, operator=override)
    print(render(checks, args.format))
    return EXIT_PASS if all(c.passed for c in checks) else EXIT_FAIL


def _report(check: Check, fmt: str, human: str) -> int:
    """Print one check, machine-rendered or as its command's human verdict."""
    print(render([check], fmt) if fmt == "machine" else human)
    return EXIT_PASS if check.passed else EXIT_FAIL


#: Built once per process; parsing never writes to it.
_PARSER = _build_parser()


def _loaded(module: str, *names: str) -> tuple[type[BaseException], ...]:
    """The named exception classes of module, or none while it is not imported:
    a module that never ran raised nothing, so looking them up imports nothing."""
    mod = sys.modules.get(f"{__package__}.{module}")
    return tuple(getattr(mod, name) for name in names) if mod else ()


def main(argv: list[str]) -> int:
    """Parse argv and run its subcommand; returns the process exit code."""
    args = _PARSER.parse_args(argv)
    try:
        return args.run(args)
    except (OSError, *_loaded("oeis", "OfflineError", "FetchError")) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, seqs.TermRangeError, ops.LclmCapError,
            *_loaded("guess", "GuessNotFoundError")) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
