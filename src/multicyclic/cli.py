"""Command-line front end.

Commands:
  construct   build one code from an explicit seed set
  search      rank codes of a target dimension by exact distance
  verify      run the algebraic property suite on a ring
  reproduce   rebuild the embedded reference artifacts and diff them

Each command registers only the flags it reads; the property suite and
the reference artifacts are in `verify`.

Exit codes: 2 validation failure, 3 root-of-unity condition fails,
4 distance budget exceeded, 5 infeasible dimension target, 6 a verified
property fails, 7 reproduction mismatch, 1 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from .codes import (
    CLASS_BLOCK,
    DEFAULT_BUDGET,
    CodeRecord,
    _construct_sets,
    construct,
    literal_monomial_sum,
    search,
)
from .errors import BudgetExceeded, Infeasible, MulticyclicError, OrderNotDividing
from .gf import Field
from .linalg import rank
from .ring import Ring
# not called here: the benchmark's test_tracing_keeps_output_and_uninstalls
# reads cli.fourier (ROADMAP item 1 retargets it)
from .spectral import fourier  # noqa: F401
from .verify import property_suite, reference_mismatches, reference_records

EXIT_VALIDATION = 2
EXIT_ORDER = 3
EXIT_BUDGET = 4
EXIT_INFEASIBLE = 5
EXIT_PROPERTY = 6
EXIT_MISMATCH = 7

# the first matching class names the exit code of an error
_EXIT_CODES = ((OrderNotDividing, EXIT_ORDER), (BudgetExceeded, EXIT_BUDGET),
               (Infeasible, EXIT_INFEASIBLE),
               ((MulticyclicError, ValueError), EXIT_VALIDATION))

_TUPLE_RE = re.compile(r"\(([^()]*)\)")


def _integers(flag: str, text: str) -> tuple[int, ...]:
    """The comma-separated integers of `text`; an error names the flag."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--{flag}: {text!r} is not a comma-separated "
                         "list of integers") from None


def parse_seeds(text: str):
    """Semicolon-separated parenthesized integer tuples, whitespace-insensitive."""
    text = text.strip()
    if not text:
        return []
    seeds = []
    chunks = [c for c in text.split(";") if c.strip()]
    for chunk in chunks:
        m = _TUPLE_RE.fullmatch(chunk.strip())
        if not m:
            raise ValueError(f"--seeds: bad seed tuple: {chunk!r}")
        if not m.group(1).strip():
            raise ValueError(f"--seeds: empty seed tuple: {chunk!r}")
        seeds.append(_integers("seeds", m.group(1)))
    return seeds


def format_defining_set(S) -> str:
    return ";".join("(" + ",".join(map(str, idx)) + ")" for idx in S)


def _build_ring(args) -> Ring:
    modulus = _integers("modulus", args.modulus) if args.modulus else None
    field = Field(args.p, args.m, modulus)
    return Ring(field, _integers("lengths", args.lengths))


# -- record rendering ------------------------------------------------------

def record_to_dict(rec: CodeRecord) -> dict:
    return {
        "params": rec.params(),
        "q": rec.ring.field.q,
        "lengths": list(rec.ring.lengths),
        "n": rec.n,
        "K": rec.K,
        "d": rec.d,
        "defining_set": [list(i) for i in rec.defining_set],
        "k_profile": list(rec.k_profile) if rec.k_profile else None,
        "basis_kind": rec.basis_kind,
        "idempotent": str(rec.idempotent),
        "product_bound": rec.product_bound,
        "product_bound_applicable": rec.bound_applicable,
        "singleton_bound": rec.singleton_bound,
        "generator": rec.generator.array.tolist(),
        "columns": list(rec.ring.labels),
    }


def record_to_text(rec: CodeRecord) -> str:
    lines = [f"code {rec.params()}"]
    lines.append(f"field: {rec.ring.field!r}")
    lines.append(f"lengths: {rec.ring.lengths}")
    lines.append(f"defining set: {format_defining_set(rec.defining_set)}")
    lines.append(f"K = {rec.K}")
    if rec.K == 0:
        lines.append("zero code (empty defining set); d undefined")
        return "\n".join(lines)
    if rec.d is not None:
        lines.append(f"d = {rec.d} (exhaustive)")
    else:
        lines.append("d not computed (budget exceeded); bounds only")
    lines.append(f"k profile: {rec.k_profile}")
    lines.append(f"basis kind: {rec.basis_kind}")
    flag = "applicable" if rec.bound_applicable else "informational only"
    lines.append(f"product bound: {rec.product_bound} ({flag})")
    lines.append(f"singleton bound: {rec.singleton_bound}")
    lines.append(f"idempotent: {rec.idempotent}")
    lines.append(f"generator matrix (columns: {', '.join(rec.ring.labels)}):")
    for row in rec.generator.array.tolist():
        lines.append("  " + " ".join(map(str, row)))
    return "\n".join(lines)


def record_to_csv(rec: CodeRecord) -> str:
    rows = [",".join(map(str, row)) for row in rec.generator.array.tolist()]
    return "\n".join([",".join(rec.ring.labels)] + rows)


def emit_record(rec: CodeRecord, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record_to_dict(rec), indent=2)
    if fmt == "csv":
        return record_to_csv(rec)
    return record_to_text(rec)


def readback_check(records) -> None:
    """Independent check of emitted records over one ring: re-derive the
    rank of each generator and the spectral support of every generator
    row from the raw matrices.  The rows of many records are transformed
    in one call, in blocks of at most CLASS_BLOCK coefficients (one
    record if its rows are more), so memory stays bounded whatever the
    number of records."""
    records = [rec for rec in records if rec.K]
    if not records:
        return
    ring = records[0].ring
    for rec in records:
        if rank(rec.generator) != rec.K:
            raise MulticyclicError("read-back: rank mismatch")
    step = max(1, CLASS_BLOCK // (max(rec.K for rec in records) * ring.N))
    for lo in range(0, len(records), step):
        chunk = records[lo:lo + step]
        rows = np.concatenate([rec.generator.array for rec in chunk])
        # the rows are in monomial order, the transform's input in C order
        coeffs = np.zeros((len(rows), ring.N), dtype=np.int64)
        coeffs[:, ring._gather] = rows
        spectra = ring.transform(coeffs.reshape((-1,) + ring.lengths))
        outside = np.ones((len(chunk), ring.N), dtype=bool)
        for c, rec in enumerate(chunk):
            outside[c, np.ravel_multi_index(tuple(zip(*rec.defining_set)),
                                            ring.lengths)] = False
        outside = np.repeat(outside, [rec.generator.rows for rec in chunk], axis=0)
        if spectra.reshape(outside.shape)[outside].any():
            raise MulticyclicError("read-back: spectrum leaves the defining set")


# -- command handlers ------------------------------------------------------

def cmd_construct(args) -> int:
    ring = _build_ring(args)
    seeds = parse_seeds(args.seeds)
    rec = construct(ring, seeds, budget=args.budget)
    readback_check([rec])
    print(emit_record(rec, args.format))
    if args.literal_step3 and seeds:
        lit = literal_monomial_sum(ring, seeds)
        verdict = "idempotent" if lit * lit == lit else "NOT idempotent"
        print(f"literal step-3 monomial sum: {lit} ({verdict})")
    return 0


def cmd_search(args) -> int:
    ring = _build_ring(args)
    rows = search(ring, args.K, budget=args.budget, seed=args.seed)
    shown = rows[:args.top or len(rows)]
    top = _construct_sets(ring, [row.defining_set for row in shown], args.budget)
    for row, rec in zip(shown, top):
        if rec.d != row.d:
            raise MulticyclicError(f"search ranked d = {row.d}, but the code "
                                   f"of {list(row.defining_set)} has d = {rec.d}")
    readback_check(top)
    if args.format == "json":
        print(json.dumps([record_to_dict(r) for r in top], indent=2))
    elif args.format == "csv":
        print("defining_set,K,d,product_bound,applicable,singleton_bound")
        for r in top:
            print(f"{format_defining_set(r.defining_set)},{r.K},{r.d},"
                  f"{r.product_bound},{r.bound_applicable},{r.singleton_bound}")
    else:
        print(f"search over {ring!r}, K = {args.K}: {len(rows)} candidates")
        for r in top:
            print(f"  d={r.d}  T={format_defining_set(r.defining_set)}  "
                  f"bound={r.product_bound}"
                  f"{' (applicable)' if r.bound_applicable else ''}")
    return 0


def cmd_verify(args) -> int:
    ring = _build_ring(args)
    results = property_suite(ring, seed=args.seed)
    failed = False
    for name, ok, detail in results:
        status = "pass" if ok else "FAIL"
        line = f"{name}: {status}"
        if not ok:
            line += f"  ({detail})"
            failed = True
        print(line)
    return EXIT_PROPERTY if failed else 0


def cmd_reproduce(args) -> int:
    records = reference_records()
    readback_check(records)
    print("reference table: [8, K, d]_3 codes over GF(3), lengths (2, 2, 2)")
    for rec in records:
        flag = "applicable" if rec.bound_applicable else "informational only"
        print(f"  K={rec.K}  T={format_defining_set(rec.defining_set)}  "
              f"basis size={rec.generator.rows}  d={rec.d}  "
              f"product bound {rec.product_bound} ({flag})")
    rec3 = records[0]
    print(f"idempotent (K=3): {rec3.idempotent}")
    print("generator matrix (K=3):")
    for grow in rec3.generator.array:
        print("  " + " ".join(map(str, grow)))
    mismatches = reference_mismatches(records)
    for msg in mismatches:
        print(f"MISMATCH: {msg}")
    if mismatches:
        return EXIT_MISMATCH
    print("all artifacts match")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: the handlers look up their callees per call."""
    parser = argparse.ArgumentParser(
        prog="multicyclic",
        description="Construct and analyze r-dimensional multicyclic codes over GF(p^m).")
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--format": dict(choices=("text", "json", "csv"), default="text"),
        "--seed": dict(type=int, default=0, help="seed of the random draws"),
        "--budget": dict(type=int, default=DEFAULT_BUDGET,
                         help="largest q^K for which the exact distance is computed"),
    }

    def add_ring_args(p, *flags):
        p.add_argument("--p", type=int, required=True, help="field characteristic")
        p.add_argument("--m", type=int, default=1, help="extension degree")
        p.add_argument("--modulus", default=None,
                       help="comma-separated base-p coefficients, low degree first")
        p.add_argument("--lengths", required=True,
                       help="comma-separated axis lengths n_1,...,n_r")
        for flag in flags:
            p.add_argument(flag, **options[flag])

    def add_command(name, func, help):
        # no prefix matching: `--seed` must not be read as `--seeds`
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    pc = add_command("construct", cmd_construct, "build one code from explicit seeds")
    add_ring_args(pc, "--format", "--budget")
    pc.add_argument("--seeds", required=True,
                    help='e.g. "(0,0,0);(1,0,0);(0,1,0)"')
    pc.add_argument("--literal-step3", action="store_true",
                    help="also report the literal monomial-sum diagnostic")

    ps = add_command("search", cmd_search, "rank codes of a target dimension")
    add_ring_args(ps, "--format", "--seed", "--budget")
    ps.add_argument("--K", type=int, required=True, help="target dimension")
    ps.add_argument("--top", type=int, default=10, help="rows to print (0 = all)")

    pv = add_command("verify", cmd_verify, "run the algebraic property suite")
    add_ring_args(pv, "--seed")

    add_command("reproduce", cmd_reproduce, "rebuild embedded reference artifacts")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("top", "budget"):
        value = getattr(args, flag, 0)
        if value < 0:
            print(f"error: --{flag} must be 0 or more, got {value}", file=sys.stderr)
            return EXIT_VALIDATION
    try:
        code = args.func(args)
        if sys.stdout is not None:      # None if started with fd 1 closed
            sys.stdout.flush()
    except (MulticyclicError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    except BrokenPipeError:
        # The reader of stdout closed it early (`... | head -1`).  Point
        # stdout at the null device so that the flush at exit cannot fail
        # again; see "Note on SIGPIPE" in the `signal` module's docs.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
