"""The benchmark's workloads: the CLI commands each one runs, the work each
command stands for, and the checks its output must pass.

Only what the mathematics fixes is checked: the exit code, the winning
code of a search (its d and defining set), and the parameters and
defining set of a constructed code.  Candidate counts, the order of rows
after the winner and extra record fields may legitimately change.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from typing import Callable, Optional

WORKLOADS = ("search", "distance", "big-ring")

# (p, m, lengths, K, best d, defining set of the best code)
_SEARCHES = [
    (7, 1, (6, 6), 3, 30, "(0,0);(0,1);(1,0)"),
    (5, 1, (4, 4), 4, 10, "(0,0);(0,1);(1,0);(3,3)"),
]

# (p, m, lengths, seeds, expected [n, K, d]_q)
_CONSTRUCTS = {
    "distance": [
        (2, 4, (15, 15), [(0, 0), (1, 0), (0, 1), (1, 1)], "[225, 4, 196]_16"),
        (2, 3, (7, 7), [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)],
         "[49, 6, 30]_8"),
        (3, 2, (8, 8), [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)],
         "[64, 6, 42]_9"),
        (13, 1, (12, 12), [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)],
         "[144, 5, 120]_13"),
    ],
    "big-ring": [
        (17, 1, (16, 16, 16), [(0, 0, 0), (1, 0, 0)], "[4096, 2, 3840]_17"),
        (3, 2, (8, 8, 8, 8), [(0, 0, 0, 0), (1, 0, 0, 0)], "[4096, 2, 3584]_9"),
    ],
}

# The reference [8, 3, 4]_3 search, appended to the construct workloads so
# that every layer, search and orbit enumeration included, runs on every
# workload.  It takes about 0.04 s and its work is not counted.
_REFERENCE_SEARCH = (3, 1, (2, 2, 2), 3, 4, "(0,0,0);(0,0,1);(0,1,0)")

# Unit of the work each workload counts for work_per_s.
WORK_UNIT = {
    "search": "K-subsets/s",
    "distance": "codewords/s",
    "big-ring": "coeffs/s",
}

_ROW_RE = re.compile(r"^\s+d=(\S+)\s+T=(\S+)", re.MULTILINE)


@dataclass(frozen=True)
class Command:
    argv: tuple
    work: int                                  # units of WORK_UNIT
    check: Callable[[str], Optional[str]]      # stdout -> error or None


def search_space(lengths, q: int, K: int) -> int:
    """Number of unions of q-orbits of the index box with total size K.

    Orbit sizes are worked out here, independently of the library."""
    sizes = []
    seen = set()
    for idx in itertools.product(*(range(n) for n in lengths)):
        if idx in seen:
            continue
        orbit = {idx}
        cur = tuple((q * i) % n for i, n in zip(idx, lengths))
        while cur != idx:
            orbit.add(cur)
            cur = tuple((q * i) % n for i, n in zip(cur, lengths))
        seen |= orbit
        sizes.append(len(orbit))
    ways = [1] + [0] * K              # ways[s] = subsets so far summing to s
    for size in sizes:
        for s in range(K, size - 1, -1):
            ways[s] += ways[s - size]
    return ways[K]


def _fmt(indices) -> str:
    return ";".join("(" + ",".join(map(str, i)) + ")" for i in sorted(indices))


def _ring_args(p, m, lengths):
    return ["--p", str(p), "--m", str(m), "--lengths", ",".join(map(str, lengths))]


def _check_search(d: int, T: str):
    def check(stdout: str):
        row = _ROW_RE.search(stdout)
        if row is None:
            return "no ranked row in search output"
        if row.group(1) != str(d) or row.group(2) != T:
            return f"best row d={row.group(1)} T={row.group(2)}, expected d={d} T={T}"
        return None
    return check


def _check_construct(params: str, defining: str):
    def check(stdout: str):
        lines = stdout.splitlines()
        if not lines or lines[0] != f"code {params}":
            return f"first line {lines[:1]}, expected 'code {params}'"
        if f"defining set: {defining}" not in lines:
            return f"defining set is not {defining}"
        return None
    return check


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's command list for one seed.

    The seed translates each constructed defining set by a per-axis offset.
    A translate multiplies every codeword by a character, a monomial
    equivalence, so the parameters and the cost do not change.  `search`
    is exhaustive and ignores the seed."""
    if workload == "search":
        return [_search(*row, counted=True) for row in _SEARCHES]
    rng = random.Random(seed)
    out = []
    for p, m, lengths, seeds, params in _CONSTRUCTS[workload]:
        offset = [rng.randrange(n) for n in lengths]
        moved = [tuple((i + o) % n for i, o, n in zip(s, offset, lengths))
                 for s in seeds]
        q = p ** m
        work = math.prod(lengths) if workload == "big-ring" else q ** len(seeds) - 1
        out.append(Command(
            argv=("construct", *_ring_args(p, m, lengths), "--seeds", _fmt(moved)),
            work=work,
            check=_check_construct(params, _fmt(moved))))
    return out + [_search(*_REFERENCE_SEARCH, counted=False)]


def _search(p, m, lengths, K, d, T, counted):
    return Command(argv=("search", *_ring_args(p, m, lengths), "--K", str(K)),
                   work=search_space(lengths, p ** m, K) if counted else 0,
                   check=_check_search(d, T))
