"""Tests of the benchmark itself: output checks, workload seeds, the
tracer and its exact counters.  Run with `python3 -m pytest perfbench`."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads
from tracing import EXACT, PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

REF_CONSTRUCT = ["construct", "--p", "3", "--lengths", "2,2,2",
                 "--seeds", "(0,0,0);(1,0,0);(0,1,0)"]
REF_SEARCH = ["search", "--p", "3", "--lengths", "2,2,2", "--K", "3"]


def _traced(*argvs):
    from multicyclic.cli import main
    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            for argv in argvs:
                assert main(argv) == 0
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return tracer, tracer.metrics(wall), out.getvalue()


def test_reference_construct_counters_by_hand():
    # [8, 3, 4]_3 over 2x2x2: q^K - 1 = 26 nonzero codewords.  Field.dot
    # multiply-accumulates: min_distance 26 messages x 3 rows x 8 columns
    # = 624, the idempotent's inverse transform 8 x 8 = 64, and the
    # CLI read-back transforms each of the 3 generator rows, 3 x 64 = 192.
    _, m, _ = _traced(REF_CONSTRUCT)
    assert m["codes.min_distance.codewords"] == 26
    assert m["gf.dot.macs"] == 624 + 64 + 192
    assert m["codes.construct.calls"] == 1
    assert m["codes.min_distance.calls"] == 1
    assert m["spectral.idempotent.calls"] == 1
    assert m["spectral.fourier.calls"] == 3
    assert m["cli.readback.calls"] == 1
    assert m["codes.search.candidates"] == 0
    assert m["codes.search.constructs_per_candidate"] == 0


def test_reference_search_counters_by_hand():
    # All orbits are singletons, so the K = 3 search space is C(8, 3) = 56
    # codes, each built once: 56 x 26 codewords, 56 x (624 + 64) macs, and
    # the read-back of the 10 printed rows transforms 10 x 3 rows of 64.
    _, m, _ = _traced(REF_SEARCH)
    assert m["codes.search.candidates"] == 56
    assert m["codes.construct.calls"] == 56
    assert m["codes.search.constructs_per_candidate"] == 1.0
    assert m["codes.min_distance.codewords"] == 56 * 26
    assert m["gf.dot.macs"] == 56 * (624 + 64) + 10 * 3 * 64


def test_every_per_layer_metric_is_reported():
    _, m, _ = _traced(REF_CONSTRUCT)
    assert set(PER_LAYER) - {"trace.overhead_frac"} <= set(m)
    assert all(m[name] > 0 for name in (
        "gf.dot.s", "gf.init.s", "ring.init.s", "spectral.idempotent.s",
        "orbits.closure.s", "linalg.rref.s", "linalg.reducer.s",
        "codes.k_profile.s", "codes.basis.s", "cli.emit.s", "trace.untraced.s"))


def test_tracing_keeps_output_and_uninstalls():
    from multicyclic import cli, codes, gf
    from multicyclic.cli import main
    before = (codes.construct, cli.fourier, gf.Field.dot)
    plain = io.StringIO()
    with contextlib.redirect_stdout(plain):
        main(REF_CONSTRUCT)
    _, _, traced_out = _traced(REF_CONSTRUCT)
    assert traced_out == plain.getvalue()
    assert (codes.construct, cli.fourier, gf.Field.dot) == before


def test_nested_calls_within_a_hot_layer_count_once():
    from multicyclic import Field
    fld = Field(3, 2)
    tracer = Tracer()
    tracer.install()
    try:
        fld.sub([1, 2, 3], [4, 5, 6])       # calls add and neg inside
    finally:
        tracer.uninstall()
    calls, dur, self_s = tracer.totals()["gf.addsub"]
    assert calls == 1 and 0 <= self_s <= dur


def test_self_time_excludes_children():
    tracer, m, _ = _traced(REF_CONSTRUCT)
    spans = {s[0]: s for s in tracer.spans}
    (construct,) = [s for s in tracer.spans if s[3] == "codes.construct"]
    children = [s for s in tracer.spans if s[1] == construct[0]]
    assert {s[3] for s in children} >= {"orbits.closure", "spectral.idempotent",
                                         "codes.k_profile", "codes.min_distance"}
    child_s = sum(s[5] - s[4] for s in children)
    assert construct[6] <= construct[5] - construct[4] - child_s + 1e-9
    assert all(s[1] is None or s[1] in spans for s in tracer.spans)


def test_spans_are_written_out(tmp_path):
    tracer, _, _ = _traced(REF_CONSTRUCT)
    tracer.dump(tmp_path / "spans.json")
    doc = json.loads((tmp_path / "spans.json").read_text())
    assert len(doc["spans"]) == len(tracer.spans)
    assert {row[1] for row in doc["hot"]} >= {"gf.dot", "ring.poly", "linalg.reducer"}
    assert doc["counts"]["codes.min_distance.codewords"] == 26


def test_exact_counters_repeat_between_runs(tmp_path):
    cmds = [REF_CONSTRUCT, ["search", "--p", "5", "--lengths", "4,4", "--K", "2"]]
    spec = json.dumps({"commands": cmds, "trace": True, "spans": None})
    reports = []
    for _ in range(2):
        out = subprocess.run([sys.executable, str(HERE / "worker.py"), spec],
                             cwd=ROOT, env=run.worker_env(), capture_output=True,
                             text=True, timeout=120, check=True)
        reports.append(json.loads(out.stdout.strip().splitlines()[-1]))
    first, second = ({k: r["layers"][k] for k in EXACT} for r in reports)
    assert first == second
    assert first["codes.search.candidates"] == 120          # C(16, 2)


def test_search_space_counts_orbit_unions():
    assert workloads.search_space((6, 6), 7, 3) == 7140
    assert workloads.search_space((4, 4), 5, 4) == 1820
    # multiplier 2 on length 7: orbits {0}, {1,2,4}, {3,5,6}
    assert workloads.search_space((7,), 2, 3) == 2
    assert workloads.search_space((7,), 2, 4) == 2
    assert workloads.search_space((7,), 2, 2) == 0


def test_workload_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        a = [c.argv for c in workloads.commands(name, 5)]
        assert a == [c.argv for c in workloads.commands(name, 5)]
    assert ([c.argv for c in workloads.commands("search", 1)]
            == [c.argv for c in workloads.commands("search", 2)])
    moved = {tuple(c.argv for c in workloads.commands("distance", s)) for s in range(4)}
    assert len(moved) > 1
    work = {name: sum(c.work for c in workloads.commands(name, 0))
            for name in workloads.WORKLOADS}
    assert work == {"search": 8960,
                    "distance": 16**4 + 8**6 + 9**6 + 13**5 - 4,
                    "big-ring": 2 * 4096}


def test_output_checks_reject_wrong_results():
    search = workloads.commands("search", 0)[0].check
    good = ("search over Ring(GF(7), lengths=(6, 6)), K = 3: 7140 candidates\n"
            "  d=30  T=(0,0);(0,1);(1,0)  bound=25\n")
    assert search(good) is None
    assert search(good.replace("d=30", "d=29")) is not None
    assert search(good.replace("(1,0)  ", "(1,1)  ")) is not None
    assert search("") is not None
    cmd = workloads.commands("distance", 0)[0]
    seeds = cmd.argv[cmd.argv.index("--seeds") + 1]
    good = f"code [225, 4, 196]_16\nfield: GF(2^4)\ndefining set: {seeds}\n"
    assert cmd.check(good) is None
    assert cmd.check(good.replace("196", "195")) is not None
    assert cmd.check(good.replace(seeds, "(0,0)")) is not None


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_commands_are_valid_cli_invocations(workload):
    from multicyclic.cli import build_parser
    for cmd in workloads.commands(workload, 3):
        build_parser().parse_args(list(cmd.argv))
