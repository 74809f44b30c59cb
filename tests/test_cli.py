import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from multicyclic import Field, Ring, cli, codes, linalg, verify
from multicyclic.cli import format_defining_set, main, parse_seeds
from multicyclic.codes import SearchRow
from multicyclic.errors import MulticyclicError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_seeds():
    assert parse_seeds("(0,0,0);(1,0,0)") == [(0, 0, 0), (1, 0, 0)]
    assert parse_seeds(" ( 0 , 1 ) ; ( 1 , 1 ) ") == [(0, 1), (1, 1)]
    assert parse_seeds("(0)") == [(0,)]
    assert parse_seeds("") == []
    with pytest.raises(ValueError):
        parse_seeds("0,0,0")


def test_construct_reference(capsys):
    code, out, _ = run(capsys, "construct", "--p", "3", "--lengths", "2,2,2",
                       "--seeds", "(0,0,0);(1,0,0);(0,1,0)")
    assert code == 0
    assert "code [8, 3, 4]_3" in out
    assert "idempotent: 2x + 2y + xy + 2xz + 2yz + xyz" in out
    assert "0 2 2 0 1 2 2 1" in out
    assert "defining set: (0,0,0);(0,1,0);(1,0,0)" in out


def test_construct_json_and_csv(capsys):
    code, out, _ = run(capsys, "construct", "--p", "3", "--lengths", "2,2,2",
                       "--seeds", "(0,0,0)", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == "[8, 1, 8]_3"
    assert doc["columns"] == ["1", "x", "y", "z", "xy", "xz", "yz", "xyz"]

    code, out, _ = run(capsys, "construct", "--p", "3", "--lengths", "2,2,2",
                       "--seeds", "(0,0,0)", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1,x,y,z,xy,xz,yz,xyz"
    assert len(lines) == 2


def test_construct_repetition(capsys):
    code, out, _ = run(capsys, "construct", "--p", "3", "--lengths", "2",
                       "--seeds", "(0)")
    assert code == 0
    assert "code [2, 1, 2]_3" in out


def test_construct_empty_seeds_zero_code(capsys):
    code, out, _ = run(capsys, "construct", "--p", "3", "--lengths", "2,2",
                       "--seeds", "")
    assert code == 0
    assert "zero code" in out


def test_construct_extension_field(capsys):
    code, out, _ = run(capsys, "construct", "--p", "2", "--m", "3",
                       "--lengths", "7", "--seeds", "(0)")
    assert code == 0
    assert "[7, 1, 7]_8" in out


def test_construct_literal_step3(capsys):
    code, out, _ = run(capsys, "construct", "--p", "3", "--lengths", "2,2,2",
                       "--seeds", "(0,0,0);(1,0,0);(0,1,0)", "--literal-step3")
    assert code == 0
    assert "literal step-3 monomial sum: 1 + x + y (NOT idempotent)" in out


def test_validation_exit_codes(capsys):
    code, _, err = run(capsys, "construct", "--p", "3", "--lengths", "2",
                       "--seeds", "(5)")
    assert code == 2 and "outside box" in err

    code, _, err = run(capsys, "construct", "--p", "4", "--lengths", "2",
                       "--seeds", "(0)")
    assert code == 2 and "not prime" in err

    code, _, err = run(capsys, "construct", "--p", "3", "--lengths", "4",
                       "--seeds", "(0)")
    assert code == 3 and "does not divide" in err

    code, _, err = run(capsys, "verify", "--p", "3", "--lengths", "4")
    assert code == 3

    code, _, err = run(capsys, "search", "--p", "3", "--lengths", "2,2",
                       "--K", "5")
    assert code == 5


def test_prime_field_modulus_exit_2(capsys):
    argv = ("construct", "--p", "7", "--lengths", "6", "--seeds", "(0)")
    code, out, err = run(capsys, *argv, "--modulus", "1,0,0,5")
    assert code == 2 and out == "" and "monic of degree 1" in err
    # a monic degree-1 modulus names GF(7) itself
    assert run(capsys, *argv, "--modulus", "3,1") == run(capsys, *argv)


def test_out_of_range_field_and_ring_exit_2(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "construct", "--p", str(2 ** 61 - 1),
                       "--lengths", "2", "--seeds", "(0)")
    assert code == 2 and "outside supported range" in err
    code, _, err = run(capsys, "construct", "--p", "3",
                       "--lengths", ",".join(["2"] * 17), "--seeds", "")
    assert code == 2 and "exceeds the limit" in err
    # one long axis: its transform tables alone would need 32 GiB
    code, _, err = run(capsys, "construct", "--p", "65521",
                       "--lengths", "65520", "--seeds", "(0);(1)")
    assert code == 2 and "axis length 65520 exceeds the limit 1024" in err
    assert time.perf_counter() - start < 1.0


def test_construct_past_the_table_limit_exits_2(capsys):
    # [65536, 17]_257: a 17 x 65,536 idempotent table is over TABLE_LIMIT
    seeds = ";".join(f"(0,{i})" for i in range(17))
    code, out, err = run(capsys, "construct", "--p", "257", "--lengths",
                         "256,256", "--seeds", seeds, "--budget", "0")
    assert code == 2 and out == ""
    assert ("17 x 65536 = 1114112 idempotent coefficients exceeds the limit "
            "1048576") in err


def test_search_negative_top_rejected(capsys):
    code, out, err = run(capsys, "search", "--p", "3", "--lengths", "2,2,2",
                         "--K", "3", "--top", "-54")
    assert code == 2 and "--top" in err
    assert out == ""


@pytest.mark.parametrize("command, zero_budget_exit", [
    (("construct", "--seeds", "(0,0,0)"), 0), (("search", "--K", "3"), 4)])
def test_negative_budget_rejected(capsys, command, zero_budget_exit):
    argv = (command[0], "--p", "3", "--lengths", "2,2,2", *command[1:])
    code, out, err = run(capsys, *argv, "--budget", "-5")
    assert code == 2 and out == ""
    assert err == "error: --budget must be 0 or more, got -5\n"
    # 0 is a budget: construct skips the distance, search cannot rank
    code, _, err = run(capsys, *argv, "--budget", "0")
    assert code == zero_budget_exit and "must be 0 or more" not in err


@pytest.mark.parametrize("flag, value, bad", [
    ("--lengths", "4,,4", "'4,,4'"),
    ("--modulus", "1,a", "'1,a'"),
    ("--seeds", "(0,)", "'0,'"),
])
def test_malformed_integers_name_the_flag(capsys, flag, value, bad):
    argv = {"--p": "5", "--lengths": "4", "--seeds": "(0)", flag: value}
    code, out, err = run(capsys, "construct", *(x for kv in argv.items() for x in kv))
    assert code == 2 and out == ""
    assert err == f"error: {flag}: {bad} is not a comma-separated list of integers\n"


def test_search_reference(capsys):
    code, out, _ = run(capsys, "search", "--p", "3", "--lengths", "2,2,2",
                       "--K", "3", "--top", "5")
    assert code == 0
    assert "56 candidates" in out
    assert out.count("d=4") == 5


def test_search_full_space(capsys):
    code, out, _ = run(capsys, "search", "--p", "3", "--lengths", "2,2,2",
                       "--K", "8")
    assert code == 0
    assert "d=1" in out


def test_search_over_budget_exits_4(capsys):
    code, out, err = run(capsys, "search", "--p", "7", "--lengths", "6,6",
                         "--K", "3", "--budget", "10")
    assert code == 4
    assert out == ""
    assert "343 codewords exceed budget 10" in err


def test_search_csv(capsys):
    code, out, _ = run(capsys, "search", "--p", "5", "--lengths", "4,2",
                       "--K", "4", "--format", "csv", "--top", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("defining_set,K,d")
    assert all(",4,4," in ln for ln in lines[1:])


def test_verify_pass(capsys):
    for args in (("--p", "3", "--lengths", "2,2,2"),
                 ("--p", "5", "--lengths", "4")):
        code, out, _ = run(capsys, "verify", *args)
        assert code == 0
        assert out.count("pass") == 7
        assert "FAIL" not in out


def test_reproduce(capsys):
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    assert "all artifacts match" in out
    assert "2x + 2y + xy + 2xz + 2yz + xyz" in out
    assert "K=4" in out and "d=4" in out
    assert "informational only" in out


def test_each_command_takes_only_the_flags_it_reads(capsys):
    for argv in (
            ("construct", "--p", "3", "--lengths", "2", "--seeds", "(0)", "--seed", "1"),
            ("verify", "--p", "3", "--lengths", "2,2,2", "--format", "json"),
            ("verify", "--p", "3", "--lengths", "2,2,2", "--budget", "10"),
            ("reproduce", "--seed", "0")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


def test_parser_is_built_once_and_reused(capsys):
    assert cli.build_parser() is cli.build_parser()
    argv = ("construct", "--p", "5", "--lengths", "4,4", "--seeds", "(0,0);(1,1)")
    code, alone, _ = run(capsys, *argv)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--p", "5", "--lengths", "4,4", "--seeds", "(0,0)",
              "--seed", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *argv) == (0, alone, "")


def test_verify_property_failure_exits_6(capsys, monkeypatch):
    real = verify._idempotent_rows

    def doubled_at_1(ring, sets):
        E = real(ring, sets)
        E[0, 1] = ring.field.add(E[0, 1], E[0, 1])
        return E
    monkeypatch.setattr(verify, "_idempotent_rows", doubled_at_1)
    code, out, _ = run(capsys, "verify", "--p", "5", "--lengths", "4")
    assert code == 6
    # over GF(5), e_1 = 4 + 2x + x^2 + 3x^3, so the sum is 1 + e_1
    assert out.splitlines() == [
        "idempotence: FAIL  (e_(1,)^2 != e_(1,))",
        "orthogonality: pass",
        "partition_of_unity: FAIL  (sum = 2x + x^2 + 3x^3)",
        "delta_evaluation: FAIL  (fourier(e_(1,)) is not the delta at (1,))",
        "fourier_round_trip: pass",
        "convolution_property: pass",
        "equivalence_round_trip: pass",
    ]


@pytest.mark.parametrize("name, value, mismatch", [
    ("REFERENCE_IDEMPOTENT", "x",
     "idempotent: computed 2x + 2y + xy + 2xz + 2yz + xyz"),
    ("REFERENCE_GENERATOR", [[0] * 8] * 3,
     "generator: computed [[0, 2, 2, 0, 1, 2, 2, 1], [2, 0, 1, 2, 2, 0, 1, 2], "
     "[2, 1, 0, 2, 2, 1, 0, 2]]"),
    ("REFERENCE_ROWS", [dict(verify.REFERENCE_ROWS[0], d=5), verify.REFERENCE_ROWS[1]],
     "K=3: computed [8, 3, 4]_3, expected d=5"),
])
def test_reproduce_mismatch_exits_7(capsys, monkeypatch, name, value, mismatch):
    _, good, _ = run(capsys, "reproduce")
    monkeypatch.setattr(verify, name, value)
    code, out, _ = run(capsys, "reproduce")
    assert code == 7
    lines = out.splitlines()
    assert lines[-1] == f"MISMATCH: {mismatch}"
    assert lines[:-1] == good.splitlines()[:-1]
    assert good.splitlines()[-1] == "all artifacts match"


def test_determinism(capsys):
    args = ("search", "--p", "3", "--lengths", "2,2,2", "--K", "3",
            "--format", "json", "--top", "0")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_format_defining_set(ring3):
    from multicyclic import closure
    S = closure([(1, 0, 0), (0, 0, 0)], (2, 2, 2), 3)
    assert format_defining_set(S) == "(0,0,0);(1,0,0)"


# sha256 of `search` stdout, taken from the per-candidate search that
# constructed every candidate
SEARCH_STDOUT_SHA256 = {
    ("3", "2,2,2", "3", "text", "10"): "0f3ff630881010e7d315a8d1fd42f1759a68bc60505dab526785ab9c285bec38",
    ("3", "2,2,2", "3", "text", "0"): "b243f6633f8136da66cb82f0dfe09145356199ecc60290f52e901a28aa166580",
    ("3", "2,2,2", "3", "json", "10"): "35d3b9fbdff604169762cc4b5204c85fcb850c7a76a78e5df5ad77b256ae3d25",
    ("3", "2,2,2", "3", "json", "0"): "503cb8e2c4ffec1f0eea4ce4fcb92f335c5c7675f7a2705b618860f11d9f606f",
    ("3", "2,2,2", "3", "csv", "10"): "56e12afb8a52e5db8994017efb991de8cbc8a38a3be5c973484c814f5b1492e9",
    ("3", "2,2,2", "3", "csv", "0"): "2688e600da2fcee47a712006a2ae74baa4f73085d0f4d9e52eba511c02a89fea",
    ("5", "4,2", "4", "text", "10"): "dc614badf476e07096a61f5c9d2f15fa01db224ab3f467b6f107409328934cc8",
    ("5", "4,2", "4", "text", "0"): "25f80648ddc12032a1e1589c7d78d9bb407d7398873346fb94a0307c003e640a",
    ("5", "4,2", "4", "json", "10"): "f7521aac6d0b3a77506954d35b0371dd5bc2fab604ce9743e114fccf20ac3074",
    ("5", "4,2", "4", "json", "0"): "3174b6c0d49943f726a4bc3d1ca49bf9332599600aee296860f105149c1330cb",
    ("5", "4,2", "4", "csv", "10"): "15363db8a3e81f85c102216d043dc1d24f7d1195a195555292ee9ad0cf95c2fe",
    ("5", "4,2", "4", "csv", "0"): "ce188bbcbf8d9e25230afd259a90ce8f0bc5f5db20c326701b3035cec95ac76b",
}


@pytest.mark.parametrize("p, lengths, K, fmt, top", SEARCH_STDOUT_SHA256)
def test_search_stdout_pinned(capsys, p, lengths, K, fmt, top):
    code, out, _ = run(capsys, "search", "--p", p, "--lengths", lengths,
                       "--K", K, "--format", fmt, "--top", top)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == SEARCH_STDOUT_SHA256[p, lengths, K, fmt, top]


# sha256 of `construct` stdout on the two N = 4,096 rings of the big-ring
# benchmark, taken when e was the inverse transform of the indicator of S
# and the generator rows were shifted copies of e
CONSTRUCT_STDOUT_SHA256 = {
    ("--p", "17", "--lengths", "16,16,16", "--seeds", "(0,0,0);(1,0,0)"): {
        "text": "121c2d2572d99b4cdd5cfbee03167c145ba0008e2511b3d9855565c0846fed15",
        "json": "c577f83812ff632c195a73c1d248a34cb5ec065a4e33ecc74af4e63141ceaa8d",
        "csv": "03285e310624ee762ad48d09a68f65c67151223985fc1ec545cf939660bdec11",
    },
    ("--p", "3", "--m", "2", "--lengths", "8,8,8,8", "--seeds", "(0,0,0,0);(1,0,0,0)"): {
        "text": "9289f053c3f629498f8129429dccc8ec620ee38d54331faf5bbe65f1cef115f7",
        "json": "ffbac939c49d4b73d28f8167b229d4c5abd7b2797328f3956a96b2bebfe557fe",
        "csv": "cd9b95b50f35c6068863c20f37a57f4340eb3a9a6df614a4de0b352e8c873bbf",
    },
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv", CONSTRUCT_STDOUT_SHA256, ids=lambda a: a[-3])
def test_construct_stdout_pinned(capsys, argv, fmt):
    code, out, _ = run(capsys, "construct", *argv, "--format", fmt)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == CONSTRUCT_STDOUT_SHA256[argv][fmt]


def test_search_constructs_only_printed_rows(capsys, monkeypatch):
    built = []
    real = cli._construct_sets

    def counting(ring, sets, budget):
        built.extend(sets)
        return real(ring, sets, budget)

    monkeypatch.setattr(cli, "_construct_sets", counting)
    code, out, _ = run(capsys, "search", "--p", "5", "--lengths", "4,2",
                       "--K", "4", "--top", "3")
    assert code == 0 and "70 candidates" in out
    assert len(built) == 3


def test_every_rank_check_is_one_elimination(monkeypatch):
    # construct eliminates the basis prefix and G, the read-back G again:
    # dropping either rank check changes the count
    eliminated = []
    real = linalg.pivot_columns

    def counting(M):
        eliminated.append(M)
        return real(M)
    monkeypatch.setattr(linalg, "pivot_columns", counting)
    monkeypatch.setattr(codes, "pivot_columns", counting)
    rec = codes.construct(Ring(Field(5), (4, 4)), [(0, 0), (1, 1)])
    assert len(eliminated) == 2 and eliminated[1] is rec.generator
    cli.readback_check([rec])
    assert len(eliminated) == 3 and eliminated[2] is rec.generator
    # a stack of two: each basis prefix, then each G, in the builder and
    # again in the read-back
    eliminated.clear()
    recs = codes._construct_sets(rec.ring, [((0, 0), (1, 1)), ((0, 1), (2, 3))],
                                 codes.DEFAULT_BUDGET)
    cli.readback_check(recs)
    assert len(eliminated) == 6
    assert [m is r.generator for m, r in zip(eliminated[2:], recs * 2)] == [True] * 4


def _with_row(rec, i, row):
    G = rec.generator.array.copy()
    G[i] = row
    return dataclasses.replace(rec, generator=linalg.GfMatrix(rec.ring.field, G))


def test_readback_catches_a_corrupted_row_inside_a_stack():
    ring = Ring(Field(7), (6, 6))
    sets = [row.defining_set for row in codes.search(ring, 3)[:5]]
    recs = codes._construct_sets(ring, sets, codes.DEFAULT_BUDGET)
    cli.readback_check(recs)
    # row 1 of the middle record gains a row of the last one: the rank
    # holds, but its spectrum leaves the middle defining set
    G = recs[2].generator.array
    moved = ring.field.add(G[1], recs[4].generator.array[0])
    bad = recs[:2] + [_with_row(recs[2], 1, moved)] + recs[3:]
    assert linalg.rank(bad[2].generator) == 3
    with pytest.raises(MulticyclicError, match="spectrum leaves the defining set"):
        cli.readback_check(bad)
    # a row copied from another row of the same record drops the rank
    bad[2] = _with_row(recs[2], 1, G[0])
    with pytest.raises(MulticyclicError, match="rank mismatch"):
        cli.readback_check(bad)


def test_search_readback_failure_prints_nothing(capsys, monkeypatch):
    def fail(rec):
        raise MulticyclicError("read-back: rank mismatch")
    monkeypatch.setattr(cli, "readback_check", fail)
    for fmt in ("text", "json", "csv"):
        code, out, err = run(capsys, "search", "--p", "3", "--lengths", "2,2,2",
                             "--K", "3", "--format", fmt)
        assert code == 2 and out == ""
        assert "read-back" in err


def test_search_distance_mismatch_exits_2(capsys, monkeypatch):
    real = cli.search

    def off_by_one(ring, K, budget, seed):
        return [SearchRow(r.defining_set, r.K, r.d + 1)
                for r in real(ring, K, budget=budget, seed=seed)]
    monkeypatch.setattr(cli, "search", off_by_one)
    code, out, err = run(capsys, "search", "--p", "3", "--lengths", "2,2,2",
                         "--K", "3")
    assert code == 2 and out == ""
    assert "d = 5" in err and "d = 4" in err
    assert err == ("error: search ranked d = 5, but the code of "
                   "[(0, 0, 0), (0, 0, 1), (0, 1, 0)] has d = 4\n")


def test_search_forms_only_the_printed_rows(capsys, monkeypatch):
    formed = []

    def counting_row(*args):
        formed.append(args)
        return SearchRow(*args)
    monkeypatch.setattr(codes, "SearchRow", counting_row)
    code, out, _ = run(capsys, "search", "--p", "7", "--lengths", "6,6",
                       "--K", "3", "--top", "3")
    assert code == 0
    assert out.startswith("search over") and "7140 candidates" in out
    assert out.count("  d=30  T=") == 3
    assert len(formed) <= 3


# sha256 of `reproduce` stdout and of `verify` stdout (seven "pass" lines on
# every ring and seed), taken when both commands lived wholly in the CLI
REPRODUCE_STDOUT_SHA256 = "d1bd46864f1c3636d2b587acb118faa2ff91b964b2ca271efc518d2acf864776"
VERIFY_STDOUT_SHA256 = "d2a86e7f4de8d062c26f4bc0bd1ad8bab306062361d813bf501824cffc5fa3ff"


def test_reproduce_stdout_pinned(capsys):
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPRODUCE_STDOUT_SHA256


@pytest.mark.parametrize("seed", ["0", "3"])
@pytest.mark.parametrize("ring", [("--p", "3", "--lengths", "2,2,2"),
                                  ("--p", "5", "--lengths", "4"),
                                  ("--p", "2", "--m", "3", "--lengths", "7"),
                                  ("--p", "7", "--lengths", "6,6")], ids=str)
def test_verify_stdout_pinned(capsys, ring, seed):
    code, out, _ = run(capsys, "verify", *ring, "--seed", seed)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256


# sha256 of `construct` stdout on rings with more than three axes, whose
# column names are x1, x2, ..., taken when each printer built the names itself
CONSTRUCT_WIDE_STDOUT_SHA256 = {
    ("--p", "3", "--m", "2", "--lengths", "8,8,8,8", "--seeds", "(0,0,0,0);(1,0,0,0)"): {
        "text": "9289f053c3f629498f8129429dccc8ec620ee38d54331faf5bbe65f1cef115f7",
        "json": "ffbac939c49d4b73d28f8167b229d4c5abd7b2797328f3956a96b2bebfe557fe",
        "csv": "cd9b95b50f35c6068863c20f37a57f4340eb3a9a6df614a4de0b352e8c873bbf",
    },
    ("--p", "11", "--lengths", "5,2,1,1,1", "--seeds", "(0,0,0,0,0);(1,1,0,0,0)"): {
        "text": "8442cc090751751bf8f19d8efd4e2a2e48b8eb6a24e1c017c8c317774b3fcf4f",
        "json": "e2526d89565df338cb418bcc460bd887220d2d944aba94b71563897689227340",
        "csv": "767245b203cab781de5544ccc78a08929e787e05f411ea43bee186f455955032",
    },
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv", CONSTRUCT_WIDE_STDOUT_SHA256, ids=lambda a: a[-3])
def test_construct_wide_ring_stdout_pinned(capsys, argv, fmt):
    code, out, _ = run(capsys, "construct", *argv, "--format", fmt)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == CONSTRUCT_WIDE_STDOUT_SHA256[argv][fmt]


def _cli_process(argv, stdout, preexec_fn=None):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    return subprocess.run([sys.executable, "-m", "multicyclic.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=env, preexec_fn=preexec_fn, timeout=60)


@pytest.mark.parametrize("argv", [
    ("construct", "--p", "3", "--m", "2", "--lengths", "8,8,8,8",
     "--seeds", "(0,0,0,0);(1,0,0,0)"),
    ("reproduce",),
], ids=lambda a: a[0])
def test_stdout_closed_by_reader_exits_1(argv):
    # the pipe has no reader from the start, so every write to it fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_process(argv, write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception" not in proc.stderr


def test_started_without_stdout_exits_0():
    # with fd 1 closed, sys.stdout is None and print writes nothing
    proc = _cli_process(("reproduce",), None, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 0, proc.stderr


# OpenBLAS starts no thread pool on one core, and threads are counted in
# /proc/self/task
needs_blas_pool = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or os.cpu_count() == 1,
    reason="needs /proc/self/task and two or more cores")


def _import_report(first="", **preset):
    """Import `first`, then multicyclic.cli, in a fresh interpreter whose
    environment holds `preset`; return its thread count, the value of
    OPENBLAS_NUM_THREADS and whether the import left os.environ as it was."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(preset, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    code = (f"import json, os\n{first}\nbefore = dict(os.environ)\n"
            "import multicyclic.cli\n"
            "print(json.dumps([len(os.listdir('/proc/self/task')), "
            "os.environ.get('OPENBLAS_NUM_THREADS'), dict(os.environ) == before]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@needs_blas_pool
def test_import_starts_blas_with_one_thread():
    threads, value, unchanged = _import_report()
    assert threads == 1 and value is None and unchanged


@needs_blas_pool
def test_import_keeps_the_callers_blas_thread_count():
    _, value, unchanged = _import_report(OPENBLAS_NUM_THREADS="2")
    assert value == "2" and unchanged


@needs_blas_pool
def test_import_after_numpy_leaves_the_environment():
    _, value, unchanged = _import_report("import numpy")
    assert value is None and unchanged
