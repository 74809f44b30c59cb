import json
import time

import pytest

from multicyclic.cli import format_defining_set, main, parse_seeds


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


def test_search_negative_top_rejected(capsys):
    code, out, err = run(capsys, "search", "--p", "3", "--lengths", "2,2,2",
                         "--K", "3", "--top", "-54")
    assert code == 2 and "--top" in err
    assert out == ""


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
