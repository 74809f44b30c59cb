import tracemalloc

import pytest

from multicyclic import Field, Ring, verify
from multicyclic.cli import main
from multicyclic.codes import TABLE_LIMIT
from multicyclic.errors import RingTooLarge
from multicyclic.verify import property_suite


class Sentinel(Exception):
    """Raised after the real idempotent table is built: the suite got past
    the table's size check."""


@pytest.fixture
def no_idempotents(monkeypatch):
    real = verify._idempotent_rows
    built = []

    def sentinel(ring, sets):
        built.append(real(ring, sets).shape)
        raise Sentinel
    monkeypatch.setattr(verify, "_idempotent_rows", sentinel)
    return built


def test_property_suite_refuses_rings_past_table_limit(no_idempotents):
    # N = 1,024 holds N^2 = TABLE_LIMIT coefficients: the suite starts
    assert 1024 ** 2 == TABLE_LIMIT
    with pytest.raises(Sentinel):
        property_suite(Ring(Field(97), (32, 32)))
    assert no_idempotents == [(1, 1024, 1024)]
    ring = Ring(Field(97), (32, 48))
    tracemalloc.start()
    try:
        with pytest.raises(RingTooLarge, match="1536 x 1536 = 2359296"):
            property_suite(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert no_idempotents == [(1, 1024, 1024)]
    assert peak < 2 ** 20


def test_verify_cli_exits_2_before_building_idempotents(capsys, no_idempotents):
    # a legal ring (N = 65,536 = MAX_N) whose N^2 idempotent table is 32 GiB
    assert main(["verify", "--p", "257", "--lengths", "256,256"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert ("K x N = 65536 x 65536 = 4294967296 idempotent coefficients "
            "exceeds the limit 1048576") in out.err
    assert no_idempotents == []


def test_orthogonality_reports_the_first_failing_pair(monkeypatch):
    # e_2 + e_6 and e_4 + e_6 stay idempotent but share e_6: the pairs
    # (2, 4), (2, 6) and (4, 6) fail, and (2, 4) comes first
    ring = Ring(Field(3), (2, 2, 2))
    m = ring.monomials
    build = verify._idempotent_rows

    def overlapping(ring, sets):
        E = build(ring, sets)
        E[0, [2, 4]] = ring.field.add(E[0, [2, 4]], E[0, 6])
        return E

    monkeypatch.setattr(verify, "_idempotent_rows", overlapping)
    results = {name: (ok, detail) for name, ok, detail in property_suite(ring)}
    assert results["idempotence"] == (True, "")
    assert results["orthogonality"] == (False, f"e_{m[2]} * e_{m[4]} != 0")
