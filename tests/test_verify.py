import pytest

from multicyclic import Field, Ring, verify
from multicyclic.cli import main
from multicyclic.codes import TABLE_LIMIT
from multicyclic.errors import RingTooLarge
from multicyclic.verify import property_suite


class Sentinel(Exception):
    """Raised by a patched idempotent builder: the suite got past its guard."""


@pytest.fixture
def no_idempotents(monkeypatch):
    def sentinel(ring, index):
        raise Sentinel
    monkeypatch.setattr(verify, "primitive_idempotent", sentinel)


def test_property_suite_refuses_rings_past_table_limit(no_idempotents):
    # N = 1,024 holds N^2 = TABLE_LIMIT coefficients: the suite starts
    assert 1024 ** 2 == TABLE_LIMIT
    with pytest.raises(Sentinel):
        property_suite(Ring(Field(97), (32, 32)))
    with pytest.raises(RingTooLarge, match="N = 1536"):
        property_suite(Ring(Field(97), (32, 48)))


def test_verify_cli_exits_2_before_building_idempotents(capsys, no_idempotents):
    # a legal ring (N = 65,536 = MAX_N) whose N^2 idempotent table is 32 GiB
    assert main(["verify", "--p", "257", "--lengths", "256,256"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "N^2 = 4294967296 coefficients exceeds the limit 1048576" in out.err



def test_orthogonality_reports_the_first_failing_pair(monkeypatch):
    # e_2 + e_6 and e_4 + e_6 stay idempotent but share e_6: the pairs
    # (2, 4), (2, 6) and (4, 6) fail, and (2, 4) comes first
    ring = Ring(Field(3), (2, 2, 2))
    m = ring.monomials
    build = verify.primitive_idempotent

    def overlapping(ring, index):
        e = build(ring, index)
        return e + build(ring, m[6]) if index in (m[2], m[4]) else e

    monkeypatch.setattr(verify, "primitive_idempotent", overlapping)
    results = {name: (ok, detail) for name, ok, detail in property_suite(ring)}
    assert results["idempotence"] == (True, "")
    assert results["orthogonality"] == (False, f"e_{m[2]} * e_{m[4]} != 0")
