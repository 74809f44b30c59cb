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

