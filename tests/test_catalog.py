import json

import pytest

from eqlarge.catalog import (
    alternating,
    catalog,
    catalog_upto,
    cyclic,
    dihedral,
    elementary_abelian,
    heisenberg,
    parse_group_list,
    quaternion,
    symmetric,
)
from eqlarge.errors import NotAPermutation, OrderBound, UnknownSpec
from eqlarge.group import (
    PERM_CLOSURE_CAP,
    center,
    exponent,
    is_abelian,
    nilpotency_class,
)


def test_family_orders():
    assert cyclic(6).order == 6
    assert dihedral(4).order == 8
    assert symmetric(4).order == 24
    assert alternating(4).order == 12
    assert quaternion().order == 8
    assert elementary_abelian(2, 3).order == 8
    assert heisenberg(3).order == 27


def test_spec_strings():
    assert catalog("C6").order == 6
    assert catalog("D4").order == 8
    V = catalog("C2xC2")
    assert V.order == 4
    assert exponent(V) == 2
    assert catalog("E3^2").order == 9


def test_dihedral_label_means_order_2n():
    for n in (3, 4, 5, 8):
        assert catalog(f"D{n}").order == 2 * n


def test_unknown_spec_suggests():
    with pytest.raises(UnknownSpec) as err:
        catalog("Z7")
    assert "C7" in str(err.value)


def test_perm_spec_inline():
    G = catalog("perm:3:(1 2 3);(1 2)")
    assert G.order == 6
    with pytest.raises(NotAPermutation):
        catalog("perm:3:(1 1 2)")


def test_table_file_spec(tmp_path):
    path = tmp_path / "klein.json"
    path.write_text(json.dumps({
        "label": "V",
        "order": 4,
        "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
        "names": ["e", "a", "b", "ab"],
    }))
    G = catalog(f"@{path}")
    assert G.order == 4
    assert G.label == "V"
    assert G.name(3) == "ab"
    assert is_abelian(G)


def test_catalog_upto_16():
    groups = parse_group_list("catalog<=16")
    assert len(groups) == 30
    assert [g.label for g in groups[:4]] == ["C1", "C2", "C3", "C4"]
    assert all(g.order <= 16 for g in groups)
    labels = [g.label for g in groups]
    assert "Q8" in labels and "H2" in labels and "E2^4" in labels


def test_catalog_upto_24():
    groups = parse_group_list("catalog<=24")
    assert len(groups) == 43
    assert all(g.order <= 24 for g in groups)
    labels = [g.label for g in groups]
    assert "S4" in labels and "D12" in labels
    # expansion is deterministic and canonical
    again = [g.label for g in parse_group_list("catalog<=24")]
    assert labels == again


def test_group_list_parsing():
    groups = parse_group_list("C2,S3,D4")
    assert [g.label for g in groups] == ["C2", "S3", "D4"]


def test_heisenberg_is_class_two():
    H = catalog("H3")
    assert H.order == 27
    assert nilpotency_class(H) == 2
    assert center(H).size == 3
    assert exponent(H) == 3


def test_catalog_upto_function_matches_spec_string():
    assert ([g.label for g in catalog_upto(16)]
            == [g.label for g in parse_group_list("catalog<=16")])


# the sweeps as they expanded before the sweep bound, label for label
CATALOG_16 = (
    [f"C{n}" for n in range(1, 17)] + [f"D{n}" for n in range(3, 9)]
    + ["S3", "A4", "Q8", "E2^2", "E2^3", "E2^4", "E3^2", "H2"])
CATALOG_24 = (
    [f"C{n}" for n in range(1, 25)] + [f"D{n}" for n in range(3, 13)]
    + ["S3", "S4", "A4", "Q8", "E2^2", "E2^3", "E2^4", "E3^2", "H2"])


def test_sweep_bound_keeps_the_documented_sweeps():
    assert [g.label for g in catalog_upto(16)] == CATALOG_16
    assert [g.label for g in catalog_upto(24)] == CATALOG_24


def test_sweep_bound_counts_the_whole_sweep():
    # catalog<=202 holds 4,221,284 table entries, past 2048**2 = 4,194,304,
    # although each member is far below the cap
    assert 202 < PERM_CLOSURE_CAP
    for n in (202, 300, PERM_CLOSURE_CAP):
        with pytest.raises(OrderBound, match="size cap"):
            catalog_upto(n)
