import stabc
from stabc import charfun, weyl

PRUNED = ("WeylOperator", "is_clifford", "omega", "weyl_op", "weyl_stack")


def test_all_is_sorted_unique_and_resolves():
    names = stabc.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(stabc, name), name


def test_pruned_names_are_not_exported():
    for name in PRUNED:
        assert name not in stabc.__all__
        assert not hasattr(stabc, name)
        assert not hasattr(weyl, name)
    assert not hasattr(charfun.CharTable, "moduli")
