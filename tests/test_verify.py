"""Work-shape guards on the verify suites: how often they call the state
samplers and the Weyl operator builder."""

import pytest

from stabc import verify, weyl

SAMPLERS = ("random_pure", "random_mixed", "random_pure_stack", "random_mixed_stack",
            "random_rank_mixed_stack")


def _count_calls(monkeypatch, modules, name, counter):
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("suite", ["bounds", "charfun", "complementarity", "stabilizers",
                                   "tradeoff", "dual-path", "clifford"])
def test_suites_draw_samples_per_block_not_per_state(monkeypatch, suite):
    # 40 samples per dimension: a per-state draw would make at least 40 calls
    # per dimension.  Blocks take at most 3 calls per dimension, plus the
    # clifford suite's Haar control of at most 16 single draws.
    calls = [0]
    for name in SAMPLERS:
        _count_calls(monkeypatch, [verify], name, calls)
    dims = (2, 3)
    rows = verify.SUITES[suite](dims=dims, samples=40, seed=0)
    assert rows and all(r.passed for r in rows), rows
    assert 1 <= calls[0] <= 17 * len(dims)


def test_weyl_suite_builds_each_operator_once_per_row(monkeypatch):
    calls, phases = [0], [0]
    _count_calls(monkeypatch, [weyl, verify], "weyl_matrix", calls)
    _count_calls(monkeypatch, [verify], "weyl_product_phase", phases)
    dims = (2, 3, 4, 5, 7)
    rows = verify.suite_weyl(dims=dims)
    assert all(r.passed for r in rows), rows
    assert calls[0] <= 3 * sum(d * d for d in dims)
    # The product-law and exponent-law rows share one walk over the d^4
    # index quadruples.
    assert phases[0] == sum(d**4 for d in dims)
