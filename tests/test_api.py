import ast
import dataclasses
import inspect
import textwrap
from pathlib import Path

import numpy as np
import pytest
from helpers import count_calls

import stabc
from stabc import DensityState, charfun, cli, complexity, matcore, states, verify, weyl

PRUNED = (
    "WeylOperator", "hermitian_eig", "hs_inner", "is_clifford", "omega", "weyl_op", "weyl_stack",
)


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
        assert not hasattr(matcore, name)
    assert not hasattr(charfun.CharTable, "moduli")


def _fourth_powers(module) -> set[str]:
    """Names of the functions of ``module`` that raise something to a literal 4th power."""
    found = set()
    for func in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                        and isinstance(node.right, ast.Constant) and node.right.value == 4):
                    found.add(f"{module.__name__.rsplit('.', 1)[-1]}.{func.name}")
    return found


def _weyl_matrix_callers() -> set[str]:
    """Functions of the package's modules, weyl_matrix itself aside, that call weyl_matrix."""
    found = set()
    for path in Path(stabc.__file__).parent.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef) and func.name != "weyl_matrix":
                for node in ast.walk(func):
                    if isinstance(node, ast.Call) and "weyl_matrix" in (
                            getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                        found.add(f"{path.stem}.{func.name}")
    return found


def test_second_implementations_are_gone():
    # One rank-r Ginibre sampler and one pure-state rule.
    assert not hasattr(matcore, "_ginibre_density_batch")
    assert not hasattr(matcore, "EIG_HERMITIAN_TOL")
    # One trace bound: a state table's c(0,0) is the state's trace.
    assert not hasattr(charfun, "_STATE_TRACE_TOL")
    assert not hasattr(complexity, "_PURITY_THRESHOLD")
    # The report's trade-off check compared (1 + x) + (1 - x) with 2.
    assert not hasattr(complexity, "_TRADEOFF_TOL")
    # One purity rule over stacks, and one report kernel: the suites call it
    # on whole blocks, not complexity_report on one member.
    assert not hasattr(matcore, "_pure_rule")
    assert not hasattr(verify, "complexity_report")
    # One uniform-rank Ginibre sampler: one rank draw, then random_mixed_stack,
    # and the convexity scan draws its ranks through it.
    sampler = ast.parse(inspect.getsource(matcore.random_rank_mixed_stack))
    loops = (ast.For, ast.While, ast.comprehension)
    assert not [node for node in ast.walk(sampler) if isinstance(node, loops)]
    assert "integers(" not in inspect.getsource(complexity)
    # One moment-route kernel, in charfun: the stabilizer certificate goes through it.
    assert complexity._moment_complexities is charfun._moment_complexities
    assert not hasattr(states, "_power_sums")
    # The purity rule takes the roots themselves, not a callable that makes them.
    projector = np.diag([1.0, 0.0]).astype(complex)[None]
    assert matcore._pure_members(projector, projector)[1].tolist() == [0]
    # Every sum |c|^4 over a characteristic table goes through matcore._power_sums.
    # Left: the closed forms, whose 4th powers are of Bloch components and
    # root weights, and the explicit-operator row that checks the table kernel.
    assert set().union(*map(_fourth_powers, (complexity, states, verify))) == {
        "complexity._qubit_closed_forms", "complexity._rho_p_closed_form", "verify.suite_weyl"}
    # One block rule, in matcore, under every operator walk: the Clifford table
    # takes blocks of operators, not one weyl_matrix call and one phase snap each.
    assert not hasattr(weyl, "_snap_phase")
    assert not hasattr(complexity, "_BLOCK_ENTRIES")
    assert complexity._blocks is matcore._blocks
    assert _weyl_matrix_callers() == set()


def _names(source: str) -> set[str]:
    """Every name, attribute and imported name in ``source``."""
    return {getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}


def test_one_hermiticity_rule_and_one_frobenius_norm(monkeypatch):
    # A state and a stack reach the one acceptance rule in matcore, for
    # Hermiticity and for the trace; complexity keeps no tolerance, error
    # class or triangle walk of its own, and DensityState no trace test.
    assert _names(inspect.getsource(complexity)).isdisjoint(
        {"HERMITIAN_TOL", "TRACE_TOL", "NotHermitianError", "tril_indices"})
    init = textwrap.dedent(inspect.getsource(DensityState.__init__))
    assert _names(init).isdisjoint({"TRACE_TOL", "HERMITIAN_TOL", "trace"})
    assert complexity._check_density is matcore._check_density
    assert not hasattr(matcore, "_check_hermitian")
    calls = [0]
    count_calls(monkeypatch, [matcore, complexity], "_check_density", calls)
    rho = np.eye(3, dtype=complex) / 3
    DensityState(rho)
    assert calls[0] == 1
    complexity.batch_complexity(np.stack([rho] * 4))
    assert calls[0] == 2
    for call in (DensityState, lambda a: complexity.batch_complexity(np.stack([rho, a]))):
        with pytest.raises(ValueError, match="is not 1 within 1.0e-12"):
            call(rho * (1.0 + 1e-10))
    assert calls[0] == 4
    # hs_norm is the one-row case of _hs_norms.
    norms = [0]
    count_calls(monkeypatch, [matcore], "_hs_norms", norms)
    assert matcore.hs_norm(rho) == np.linalg.norm(rho)
    assert norms[0] == 1


def test_one_psd_rule_for_every_square_root(monkeypatch):
    # The eigenvalue floor and the dust cut are read by one function, which the
    # eigh branch and the d = 2 closed form each call once per stack.
    readers = {func.name for func in ast.walk(ast.parse(inspect.getsource(matcore)))
               if isinstance(func, ast.FunctionDef)
               and {"EIGENVALUE_FLOOR", "SQRT_RANK_RCOND"} & {
                   node.id for node in ast.walk(func) if isinstance(node, ast.Name)}}
    assert readers == {"_cut_spectrum"}
    calls = [0]
    count_calls(monkeypatch, [matcore], "_cut_spectrum", calls)
    for d in (2, 3):
        matcore._batch_psd_sqrt(np.stack([np.eye(d, dtype=complex) / d] * 5))
    assert calls[0] == 2


def test_one_per_member_reduction_idiom_in_matcore():
    # Every per-member trace is one einsum, and each squared Hermiticity defect
    # a per-row contraction, not a block matrix-vector product whose rows round
    # by position; the sampler makes no BLAS call besides its products.
    source = inspect.getsource(matcore)
    for text in ("_REAL_PAIR", "np.trace(", ".diagonal("):
        assert text not in source, text
    assert "dot" not in _names(inspect.getsource(matcore._check_density))
    assert _names(inspect.getsource(matcore._ginibre_stack)).isdisjoint({"dot", "trace"})


def test_ginibre_layout_is_private_to_matcore():
    # The scan draws through random_mixed_stack; only _ginibre_stack lays out normals.
    for name in ("_ginibre_normals", "_ginibre_starts"):
        assert not hasattr(matcore, name)
    for name in ("_SCAN_CHUNK", "_scan_chunk", "_SCAN_BLOCK"):
        assert not hasattr(complexity, name)
    assert not [name for name in vars(complexity) if name.startswith("_ginibre")]
    assert list(inspect.signature(matcore._ginibre_stack).parameters) == ["d", "ranks", "normals"]


def test_family_members_come_from_the_one_builder():
    # The sweep and the rho-p suite stack their members through
    # complexity._rho_p_stack, not one rho_p_state per replaced family.
    for module in (verify, cli):
        for name in ("rho_p_state", "replace"):
            assert not hasattr(module, name), (module.__name__, name)


def test_one_value_keywords_are_constants():
    assert "tol" not in inspect.signature(DensityState.is_pure).parameters
    assert not hasattr(DensityState, "sqrt")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_walk_flags_only_unused_names():
    source = "import os\nimport numpy as np\nfrom .x import a, b\nprint(np.pi, a)\n"
    assert _unused_imports(source) == ["os (line 1)", "b (line 3)"]


def test_library_modules_have_no_unused_imports():
    # __init__.py imports in order to re-export, so it is left out.
    modules = sorted(Path(stabc.__file__).parent.glob("*.py"))
    unused = {m.name: _unused_imports(m.read_text()) for m in modules if m.name != "__init__.py"}
    assert len(unused) >= 8
    assert not {name: found for name, found in unused.items() if found}


def test_records_with_array_fields_compare_and_hash_by_identity():
    # A generated == compares the array fields and raises "truth value of an
    # array is ambiguous"; hash() of an eq=True frozen record raises TypeError.
    state = stabc.random_pure(3, 0)
    pairs = [
        (stabc.complexity_report(state), stabc.complexity_report(state)),
        (stabc.known_fiducial(3), stabc.known_fiducial(3)),
        (stabc.char_table(state), stabc.char_table(state)),
    ]
    for a, b in pairs:
        assert a == a and a != b
        assert len({a, a, b}) == 2
        # fields and replace keep working
        copy = dataclasses.replace(a)
        assert copy is not a and copy != a
        assert [f.name for f in dataclasses.fields(copy)] == [f.name for f in dataclasses.fields(a)]
