"""Shared tower degrees: `verlinde.SymTower`, the plain tower behind
`repzp.sym_power` and `svec2.DGradedAlgebra` keep their degree data by a
key without depth, grow it on demand, and a command holds what it builds
(`graded.tower_store`)."""

import hashlib
import json

import numpy as np
import pytest

from vercat import cli, graded, repzp, svec2, verlinde
from vercat.exactlin import BudgetExceeded
from vercat.verlinde import SymTower, VerObject, sym_alg_series


def digests(arrays) -> list[str]:
    return [
        hashlib.sha256(repr(a.shape).encode() + np.asarray(a, "<i8").tobytes()).hexdigest()
        for a in arrays
        if a is not None
    ]


def ambient_degrees() -> list:
    """The `repzp` degree data held by the installed store."""
    return [deg for (cls, _), deg in graded._STORE.get().items() if cls is repzp._SymDegrees]


def verify_all(capsys, *extra) -> tuple[int, dict]:
    code = cli.main(["verify", "--suite", "all", "--format", "json", *extra])
    return code, json.loads(capsys.readouterr().out)


class TestOneBuildPerCommand:
    def test_verify_all_builds_each_degree_once(self, record_builds, capsys):
        # 152 distinct (p, X, m, budget) degrees of Ver_p towers; the ambient
        # route's 10 modules to degree 6 and the 3 sVec_2 modules (the line
        # <y> and W to depth 5 and 8, W + 1 to 8) need 50 + 18 plain degrees
        sym = record_builds(verlinde._Degrees)
        plain = record_builds(graded.QuotientDegrees)
        code, _ = verify_all(capsys)
        assert code == cli.EXIT_OK
        keys = [(t.p, t.x.mult, m, t.max_entries) for t, m in sym]
        assert len(keys) == len(set(keys)) == 152
        built = [(id(t), m) for t, m in plain]
        assert len(built) == len(set(built)) <= 68

    def test_nothing_outlives_a_command(self, capsys):
        # towers other tests still hold may sit in the weak table; a
        # command adds none to it
        before = set(graded._LIVE)
        first = verify_all(capsys)
        assert graded._STORE.get() is None
        assert set(graded._LIVE) <= before
        second = verify_all(capsys)
        assert first[0] == second[0] == cli.EXIT_OK
        for report in (first[1], second[1]):
            report.pop("timestamp")
        assert first[1] == second[1]

    def test_a_tower_mutant_stays_in_its_suite(self, capsys, monkeypatch):
        # 1 + swap for 1 - swap corrupts the Ver_p towers the comparison
        # suite builds; the clean suites before and after it, on the same
        # keys, read clean towers from the command's own store
        clean = verify_all(capsys)[1]["checks"]

        def plus_swap(rows, n):
            b = rows.reshape(*rows.shape[:-1], -1, n, n)
            return (b + np.swapaxes(b, -1, -2)).reshape(rows.shape)

        mutant = ("sympow-comparison", graded, "minus_swap", plus_swap)
        monkeypatch.setitem(cli.MUTANTS, "control", mutant)
        code, report = verify_all(capsys, "--mutate", "control")
        assert code == cli.EXIT_CHECK_FAILED
        compared = ("sympow-comparison below-p", "sympow-comparison p=3 L2 m=3")
        mutated = [c for c in report["checks"] if c["name"] in compared]
        assert [c["passed"] for c in mutated] == [False, False]
        assert [c for c in report["checks"] if c["name"] not in compared] == [
            c for c in clean if c["name"] not in compared
        ]


class TestShallowHolder:
    """A tower on a key grown deeper reads exactly its own depth."""

    def test_symtower_reads_its_own_depth(self, record_builds):
        x = VerObject.simple(5, 2)  # L1, L2, L3, L4, then 0 from degree 4
        with graded.tower_store():
            fresh = SymTower(x, 3)
            fresh_series = sym_alg_series(x, 3)
        with graded.tower_store():
            deep = SymTower(x, 6)
            calls = record_builds(verlinde._Degrees)
            shallow = SymTower(x, 3)
            series = sym_alg_series(x, 3)
            assert calls == [] and shallow._deg is deep._deg
            assert deep.zero_from == 4 and len(deep.sizes) == 7
        assert shallow.sizes == fresh.sizes and len(shallow.q) == 4
        assert digests(shallow.q) == digests(fresh.q)
        assert digests(shallow.section(m) for m in range(1, 4)) == digests(
            fresh.section(m) for m in range(1, 4)
        )
        assert shallow.zero_from is None and not series.finite
        assert series == fresh_series

    def test_ambient_sym_power_reads_its_own_degree(self, record_builds):
        mod = repzp.jordan_module(5, [2, 3])
        fresh = repzp.sym_power(mod, 3)
        with graded.tower_store():
            repzp.sym_power(mod, 6)
            calls = record_builds(graded.QuotientDegrees)
            shallow = repzp.sym_power(repzp.jordan_module(5, [2, 3]), 3)
            assert calls == []
        assert shallow.dim == fresh.dim and np.array_equal(shallow.g, fresh.g)

    def test_svec2_algebra_reads_its_own_depth(self, record_builds):
        x = svec2.direct_sum(svec2.module_w(), svec2.trivial(1))
        with graded.tower_store():
            fresh = svec2.sym_algebra(x, 3)
        with graded.tower_store():
            deep = svec2.sym_algebra(x, 8)
            calls = record_builds(graded.QuotientDegrees)
            shallow = svec2.sym_algebra(svec2.direct_sum(svec2.module_w(), svec2.trivial(1)), 3)
            assert calls == [] and shallow._deg is deep._deg
        assert shallow.dims == fresh.dims == [1, 3, 5, 7]
        for lists in ("q", "keep", "dmat"):
            got, want = getattr(shallow, lists), getattr(fresh, lists)
            assert len(got) == 4 and digests(got) == digests(want), lists
        u, v = {1: np.ones(3, dtype=np.int64)}, {2: np.ones(5, dtype=np.int64)}
        assert shallow.equal(shallow.mul(u, v), fresh.mul(u, v))


class TestGrowth:
    """Growth charges each new degree as a fresh build does; a growth that
    raises leaves the shared degrees as they were; budgets never share."""

    def test_symtower_growth(self, record_builds):
        x = VerObject(5, (1, 1, 0, 0))  # its S^4 needs 300 entries
        with graded.tower_store(), pytest.raises(BudgetExceeded) as fresh:
            SymTower(x, 10, max_entries=299)
        with graded.tower_store():
            held = SymTower(x, 2, max_entries=299)
            deg = held._deg
            before = (list(deg.sizes), [id(q) for q in deg.q], [dict(k) for k in deg.kernels])
            calls = record_builds(verlinde._Degrees)
            with pytest.raises(BudgetExceeded) as grown:
                SymTower(x, 10, max_entries=299)
            assert str(grown.value) == str(fresh.value)
            assert "S^4: projection rows needs 300 " in str(grown.value)
            assert [m for _, m in calls] == [3, 4]
            after = (list(deg.sizes), [id(q) for q in deg.q], [dict(k) for k in deg.kernels])
            assert after == before
            # a budget that fits grows the same key's degrees from 3, once
            assert SymTower(x, 3, max_entries=299)._deg is deg
            assert [m for _, m in calls] == [3, 4, 3]
            roomy = SymTower(x, 10, max_entries=300)
            assert roomy._deg is not deg and SymTower(x, 10)._deg is not roomy._deg
            del calls[:]
            assert SymTower(x, 6, max_entries=300).sizes == roomy.sizes[:7]
            assert calls == []
        # X = 10 L2: S^1's projection rows need 20 * 20 = 400 entries; a
        # growth from degree 0 that raises there keeps degree 0 alone
        x = VerObject(5, (0, 10, 0, 0))
        with graded.tower_store():
            deg = SymTower(x, 0, max_entries=399)._deg
            errors = []
            for _ in range(2):
                with pytest.raises(BudgetExceeded) as grown:
                    SymTower(x, 3, max_entries=399)
                errors.append(str(grown.value))
                assert [len(deg.sizes), len(deg.q), len(deg.kernels)] == [1, 1, 1]
            assert errors[0] == errors[1]
            assert errors[0].startswith("S^1: projection rows needs 400 ")

    def test_ambient_growth(self):
        # J_4^6 at p = 5: the action columns on S^2 need 172,800 entries
        mod = repzp.jordan_module(5, [4] * 6)
        with graded.tower_store(), pytest.raises(BudgetExceeded) as fresh:
            repzp.sym_power(mod, 2, max_entries=172_799)
        with graded.tower_store():
            assert repzp.sym_power(mod, 1, max_entries=172_799).dim == 24
            (tower,) = ambient_degrees()
            before = [list(map(id, getattr(tower, name))) for name in ("q", "keep", "g")]
            with pytest.raises(BudgetExceeded) as grown:
                repzp.sym_power(mod, 2, max_entries=172_799)
            assert str(grown.value) == str(fresh.value)
            assert "action on S^2 needs 172800 " in str(grown.value)
            assert [list(map(id, getattr(tower, name))) for name in ("q", "keep", "g")] == before
            assert repzp.sym_power(mod, 2, max_entries=172_800).dim == 300
            assert len(ambient_degrees()) == 2

    def test_svec2_growth(self):
        # the 16 x 16 degree-2 braiding relations of W + W need 256 entries
        w2 = svec2.direct_sum(svec2.module_w(), svec2.module_w())
        with graded.tower_store(), pytest.raises(BudgetExceeded) as fresh:
            svec2.sym_algebra(w2, 2, max_entries=100)
        with graded.tower_store():
            held = svec2.sym_algebra(w2, 1, max_entries=100)
            with pytest.raises(BudgetExceeded) as grown:
                svec2.sym_algebra(w2, 2, max_entries=100)
            assert str(grown.value) == str(fresh.value)
            assert "relation matrix of S^2 needs 256 " in str(grown.value)
            assert [len(held._deg.q), len(held._deg.keep), len(held._deg.dmat)] == [2, 2, 2]
            assert svec2.sym_algebra(w2, 2, max_entries=256)._deg is not held._deg
