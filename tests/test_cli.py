"""CLI: the object-spec grammar, exit-code contract, output formats,
report determinism, and the result cache."""

import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vercat.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    ResultCache,
    UsageError,
    main,
    parse_dmodule_spec,
    parse_object_spec,
)
import vercat
from vercat import cli, graded, verlinde
from vercat import svec2 as sv
from vercat.exactlin import DEFAULT_MAX_ENTRIES
from vercat.verlinde import VerObject

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestObjectSpec:
    def test_simple_forms(self):
        assert parse_object_spec("1", 5) == VerObject.unit(5)
        assert parse_object_spec("L2", 5) == VerObject.simple(5, 2)
        assert parse_object_spec("1+L2", 5) == VerObject(5, (1, 1, 0, 0))
        assert parse_object_spec("3*L2", 5) == VerObject(5, (0, 3, 0, 0))
        assert parse_object_spec("2", 5) == VerObject(5, (2, 0, 0, 0))

    def test_whitespace_insensitive(self):
        assert parse_object_spec(" 1 + 2*L3 ", 7) == VerObject(
            7, (1, 0, 2, 0, 0, 0)
        )

    def test_error_positions(self):
        with pytest.raises(UsageError, match="position 0"):
            parse_object_spec("Q2", 5)
        with pytest.raises(UsageError, match="position 3"):
            parse_object_spec("L2+!", 5)
        with pytest.raises(UsageError, match="out of range"):
            parse_object_spec("L7", 5)
        with pytest.raises(UsageError):
            parse_object_spec("", 5)

    def test_dmodule_spec(self):
        assert parse_dmodule_spec("W").dim == 2
        assert parse_dmodule_spec("W+1").dim == 3
        assert parse_dmodule_spec("2*W").dim == 4
        with pytest.raises(UsageError):
            parse_dmodule_spec("V")


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run(capsys, "fusion", "--p", "5", "--l", "2", "--r", "2")
        assert code == EXIT_OK
        assert out.strip() == "L1 + L3"

    def test_usage_error_from_argparse(self, capsys):
        code, _, _ = run(capsys, "fusion", "--p", "4", "--l", "1", "--r", "1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("p", ["0", "1", "-3", "4", "65539"])
    def test_p_must_be_a_prime_gf_accepts(self, capsys, p):
        code, out, err = run(capsys, "fusion", "--p", p, "--l", "1", "--r", "1")
        assert code == EXIT_USAGE and out == ""
        assert "must be a prime <= 65537" in err

    def test_prime_above_int64_exact_bound(self, capsys):
        code, _, err = run(
            capsys, "fusion", "--p", "4294967311", "--l", "1", "--r", "1"
        )
        assert code == EXIT_USAGE
        assert "65537" in err

    def test_usage_error_from_validation(self, capsys):
        code, _, err = run(capsys, "fusion", "--p", "5", "--l", "9", "--r", "1")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_budget_exceeded(self, capsys):
        code, _, err = run(
            capsys,
            "sympow",
            "--p", "5",
            "--object", "L4",
            "--degree", "10",
            "--ambient", "repzp",
            "--max-entries", "100",
        )
        assert code == EXIT_BUDGET
        assert "budget" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sympow", "--p", "5", "--object", "L2", "--degree", "-1"],
            [
                "sympow", "--p", "5", "--object", "L2",
                "--ambient", "repzp", "--degree", "-2",
            ],
            ["symalg", "--p", "5", "--object", "L2", "--max-degree", "-1"],
            ["svec2", "sympow", "--module", "W", "--degree", "-1"],
            ["svec2", "fourth-power", "--module", "W", "--max-degree", "-1"],
            ["svec2", "injectivity", "--sub", "y", "--amb", "W", "--max-degree", "-1"],
            ["verify", "--suite", "char0", "--max-degree", "-1"],
        ],
        ids=[
            "sympow",
            "sympow-repzp",
            "symalg",
            "svec2-sympow",
            "svec2-fourth-power",
            "svec2-injectivity",
            "verify",
        ],
    )
    def test_negative_degree_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == "" and "nonnegative" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["svec2", "fourth-power", "--module", "W"],
            ["svec2", "injectivity", "--sub", "y", "--amb", "W", "--max-degree", "5"],
            ["verify", "--suite", "svec2"],
        ],
        ids=["fourth-power", "injectivity", "verify-svec2"],
    )
    def test_svec2_budget_exceeded(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--max-entries", "10")
        assert code == EXIT_BUDGET
        assert "budget" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["svec2", "fourth-power", "--module", "W", "--max-degree", "3"],
            ["svec2", "fourth-power", "--module", "W", "--trials", "0"],
            ["svec2", "fourth-power", "--module", "W", "--trials", "-5"],
            ["verify", "--suite", "char0", "--max-degree", "2"],
            ["verify", "--suite", "all", "--max-degree", "2"],
            # no prime below 3 is checked: these would pass with 0 checks
            ["verify", "--suite", "fusion", "--p-max", "2"],
            ["verify", "--suite", "sympow", "--p-max", "2"],
            # no suite checks a prime above 13: this would pass unchanged
            ["verify", "--suite", "fusion", "--p-max", "31"],
        ],
        ids=[
            "fourth-power-depth-3",
            "fourth-power-no-trials",
            "fourth-power-negative-trials",
            "verify-char0-depth-2",
            "verify-all-depth-2",
            "verify-fusion-p-max-2",
            "verify-sympow-p-max-2",
            "verify-fusion-p-max-31",
        ],
    )
    def test_unusable_depth_or_trials_is_usage_error(self, capsys, argv):
        # no traceback, no vacuous [PASS] lines: a usage error before any work
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["svec2", "fourth-power", "--module", "W", "--seed", "-1"],
            ["verify", "--suite", "svec2", "--seed", "-1"],
        ],
        ids=["fourth-power", "verify"],
    )
    def test_negative_seed_is_usage_error(self, capsys, argv):
        # seeded numpy generators take nonnegative seeds only
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == "" and "seed must be nonnegative" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sympow", "--p", "5", "--object", "L2", "--degree", "2"],
            ["fusion", "--p", "7", "--l", "3", "--r", "5", "--oracle"],
            ["svec2", "sympow", "--module", "W", "--degree", "2"],
            ["verify", "--suite", "char0"],
        ],
        ids=["sympow", "fusion", "svec2-sympow", "verify"],
    )
    def test_negative_budget_is_usage_error(self, capsys, argv):
        # refused while parsing, before any charge could name it
        code, out, err = run(capsys, *argv, "--max-entries", "-1")
        assert code == EXIT_USAGE
        assert out == "" and "budget must be nonnegative, got -1" in err

    def test_zero_budget_is_a_budget(self, capsys):
        argv = ["sympow", "--p", "5", "--object", "L2", "--max-entries", "0"]
        assert run(capsys, *argv, "--degree", "0")[:2] == (EXIT_OK, "L1\n")
        code, _, err = run(capsys, *argv, "--degree", "2")
        assert code == EXIT_BUDGET and "budget is 0" in err

    def test_p_max_error_names_the_largest_prime(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "fusion", "--p-max", "17")
        assert code == EXIT_USAGE
        assert "at most 13" in err

    def test_trial_batch_budget(self, capsys):
        # the batch is charged before any trial is drawn
        code, out, err = run(
            capsys, "svec2", "fourth-power", "--module", "W", "--trials", "100000000"
        )
        assert code == EXIT_BUDGET
        assert out == "" and "batch of 100000000 trials" in err

    def test_unwritable_json_path_is_usage_error(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = blocker / "report.json"
        code, out, err = run(
            capsys, "verify", "--suite", "char0", "--json", str(path)
        )
        assert code == EXIT_USAGE
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error:") and str(path) in err

    def test_repzp_relation_budget(self, capsys):
        # the 16 x 6 relation columns of S^2(J_4) do not fit 64 entries
        code, out, err = run(
            capsys,
            "sympow", "--p", "5", "--object", "L4", "--degree", "3",
            "--ambient", "repzp", "--max-entries", "64",
        )
        assert code == EXIT_BUDGET
        assert out == "" and "relation matrix of S^2 needs 96 " in err

    def test_verify_rejects_csv_before_any_suite(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, err = run(
            capsys, "verify", "--format", "csv", "--json", str(path)
        )
        assert code == EXIT_USAGE
        assert out == "" and "csv" in err
        assert not path.exists()

    def test_svec2_verify_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "svec2")
        assert code == EXIT_OK
        assert out.strip().endswith("19/19 checks passed")

    @pytest.mark.parametrize("suite", ["sympow", "invariants"])
    def test_suite_matches_the_recorded_verify_all(self, capsys, suite):
        # the benchmark's record of `verify --suite all` at the default seed
        # (read only here) holds the same-named checks, details included
        path = os.path.join(ROOT, "perfbench", "expected.json")
        with open(path) as f:
            recorded = json.load(f)["verify-all"]["checks"]
        code, out, _ = run(capsys, "verify", "--suite", suite, "--format", "json")
        checks = json.loads(out)["checks"]
        names = {c["name"] for c in checks}
        assert code == EXIT_OK and checks
        assert checks == [c for c in recorded if c["name"] in names]

    def test_check_failure_via_mutation(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite", "fusion",
            "--mutate", "drop-pr-bound",
        )
        assert code == EXIT_CHECK_FAILED
        assert "counterexample" in out

    def test_mutation_reaches_the_ring_laws(self, capsys):
        # the ring laws and the quotient-monoidal law read the mutated rule
        # table too: without the p - r bound it is neither commutative nor
        # associative from p = 5 on, and the oracle's images of a (x) b no
        # longer match, while p = 3 and the unit pairing are untouched
        code, out, _ = run(
            capsys,
            "verify",
            "--suite", "fusion",
            "--mutate", "drop-pr-bound",
            "--format", "json",
        )
        assert code == EXIT_CHECK_FAILED
        failed = {c["name"] for c in json.loads(out)["checks"] if not c["passed"]}
        assert failed == {
            *(f"fusion-oracle p={p}" for p in (5, 7, 11, 13)),
            *(f"fusion-commutative p={p}" for p in (5, 7, 11)),
            *(f"fusion-associative p={p}" for p in (5, 7, 11)),
            *(f"quotient-monoidal p={p}" for p in (5, 7)),
        }

    def test_clean_verify_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "char0")
        assert code == EXIT_OK
        assert "EXPECTED-NONTERMINATION" in out


_REAL_MU = graded.GradedTower.mu


def _bumped_mu(tower, a, b, left=None):
    """`GradedTower.mu` with entry 0 of every product of positive degrees
    raised by 1."""
    out = _REAL_MU(tower, a, b, left)
    if a >= 1 and b >= 1:
        out = out.copy()  # mu(a, 1) is q_(a+1) itself
        out.flat[0] += 1
    return out


def _plus_swap(rows: np.ndarray, n: int) -> np.ndarray:
    """`graded.minus_swap` with 1 + swap for 1 - swap."""
    b = rows.reshape(*rows.shape[:-1], -1, n, n)
    return (b + np.swapaxes(b, -1, -2)).reshape(rows.shape)


def _plain_swap(a: sv.DModule, b: sv.DModule) -> np.ndarray:
    """`svec2.braiding` without its d (x) d twist."""
    return graded.swap(a.dim, b.dim)


_SVEC2_MU_FAILS = {
    f"svec2 {label} {name}"
    for label in ("S(W)", "S(W+1)")
    for name in ("d_of_fourth_power", "product_fourth_power", "sum_fourth_power",
                 "square_rule", "d-commutativity")
} | {"svec2 fourth-powers-invariant"}


class TestMutants:
    """A negative control replaces one library attribute while its suite
    runs (`cli.MUTANTS`): the suite fails through the library itself, the
    attribute is the original again afterwards, and the suite passes
    unmutated once the run is over."""

    @staticmethod
    def verify(capsys, monkeypatch, suite, owner, attr, replacement, where=None):
        original = getattr(owner, attr)
        monkeypatch.setitem(cli.MUTANTS, "control", (suite, owner, attr, replacement))
        try:
            return run(
                capsys, "verify", "--suite", where or suite,
                "--mutate", "control", "--format", "json",
            )
        finally:
            assert getattr(owner, attr) is original

    @staticmethod
    def passes_unmutated(capsys, suite):
        return run(capsys, "verify", "--suite", suite)[0] == EXIT_OK

    @pytest.mark.parametrize(
        "suite, owner, attr, replacement, total, failed",
        [
            ("svec2", sv, "braiding", _plain_swap, 19, {
                "svec2-noninjectivity <y> in W",
                "svec2 dim S^2(W) = 2",
                *(f"svec2 {label} {name}" for label in ("S(W)", "S(W+1)")
                  for name in ("d_square_zero", "square_rule", "d-commutativity")),
            }),
            ("svec2", graded.GradedTower, "mu", _bumped_mu, 19, _SVEC2_MU_FAILS),
            ("invariants", graded.GradedTower, "mu", _bumped_mu, 7, {
                "module-finiteness p=5 X=1+L2", "isotypic-stability p=5 X=1+L2",
            }),
            ("sympow", verlinde, "_rule_range", cli._rule_range_without_pr_bound,
             10, {"series-sum-product p=5"}),
            ("sympow-comparison", graded, "minus_swap", _plus_swap, 2, {
                "sympow-comparison below-p", "sympow-comparison p=3 L2 m=3",
            }),
        ],
        ids=["svec2-plain-swap", "svec2-bumped-mu", "invariants-bumped-mu",
             "sympow-drop-pr-bound", "sympow-comparison-plus-swap"],
    )
    def test_the_suite_fails(
        self, capsys, monkeypatch, suite, owner, attr, replacement, total, failed
    ):
        code, out, _ = self.verify(capsys, monkeypatch, suite, owner, attr, replacement)
        checks = json.loads(out)["checks"]
        assert code == EXIT_CHECK_FAILED and len(checks) == total
        assert {c["name"] for c in checks if not c["passed"]} == failed
        assert self.passes_unmutated(capsys, suite)

    @pytest.mark.parametrize("suite", ["sympow", "invariants"])
    def test_a_raising_run_restores_the_attribute(self, capsys, monkeypatch, suite):
        # S^2 turns exterior, so S(1 + X) vanishes from some degree on
        vanished = r"^a trivial summand cannot vanish in S\(X\)$"
        with pytest.raises(AssertionError, match=vanished) as held:
            self.verify(capsys, monkeypatch, suite, graded, "minus_swap", _plus_swap)
        # while the error's traceback still holds the towers built under the
        # mutant: they sat in the mutated suite's own tower store, so no
        # tower built on the same key now reads their degrees
        assert self.passes_unmutated(capsys, suite)
        del held

    def test_the_mutant_stays_in_its_suite(self, capsys, monkeypatch):
        # under --suite all the sympow suite runs unmutated: its
        # series-sum-product p=5 fails when the range reaches it
        code, out, _ = self.verify(
            capsys, monkeypatch, *cli.MUTANTS["drop-pr-bound"], where="all"
        )
        checks = json.loads(out)["checks"]
        failed = {c["name"] for c in checks if not c["passed"]}
        assert code == EXIT_CHECK_FAILED and len(checks) == 59
        assert failed == {
            *(f"fusion-oracle p={p}" for p in (5, 7, 11, 13)),
            *(f"fusion-{law} p={p}" for law in ("commutative", "associative")
              for p in (5, 7, 11)),
            *(f"quotient-monoidal p={p}" for p in (5, 7)),
        }
        assert self.passes_unmutated(capsys, "fusion")


class TestSympowCounterexamples:
    """With two failing cases, a sympow-suite check names the first."""

    def failing_check(self, capsys, name):
        code, out, _ = run(capsys, "verify", "--suite", "sympow", "--format", "json")
        failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
        assert code == EXIT_CHECK_FAILED and [c["name"] for c in failed] == [name]
        return failed[0]["details"]

    def test_sym_dim_binomial(self, capsys, monkeypatch):
        def sym_power(mod, m, max_entries=None):
            # one dimension too many at (p, n, m) = (3, 1, 2) and (3, 2, 5)
            want = math.comb(mod.dim + m - 1, mod.dim - 1)
            wrong = (mod.p, mod.dim, m) in {(3, 1, 2), (3, 2, 5)}
            return SimpleNamespace(dim=want + 1 if wrong else want)

        monkeypatch.setattr(cli, "sym_power", sym_power)
        details = self.failing_check(capsys, "sym-dim-binomial p=3")
        assert details == "counterexample (3, 1, 2, 2, 1)"

    def test_sympow_vanishing(self, capsys, monkeypatch):
        def ver_sym_power(x, m, max_entries=None):
            # S^(p-n+1)(L_n) left nonzero at (p, n) = (5, 2) and (5, 4)
            wrong = (x.p, x.dim) in {(5, 2), (5, 4)}
            return VerObject.unit(x.p) if wrong else VerObject.zero(x.p)

        monkeypatch.setattr(cli, "ver_sym_power", ver_sym_power)
        assert self.failing_check(capsys, "sympow-vanishing p=5") == "fails at (5, 2)"


def test_sympow_suite_below_p_max_11(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "sympow", "--p-max", "7")
    assert code == EXIT_OK and out.splitlines()[-1] == "9/9 checks passed"
    assert "sympow-vanishing p=7" in out and "sympow-vanishing p=11" not in out


def test_svec2_injective_up_to_the_depth(capsys):
    # S(<y>) -> S(W) first fails in degree 2, so it holds to degree 1
    argv = ["svec2", "injectivity", "--sub", "y", "--amb", "W", "--max-degree", "1"]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and out == "injective up to degree 1\n"
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["results"] == [{"line": "injective up to degree 1"}]


class TestOutputs:
    def test_oracle_flag(self, capsys):
        code, out, _ = run(
            capsys, "fusion", "--p", "7", "--l", "3", "--r", "5", "--oracle"
        )
        assert code == EXIT_OK
        assert "oracle agrees" in out
        assert "1 negligible block J7 dropped" in out

    def test_sympow_both(self, capsys):
        code, out, _ = run(
            capsys,
            "sympow",
            "--p", "5", "--object", "L2", "--degree", "2", "--ambient", "both",
        )
        assert code == EXIT_OK
        assert out.strip() == "J3 | L3 | agree"

    def test_sympow_vanishing(self, capsys):
        code, out, _ = run(
            capsys,
            "sympow",
            "--p", "5", "--object", "L2", "--degree", "4",
            "--ambient", "verlinde",
        )
        assert code == EXIT_OK
        assert out.strip() == "0"

    def test_sympow_zero_object_degree_zero(self, capsys):
        # S^0 of the zero object is the unit on both routes
        code, out, _ = run(
            capsys,
            "sympow",
            "--p", "5", "--object", "0", "--degree", "0", "--ambient", "both",
        )
        assert code == EXIT_OK
        assert out.strip() == "J1 | L1 | agree"

    def test_symalg_hilbert_table(self, capsys):
        code, out, _ = run(
            capsys,
            "symalg",
            "--p", "5", "--object", "L2", "--max-degree", "6",
        )
        assert code == EXIT_OK
        assert "L1, L2, L3, L4, 0, 0, 0" in out
        assert "finite" in out and "Y dim 10" in out

    def test_symalg_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "symalg",
            "--p", "5", "--object", "L2", "--max-degree", "4",
            "--format", "csv",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "degree,L1,L2,L3,L4"
        assert lines[1] == "0,1,0,0,0"
        assert lines[2] == "1,0,1,0,0"

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "sympow",
            "--p", "5", "--object", "L2", "--degree", "2",
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert set(payload) == {
            "command", "parameters", "results", "checks", "versions", "timestamp",
        }
        assert payload["command"] == "sympow"
        assert payload["results"][0]["verlinde"] == "L3"

    def test_json_determinism_modulo_timestamp(self, capsys):
        argv = [
            "verify", "--suite", "char0", "--max-degree", "6",
            "--format", "json", "--seed", "5",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == EXIT_OK
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("timestamp")
        d2.pop("timestamp")
        assert d1 == d2

    def test_svec2_outputs(self, capsys):
        code, out, _ = run(capsys, "svec2", "sympow", "--module", "W", "--degree", "2")
        assert code == EXIT_OK and out.strip() == "dim 2"
        code, out, _ = run(
            capsys,
            "svec2", "injectivity", "--sub", "y", "--amb", "W",
            "--max-degree", "5",
        )
        assert code == EXIT_OK and out.strip() == "fails at degree 2 (y^2 = 0)"
        code, out, _ = run(
            capsys,
            "svec2", "fourth-power", "--module", "W",
            "--trials", "20", "--seed", "7",
        )
        assert code == EXIT_OK
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_verify_json_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "verify", "--suite", "char0", "--json", str(path),
        )
        assert code == EXIT_OK
        payload = json.loads(path.read_text())
        assert payload["command"] == "verify"
        assert all(c["passed"] for c in payload["checks"])


class TestCache:
    def test_transparency(self, capsys, tmp_path):
        argv = [
            "sympow", "--p", "5", "--object", "L2", "--degree", "3",
            "--format", "json",
        ]
        code1, out1, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert len(os.listdir(tmp_path)) == 1
        code2, out2, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        code3, out3, _ = run(capsys, *argv, "--no-cache")
        assert code1 == code2 == code3 == EXIT_OK

        def payload(s):
            d = json.loads(s)
            d.pop("timestamp")
            return d

        assert payload(out1) == payload(out2) == payload(out3)

    def test_corruption_recovery(self, capsys, tmp_path):
        argv = [
            "sympow", "--p", "5", "--object", "L2", "--degree", "2",
            "--format", "json", "--cache-dir", str(tmp_path),
        ]
        run(capsys, *argv)
        (entry,) = os.listdir(tmp_path)
        path = os.path.join(tmp_path, entry)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"version": "0.1.0", "value": {"verlinde": "L4"}}')
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(out)["results"][0]["verlinde"] == "L3"  # recomputed

    @pytest.mark.parametrize("text", ["[1, 2]", '"L4"', "null", '{"version": "0.1'])
    def test_unreadable_entry_is_recomputed(self, capsys, tmp_path, text):
        # valid JSON that is not an object is as corrupt as a truncated file
        argv = [
            "sympow", "--p", "5", "--object", "L2", "--degree", "2",
            "--cache-dir", str(tmp_path),
        ]
        code, first, _ = run(capsys, *argv)
        (entry,) = os.listdir(tmp_path)
        path = os.path.join(tmp_path, entry)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code2, again, _ = run(capsys, *argv)
        assert code == code2 == EXIT_OK and again == first
        with open(path, encoding="utf-8") as fh:
            assert isinstance(json.load(fh), dict)  # the entry is rewritten

    def test_failed_write_keeps_old_entry(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path))
        cache.put("k", {"verlinde": "L3"})
        (entry,) = os.listdir(tmp_path)
        # json.dump writes the header of the payload, then rejects the value
        monkeypatch.setattr(ResultCache, "_checksum", staticmethod(lambda v: "x"))
        with pytest.raises(TypeError):
            cache.put("k", [1, 2, object()])
        assert os.listdir(tmp_path) == [entry]  # no partial file left
        monkeypatch.undo()
        assert cache.get("k") == {"verlinde": "L3"}

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_unusable_cache_dir_is_usage_error(self, capsys, tmp_path, monkeypatch, via):
        blocker = tmp_path / "file"
        blocker.write_text("")
        directory = str(blocker / "cache")
        argv = ["sympow", "--p", "3", "--object", "L2", "--degree", "2"]
        if via == "flag":
            argv += ["--cache-dir", directory]
        else:
            monkeypatch.setenv("VERLINDE_CACHE_DIR", directory)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error:") and directory in err

    def test_env_var_location(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("VERLINDE_CACHE_DIR", str(tmp_path))
        run(
            capsys,
            "sympow", "--p", "3", "--object", "L2", "--degree", "2",
        )
        assert len(os.listdir(tmp_path)) == 1

    def test_entry_is_not_served_under_a_smaller_budget(self, capsys, tmp_path):
        argv = [
            "sympow", "--p", "5", "--object", "L2", "--degree", "3",
            "--cache-dir", str(tmp_path),
        ]
        assert run(capsys, *argv)[0] == EXIT_OK
        assert run(capsys, *argv, "--max-entries", "1")[0] == EXIT_BUDGET
        assert run(capsys, *argv, "--max-entries", "1", "--no-cache")[0] == EXIT_BUDGET

    @pytest.mark.parametrize("budget", [None, 5000])
    def test_entry_is_served_at_the_same_budget(self, capsys, tmp_path, monkeypatch, budget):
        # no flag and the default spelled out are the same effective budget
        flags = [] if budget is None else ["--max-entries", str(budget)]
        again = flags or ["--max-entries", str(DEFAULT_MAX_ENTRIES)]
        argv = [
            "sympow", "--p", "5", "--object", "L2", "--degree", "3",
            "--cache-dir", str(tmp_path),
        ]
        code1, first, _ = run(capsys, *argv, *flags)
        (entry,) = os.listdir(tmp_path)

        def unbuilt(*args, **kwargs):
            raise AssertionError("a cached sympow result was recomputed")

        monkeypatch.setattr(vercat.cli, "ver_sym_power", unbuilt)
        code2, second, _ = run(capsys, *argv, *again)
        assert code1 == code2 == EXIT_OK and second == first
        assert os.listdir(tmp_path) == [entry]

    @pytest.mark.parametrize("which", ["hilbert", "invariants", "generators", "module-finiteness"])
    def test_every_symalg_report_is_served_from_its_entry(
        self, capsys, tmp_path, monkeypatch, which
    ):
        argv = [
            "symalg", "--p", "5", "--object", "1+L2", "--max-degree", "5",
            "--report", which, "--format", "json",
        ]

        def bytes_of(out):
            return re.sub(r'"timestamp":"[^"]*"', '"timestamp":"T"', out)

        code, fresh, _ = run(capsys, *argv, "--no-cache")
        code1, first, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        (entry,) = os.listdir(tmp_path)

        def unbuilt(*args, **kwargs):
            raise AssertionError("a cached symalg report was rebuilt")

        monkeypatch.setattr(vercat.cli, "sym_alg_series", unbuilt)
        for name in ("build_invariant_algebra", "module_finiteness_check"):
            monkeypatch.setattr(vercat.invariants, name, unbuilt)
        code2, again, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == code1 == code2 == EXIT_OK
        assert os.listdir(tmp_path) == [entry]
        assert bytes_of(fresh) == bytes_of(first) == bytes_of(again)


# ---------------------------------------------------------------------------
# one command path: exact outputs, argparse-level input checks, spec grammar
# ---------------------------------------------------------------------------

SYMALG = ["symalg", "--p", "5", "--object", "1+L2", "--max-degree", "6"]
SYMALG_PARAMS = '"parameters":{"max_degree":6,"object":"L1 + L2","p":5,"report":"%s"}'
SYMALG_OUTPUTS = {
    ("invariants", "table"): "invariant dims: 1, 1, 1, 1, 1, 1, 1\n",
    ("invariants", "json"): '{"checks":[],"command":"symalg",'
    + SYMALG_PARAMS % "invariants"
    + ',"results":[{"invariant_dims":[1,1,1,1,1,1,1]}],'
    '"timestamp":"T","versions":{"artifact":"0.1.0"}}\n',
    ("invariants", "csv"): "degree,invariant_dim\n"
    + "".join(f"{m},1\n" for m in range(7)),
    ("generators", "table"): "new generators per degree: "
    "0:1, 1:1, 2:0, 3:0, 4:0, 5:0, 6:0\n",
    ("generators", "json"): '{"checks":[],"command":"symalg",'
    + SYMALG_PARAMS % "generators"
    + ',"results":[{"generator_degrees":[[0,1],[1,1],[2,0],[3,0],[4,0],'
    '[5,0],[6,0]]}],"timestamp":"T","versions":{"artifact":"0.1.0"}}\n',
    ("generators", "csv"): "degree,new_generators\n0,1\n1,1\n"
    + "".join(f"{m},0\n" for m in range(2, 7)),
    ("module-finiteness", "table"): "module generators over invariants: "
    "(deg 0, L1), (deg 1, L2), (deg 2, L3), (deg 3, L4); stabilized "
    "(evidence up to truncation, not a proof)\n",
    ("module-finiteness", "json"): '{"checks":[],"command":"symalg",'
    + SYMALG_PARAMS % "module-finiteness"
    + ',"results":[{"module_generators":[[0,1],[1,2],[2,3],[3,4]],'
    '"stabilized":true}],"timestamp":"T","versions":{"artifact":"0.1.0"}}\n',
    ("module-finiteness", "csv"): "degree,simple\n0,1\n1,2\n2,3\n3,4\n",
}


def test_symalg_depth_zero_is_not_stabilized(capsys):
    argv = ["symalg", "--p", "5", "--object", "L2", "--max-degree", "0"]
    code, out, err = run(capsys, *argv, "--report", "module-finiteness")
    assert (code, err) == (EXIT_OK, "") and "NOT stabilized" in out


@pytest.mark.parametrize(
    "report,fmt",
    sorted(SYMALG_OUTPUTS),
    ids=[f"{r}-{f}" for r, f in sorted(SYMALG_OUTPUTS)],
)
def test_symalg_report_exact_output(capsys, report, fmt):
    code, out, err = run(capsys, *SYMALG, "--report", report, "--format", fmt)
    assert (code, err) == (EXIT_OK, "")
    out = re.sub(r'"timestamp":"[^"]*"', '"timestamp":"T"', out)
    assert out == SYMALG_OUTPUTS[report, fmt]


# JSON payloads where Rep(Z/pZ), Ver_p and the invariant algebra meet: the
# oracle's dropped J_p count, an ambient S^5(J_2) = J5 + J1 against the
# intrinsic 0, and invariant dimensions above 1
PAYLOAD_OUTPUTS = {
    "fusion-oracle": (
        ["fusion", "--p", "7", "--l", "3", "--r", "5", "--oracle"],
        '{"checks":[{"details":"1 negligible block(s) J7 dropped",'
        '"name":"fusion-oracle p=7 r=3 s=5","passed":true}],"command":"fusion",'
        '"parameters":{"l":3,"oracle":true,"p":7,"r":5},"results":[{"fusion":'
        '"L3 + L5","l":3,"mult":[0,0,1,0,1,0],"p":7,"r":5}],"timestamp":"T",'
        '"versions":{"artifact":"0.1.0"}}\n',
    ),
    "sympow-both": (
        ["sympow", "--p", "5", "--object", "L2", "--degree", "5", "--ambient", "both"],
        '{"checks":[],"command":"sympow","parameters":{"ambient":"both",'
        '"degree":5,"object":"L2","p":5},"results":[{"agree":false,'
        '"jordan":"J5 + J1","jordan_parts":[5,1],"verlinde":"0",'
        '"verlinde_mult":[0,0,0,0]}],"timestamp":"T",'
        '"versions":{"artifact":"0.1.0"}}\n',
    ),
    "symalg-invariants": (
        ["symalg", "--p", "7", "--object", "1+L3", "--max-degree", "8",
         "--report", "invariants"],
        '{"checks":[],"command":"symalg","parameters":{"max_degree":8,'
        '"object":"L1 + L3","p":7,"report":"invariants"},"results":'
        '[{"invariant_dims":[1,1,2,2,3,3,3,3,3]}],"timestamp":"T",'
        '"versions":{"artifact":"0.1.0"}}\n',
    ),
}


@pytest.mark.parametrize("name", sorted(PAYLOAD_OUTPUTS))
def test_payload_exact_output(capsys, name):
    argv, want = PAYLOAD_OUTPUTS[name]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    assert re.sub(r'"timestamp":"[^"]*"', '"timestamp":"T"', out) == want


@pytest.mark.parametrize(
    "argv",
    [
        ["fusion", "--p", "5", "--l", "2", "--r", "2"],
        ["sympow", "--p", "5", "--object", "L2", "--degree", "2"],
        ["svec2", "sympow", "--module", "W", "--degree", "2"],
        ["svec2", "fourth-power", "--module", "W", "--trials", "2"],
        ["svec2", "injectivity", "--sub", "y", "--amb", "W", "--max-degree", "3"],
        ["verify", "--suite", "char0"],
    ],
    ids=["fusion", "sympow", "svec2-sympow", "svec2-fourth-power",
         "svec2-injectivity", "verify"],
)
def test_csv_only_on_symalg(capsys, tmp_path, argv):
    path = tmp_path / "report.json"
    extra = ["--json", str(path)] if argv[0] == "verify" else []
    code, out, _ = run(capsys, *argv, *extra, "--format", "csv")
    assert code == EXIT_USAGE and out == ""
    assert not path.exists()


def test_injectivity_submodule_choice(capsys):
    code, out, _ = run(
        capsys, "svec2", "injectivity", "--sub", "x", "--amb", "W",
        "--max-degree", "3",
    )
    assert code == EXIT_USAGE and out == ""


def test_fusion_oracle_budget(capsys):
    # the oracle materializes J_r (x) J_s: (6*6)^2 entries against 100
    code, out, err = run(
        capsys, "fusion", "--p", "7", "--l", "6", "--r", "6", "--oracle",
        "--max-entries", "100",
    )
    assert code == EXIT_BUDGET and out == ""
    assert "budget" in err


def _peak_bytes(fn):
    """(result of fn(), peak traced allocation in bytes while it ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_symtower_budget_before_any_relation_matrix(capsys):
    # dim X = 40: a dense 1 - swap on X (x) X would hold 40^4 int64 entries;
    # the 40 x 40 q_1 fits the budget, so degree 2 is what is refused
    (code, out, err), peak = _peak_bytes(lambda: run(
        capsys, "sympow", "--p", "5", "--object", "20*L2", "--degree", "2",
        "--max-entries", "1600",
    ))
    assert code == EXIT_BUDGET and out == "" and "S^2: " in err
    assert peak < 8 * 2**20


def test_repzp_relation_refused_before_it_is_formed(capsys):
    # dim X = 200: the 40,000 x 19,900 relation columns would hold 6 GB
    (code, out, err), peak = _peak_bytes(lambda: run(
        capsys, "sympow", "--p", "5", "--object", "200", "--degree", "2",
        "--ambient", "repzp",
    ))
    assert code == EXIT_BUDGET and out == ""
    assert "relation matrix of S^2 needs 796000000 " in err
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "argv, charge",
    [
        # Ver_p's q_1 = 1_X, charged before it is formed at degree 1 and
        # before any tensor frame at degree 2
        (("--object", "3000", "--degree", "1"), "S^1: projection rows needs 9000000 "),
        (("--object", "300", "--degree", "2"), "S^1: projection rows needs 90000 "),
        # the ambient route's dense generator
        (("--object", "3000", "--degree", "1", "--ambient", "repzp"),
         "object 3000 needs 9000000 "),
    ],
    ids=["symtower-degree-1", "symtower-degree-2", "ambient-generator"],
)
def test_large_object_is_refused_before_its_first_array(capsys, argv, charge):
    (code, out, err), peak = _peak_bytes(lambda: run(
        capsys, "sympow", "--p", "5", *argv, "--max-entries", "1000"
    ))
    assert code == EXIT_BUDGET and out == "" and charge in err
    assert peak < 8 * 2**20


# 10^20 - 1 copies of L2: its block list does not fit an index
HUGE = "99999999999999999999*L2"


@pytest.mark.parametrize(
    "argv",
    [
        ("sympow", "--p", "5", "--object", HUGE, "--degree", "1"),
        ("symalg", "--p", "5", "--object", HUGE, "--max-degree", "1", "--report", "invariants"),
    ],
    ids=["sympow", "symalg"],
)
def test_object_past_an_index_is_refused_before_its_blocks(capsys, argv):
    # (dim X)^2 is charged from dim X, before X's blocks are listed
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BUDGET and out == ""
    assert "S^1: projection rows needs 39999999999999999999200000000000000000004 " in err


def test_object_past_an_index_at_degree_zero(capsys):
    code, out, _ = run(capsys, "sympow", "--p", "5", "--object", HUGE, "--degree", "0")
    assert code == EXIT_OK and out.strip() == "L1"


def test_ambient_sympow_fits_the_budget_of_its_tower(capsys):
    # S^9(J_4) at p = 5: the largest array, the relation matrix of S^9,
    # has 475,200 entries; no array grows like dim S^k * 4^k
    code, out, _ = run(
        capsys, "sympow", "--p", "5", "--object", "L4", "--degree", "9",
        "--ambient", "both",
    )
    assert code == EXIT_OK
    assert out.strip() == " + ".join(["J5"] * 44) + " | 0 | agree"


def test_sympow_comparison_asserts_its_law(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "sympow-comparison")
    assert code == EXIT_OK
    assert "[PASS] sympow-comparison below-p  9 instances with m < p agree" in out
    assert "[PASS] sympow-comparison p=3 L2 m=3  ambient L1, intrinsic 0" in out
    assert "9/10 instances agree (informational;" in out


def test_fusion_suite_memory(capsys):
    # the oracle streams its modules through windows of at most 2^20 piece
    # residues, eliminated in sub-batches of at most 2^16 padded entries
    # (4.7 MiB peak); one batch per check reaches 83 MiB
    (code, out, err), peak = _peak_bytes(
        lambda: run(capsys, "verify", "--suite", "fusion")
    )
    assert code == EXIT_OK and "20/20 checks passed" in out
    assert peak < 8 * 2**20


def test_dmodule_spec_budget_before_building_d(capsys):
    # 400*W has an 800 x 800 differential; the budget rejects it unbuilt
    start = time.perf_counter()
    code, out, err = run(
        capsys, "svec2", "sympow", "--module", "400*W", "--degree", "1",
        "--max-entries", "10",
    )
    assert code == EXIT_BUDGET and out == "" and "module 400*W" in err
    assert time.perf_counter() - start < 2.0


def test_large_dmodule_degree_one_is_quick(capsys):
    # d^2 = 0 is checked only through indices where d has a nonzero row
    # and column, and S^1 carries d itself: no dense 800 x 800 products
    start = time.perf_counter()
    code, out, _ = run(capsys, "svec2", "sympow", "--module", "400*W", "--degree", "1")
    assert code == EXIT_OK and out.strip() == "dim 800"
    assert time.perf_counter() - start < 1.0


def test_svec2_injectivity_ambient_starts_with_w(capsys):
    # the sub-line y must map into a leading W summand of the ambient module
    code, out, err = run(
        capsys, "svec2", "injectivity", "--sub", "y", "--amb", "1+W", "--max-degree", "3",
    )
    assert code == EXIT_USAGE and out == ""
    assert "ambient module must start with a W summand" in err


def test_svec2_relation_matrix_only_from_degree_two(capsys):
    # dim X = 60: the degree-2 relations would hold 60^4 int64 entries
    (code, out, _), peak = _peak_bytes(lambda: run(
        capsys, "svec2", "sympow", "--module", "30*W", "--degree", "1",
    ))
    assert code == EXIT_OK and out.strip() == "dim 60"
    assert peak < 8 * 2**20
    (code, out, err), peak = _peak_bytes(lambda: run(
        capsys, "svec2", "sympow", "--module", "30*W", "--degree", "2",
    ))
    assert code == EXIT_BUDGET and out == "" and "relation matrix of S^2" in err
    assert peak < 8 * 2**20


def test_repzp_relation_columns_only_from_degree_two(capsys):
    # dim X = 40: a dense 1 - swap on X (x) X would hold 40^4 int64 entries
    (code, out, _), peak = _peak_bytes(lambda: run(
        capsys, "sympow", "--p", "5", "--object", "10*L4", "--degree", "1",
        "--ambient", "repzp",
    ))
    assert code == EXIT_OK and out.strip() == " + ".join(["J4"] * 10)
    assert peak < 8 * 2**20


OBJECT_SPECS = [
    ("0", 5, (0, 0, 0, 0)),
    ("3", 5, (3, 0, 0, 0)),
    ("2*1", 5, (2, 0, 0, 0)),
    (" 1 + 2*L3 ", 7, (1, 0, 2, 0, 0, 0)),
    ("1+1", 5, (2, 0, 0, 0)),
    ("12", 3, (12, 0)),
    ("l2+L2+0*L4", 5, (0, 2, 0, 0)),
    ("L02", 5, (0, 1, 0, 0)),
    ("1 2 * L 1 1", 13, (0,) * 10 + (12, 0)),
    ("L4+3*L1+1", 5, (4, 0, 0, 1)),
]
DMODULE_SPECS = [
    ("W+1", "W1"),
    ("2*w", "WW"),
    ("1", "1"),
    ("3", "111"),
    ("W + 0", "W"),
    (" 1+ 2*W", "1WW"),
    ("0*1+W", "W"),
    ("2*1+w", "11W"),
    ("3*W+2*1", "WWW11"),
]


@pytest.mark.parametrize("text,p,mult", OBJECT_SPECS)
def test_object_spec_values(text, p, mult):
    assert parse_object_spec(text, p) == VerObject(p, mult)


def _dmodule_of(parts: str):
    out = None
    for part in parts:
        piece = sv.module_w() if part == "W" else sv.trivial(1)
        out = piece if out is None else sv.direct_sum(out, piece)
    return out


def _same_dmodule(a, b) -> bool:
    return a.dim == b.dim and np.array_equal(a.d, b.d)


@pytest.mark.parametrize("text,parts", DMODULE_SPECS)
def test_dmodule_spec_values(text, parts):
    assert _same_dmodule(parse_dmodule_spec(text), _dmodule_of(parts))


def _spaced(draw, text: str) -> str:
    # whitespace anywhere is ignored by both grammars
    return "".join(ch + " " * draw(st.integers(0, 1)) for ch in text)


@st.composite
def object_specs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    mult = [0] * (p - 1)
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        form = draw(st.sampled_from(["unit", "int", "simple", "count*"]))
        k = draw(st.integers(1, p - 1))
        count = draw(st.integers(0, 12))
        name = "1" if k == 1 and draw(st.booleans()) else draw(
            st.sampled_from("Ll")
        ) + str(k)
        if form == "unit":
            terms.append("1")
            mult[0] += 1
        elif form == "int":
            terms.append(str(count))
            mult[0] += count
        elif form == "simple":
            terms.append(name)
            mult[k - 1] += 1
        else:
            terms.append(f"{count}*{name}")
            mult[k - 1] += count
    return _spaced(draw, "+".join(terms)), p, tuple(mult)


@st.composite
def dmodule_specs(draw):
    terms, parts = [], ""
    for _ in range(draw(st.integers(1, 4))):
        name = draw(st.sampled_from(["1", "W", "w"]))
        count = draw(st.one_of(st.none(), st.integers(0, 3)))
        if count is None:
            terms.append(name)
            count = 1
        elif name == "1" and draw(st.booleans()):
            terms.append(str(count))
        else:
            terms.append(f"{count}*{name}")
        parts += ("W" if name in "Ww" else "1") * count
    return _spaced(draw, "+".join(terms)), parts


@settings(max_examples=150, deadline=None)
@given(object_specs())
def test_object_spec_grammar(case):
    text, p, mult = case
    assert parse_object_spec(text, p) == VerObject(p, mult)


@settings(max_examples=150, deadline=None)
@given(dmodule_specs())
def test_dmodule_spec_grammar(case):
    text, parts = case
    if not parts:
        with pytest.raises(UsageError):
            parse_dmodule_spec(text)
    else:
        assert _same_dmodule(parse_dmodule_spec(text), _dmodule_of(parts))


@pytest.mark.parametrize(
    "text",
    ["", "  ", "Q2", "L2+!", "L7", "2x", "L2+", "+L2", "L", "Lx", "2*12",
     "1L2", "L2x", "W"],
)
def test_object_spec_errors_name_a_position(text):
    with pytest.raises(UsageError, match=r"position \d+"):
        parse_object_spec(text, 5)


@pytest.mark.parametrize(
    "text", ["", "V", "W*2", "0*W", "W+", "WW", "W2", "2**W", "1*", "L2"]
)
def test_dmodule_spec_errors_name_a_position(text):
    with pytest.raises(UsageError, match=r"position \d+"):
        parse_dmodule_spec(text)


def test_parser_start_up_leaves_numpy_random_unloaded():
    # loading numpy.random costs about 10 ms of every command's start-up;
    # only the seeded checks that draw from it may import it
    code = (
        "import sys, vercat.cli; vercat.cli.build_parser(); "
        "print('numpy.random' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(vercat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
