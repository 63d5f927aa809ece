"""Command-line front door: computations, verification suites,
machine-readable reports, and a file-backed result cache.

Exit codes: 0 success, 1 verification-check failure, 2 usage error
(including a cache directory or `--json` path that cannot be written),
3 resource budget exceeded.

Every command builds a `Report` and prints nothing; `main` renders it
once.  Reports render as human tables by default, `--format json` emits
a stable schema (documented in the README), and `symalg` also offers
`--format csv`.  Every randomized check records its seed; re-running
with identical flags and seed reproduces the payload byte for byte,
except for the `timestamp` field.

Caching: `--cache-dir` flag, else the VERLINDE_CACHE_DIR environment
variable, else no caching.  One file per entry, keyed by the canonical
parameter string and the effective `--max-entries`; payloads carry a
checksum and corrupted entries are recomputed, never trusted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, graded
from .exactlin import DEFAULT_MAX_ENTRIES, GF, BudgetExceeded, check_budget, matmul_mod
from . import repzp
from .repzp import jordan_module, jordan_type, sym_power, tensor
from . import verlinde
from .verlinde import (
    VerObject,
    fusion_rule,
    poly_factor_check,
    quotient,
    quotients,
    sym_alg_series,
    ver_sym_power,
)
from . import invariants as inv_mod
from . import svec2 as sv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# spec grammar shared by objects of Ver_p and sVec_2 modules: terms joined
# by `+`, each `k*name`, `name`, or a bare integer k (k copies of `1`)
# ---------------------------------------------------------------------------

_TERM = re.compile(r"([0-9]+)(?![0-9*])|(?:([0-9]+)\*)?(1|[A-Za-z][0-9]*)")


def _spec_error(what: str, pos: int, msg: str) -> UsageError:
    return UsageError(f"{what} spec error at position {pos}: {msg}")


def _spec_terms(text: str, what: str, names: str) -> list[tuple[int, str, int]]:
    """(count, name, position) per term; whitespace is ignored and
    positions index `text`.  `names` describes the accepted names."""
    where = [i for i, ch in enumerate(text) if not ch.isspace()]
    s = "".join(text[i] for i in where)

    def at(k: int) -> int:
        return where[k] if k < len(where) else len(text)

    if not s:
        raise _spec_error(what, len(text), f"empty {what} spec")
    terms = []
    i = 0
    while True:
        m = _TERM.match(s, i)
        if m is None:
            raise _spec_error(what, at(i), f"expected {names}")
        bare, count, name = m.groups()
        if bare is not None:
            terms.append((int(bare), "1", at(i)))
        else:
            terms.append((int(count or 1), name, at(m.start(3))))
        i = m.end()
        if i == len(s):
            return terms
        if s[i] != "+":
            raise _spec_error(what, at(i), f"expected '+', got {s[i]!r}")
        i += 1


def parse_object_spec(text: str, p: int) -> VerObject:
    """Parse an object of Ver_p: `1`, `L<k>`, sums, multiplicities `3*L2`."""
    mult = [0] * (p - 1)
    for count, name, pos in _spec_terms(text, "object", "'1' or 'L<k>'"):
        if name == "1":
            k = 1
        elif name[0] in "Ll" and len(name) > 1:
            k = int(name[1:])
            if not 1 <= k <= p - 1:
                raise _spec_error(
                    "object", pos, f"simple index {k} out of range [1, {p - 1}]"
                )
        else:
            raise _spec_error("object", pos, f"expected '1' or 'L<k>', got {name!r}")
        mult[k - 1] += count
    return VerObject(p, tuple(mult))


def parse_dmodule_spec(text: str, max_entries: int | None = None) -> sv.DModule:
    """Parse a nonzero sVec_2 module: `1`, `W`, sums, multiplicities.

    The summands keep their order in `text`, and the block-diagonal d is
    built once, after its dim^2 entries are checked against the budget.
    """
    terms = []
    for count, name, pos in _spec_terms(text, "module", "'1' or 'W'"):
        if name not in ("1", "W", "w"):
            raise _spec_error("module", pos, f"expected '1' or 'W', got {name!r}")
        terms.append((count, 1 if name == "1" else 2))
    dim = sum(count * size for count, size in terms)
    if not dim:
        raise _spec_error("module", 0, "the module is zero")
    check_budget(dim * dim, max_entries, f"module {text.strip()}")
    d = np.zeros((dim, dim), dtype=np.int64)
    start = 0
    for count, size in terms:
        if size == 2:  # each W sends its x to its y
            x = start + 2 * np.arange(count)
            d[x + 1, x] = 1
        start += count * size
    return sv.DModule(d)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class Report:
    """What a command found.  `results`, `checks` and `versions` make the
    JSON payload; `table` (human lines, default: every result row and
    check) and `csv` (rows) are renderings only."""

    command: str
    parameters: dict
    results: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    versions: dict = field(default_factory=dict)
    table: list[str] | None = None
    csv: list[list] | None = None

    def add_check(self, name: str, passed: bool, details: str = "") -> None:
        self.checks.append({"name": name, "passed": bool(passed), "details": details})

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "results": self.results,
            "checks": self.checks,
            "versions": {"artifact": __version__, **self.versions},
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def lines(self) -> list[str]:
        if self.table is not None:
            return self.table
        rows = [
            row["line"]
            if set(row) == {"line"}
            else "  ".join(f"{k}={v}" for k, v in row.items())
            for row in self.results
        ]
        for c in self.checks:
            details = f"  {c['details']}" if c["details"] else ""
            rows.append(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}{details}")
        return rows


def emit(report: Report, fmt: str) -> None:
    if fmt == "json":
        lines = [report.to_json()]
    elif fmt == "csv":
        lines = [",".join(str(x) for x in row) for row in report.csv]
    else:
        lines = report.lines()
    for line in lines:
        print(line)


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------


class ResultCache:
    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, key: str) -> str:
        name = hashlib.sha256(key.encode()).hexdigest()[:32]
        return os.path.join(self.directory, name + ".json")

    @staticmethod
    def _checksum(value) -> str:
        blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def get(self, key: str):
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != __version__
            or payload.get("key") != key
            or payload.get("checksum") != self._checksum(payload.get("value"))
        ):
            return None  # corrupted or stale: recompute, never trust
        return payload["value"]

    def put(self, key: str, value) -> None:
        payload = {
            "version": __version__,
            "key": key,
            "value": value,
            "checksum": self._checksum(value),
            "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        # write a temporary file next to the entry, then rename it over the
        # entry: a write that fails midway leaves the old entry intact
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, self._path(key))
        except BaseException:
            os.unlink(tmp)
            raise


def cached(args, key: str, compute):
    """compute(), through the result cache when one is configured; the key
    ends with the effective budget, so no entry crosses budgets."""
    directory = None if args.no_cache else (
        args.cache_dir or os.environ.get("VERLINDE_CACHE_DIR")
    )
    if not directory:
        return compute()
    budget = DEFAULT_MAX_ENTRIES if args.max_entries is None else args.max_entries
    key += f"|max_entries={budget}"
    cache = ResultCache(directory)
    value = cache.get(key)
    if value is None:
        value = compute()
        cache.put(key, value)
    return value


# ---------------------------------------------------------------------------
# commands: each returns a Report and prints nothing
# ---------------------------------------------------------------------------


def cmd_fusion(args) -> Report:
    p = args.p
    r, s = args.l, args.r
    if not (1 <= r <= p - 1 and 1 <= s <= p - 1):
        raise UsageError(f"simple indices must lie in [1, {p - 1}]")
    result = VerObject(p, fusion_rule(p, r, s))
    report = Report("fusion", {"p": p, "l": r, "r": s, "oracle": bool(args.oracle)})
    line = str(result)
    report.results.append(
        {"p": p, "l": r, "r": s, "fusion": str(result), "mult": list(result.mult)}
    )
    if args.oracle:
        # the oracle materializes J_r (x) J_s as a dense (rs x rs) matrix
        check_budget((r * s) ** 2, args.max_entries, f"fusion oracle J{r} (x) J{s}")
        image = quotient(tensor(jordan_module(p, [r]), jordan_module(p, [s])))
        dropped = (r * s - image.dim) // p  # only the size-p blocks are dropped
        agree = image == result
        report.add_check(
            f"fusion-oracle p={p} r={r} s={s}",
            agree,
            f"{dropped} negligible block(s) J{p} dropped",
        )
        suffix = "agrees" if agree else "DISAGREES"
        line += f" (oracle {suffix}; {dropped} negligible block J{p} dropped)"
    report.table = [line] + [
        f"[FAIL] {c['name']}" for c in report.checks if not c["passed"]
    ]
    return report


def cmd_sympow(args) -> Report:
    p = args.p
    x = parse_object_spec(args.object, p)

    def compute() -> dict:
        value = {}
        if args.ambient in ("repzp", "both"):
            # the generator is a dense dim(X)^2 matrix
            check_budget(x.dim * x.dim, args.max_entries, f"object {args.object.strip()}")
            mod = jordan_module(p, list(x.block_sizes()))
            parts = jordan_type(sym_power(mod, args.degree, args.max_entries))
            value["jordan"] = " + ".join(f"J{k}" for k in parts) or "0"
            value["jordan_parts"] = list(parts)
        if args.ambient in ("verlinde", "both"):
            v = ver_sym_power(x, args.degree, args.max_entries)
            value["verlinde"] = str(v)
            value["verlinde_mult"] = list(v.mult)
        if args.ambient == "both":
            amb = VerObject.from_blocks(p, value["jordan_parts"])
            value["agree"] = list(amb.mult) == value["verlinde_mult"]
        return value

    key = f"sympow|p={p}|object={x}|degree={args.degree}|ambient={args.ambient}"
    value = cached(args, key, compute)
    fields = [value[k] for k in ("jordan", "verlinde") if k in value]
    if "agree" in value:
        fields.append("agree" if value["agree"] else "disagree")
    return Report(
        "sympow",
        {"p": p, "object": str(x), "degree": args.degree, "ambient": args.ambient},
        results=[value],
        table=[" | ".join(fields)],
    )


def _series_payload(x: VerObject, depth: int, max_entries) -> dict:
    series = sym_alg_series(x, depth, max_entries)
    ok, y = poly_factor_check(series, x.mult_of(1))
    return {
        "series": [list(d.mult) for d in series.degrees],
        "series_str": [str(d) for d in series.degrees],
        "finite": series.finite,
        "total_dim": series.total.dim if series.total else None,
        "factor_check": ok,
        "factor_Y": str(y) if y is not None else None,
        "factor_Y_dim": y.dim if y is not None else None,
    }


def _symalg_payload(x: VerObject, depth: int, which: str, max_entries) -> dict:
    """The JSON result of `symalg --report which`."""
    if which == "hilbert":
        return _series_payload(x, depth, max_entries)
    if which == "module-finiteness":
        selected, stabilized = inv_mod.module_finiteness_check(x, depth, max_entries)
        return {"module_generators": [[m, i] for m, i in selected], "stabilized": stabilized}
    alg = inv_mod.build_invariant_algebra(x, depth, max_entries)
    if which == "invariants":
        return {"invariant_dims": list(alg.dims)}
    return {"generator_degrees": [[m, c] for m, c in inv_mod.generator_degrees(alg)]}


def cmd_symalg(args) -> Report:
    p = args.p
    x = parse_object_spec(args.object, p)
    depth = args.max_degree
    report = Report(
        "symalg",
        {"p": p, "object": str(x), "max_degree": depth, "report": args.report},
    )
    value = cached(
        args,
        f"symalg:{args.report}|p={p}|object={x}|degree={depth}",
        lambda: _symalg_payload(x, depth, args.report, args.max_entries),
    )
    if args.report == "hilbert":
        line = ", ".join(value["series_str"])
        line += f"; {'finite' if value['finite'] else 'truncated'}"
        if value["total_dim"] is not None:
            line += f"; Y dim {value['total_dim']}"
        line += f"; factor check {'passes' if value['factor_check'] else 'fails'}"
        if value["factor_Y"] is not None:
            line += f" with Y = {value['factor_Y']}"
        report.table = [line]
        report.csv = [["degree"] + [f"L{i}" for i in range(1, p)]]
        report.csv += [[m] + mult for m, mult in enumerate(value["series"])]
    elif args.report == "module-finiteness":
        gens = ", ".join(f"(deg {m}, L{i})" for m, i in value["module_generators"])
        report.table = [
            f"module generators over invariants: {gens}; "
            f"{'stabilized' if value['stabilized'] else 'NOT stabilized'} "
            "(evidence up to truncation, not a proof)"
        ]
        report.csv = [["degree", "simple"]] + value["module_generators"]
    elif args.report == "invariants":
        dims = value["invariant_dims"]
        report.table = ["invariant dims: " + ", ".join(str(d) for d in dims)]
        report.csv = [["degree", "invariant_dim"]] + [[m, d] for m, d in enumerate(dims)]
    else:
        gens = value["generator_degrees"]
        report.table = ["new generators per degree: " + ", ".join(f"{m}:{c}" for m, c in gens)]
        report.csv = [["degree", "new_generators"]] + gens
    report.results.append(value)
    return report


def cmd_svec2_sympow(args) -> Report:
    alg = sv.sym_algebra(
        parse_dmodule_spec(args.module, args.max_entries), args.degree, args.max_entries
    )
    dim = alg.dims[args.degree]
    return Report(
        "svec2 sympow",
        {"module": args.module, "degree": args.degree},
        results=[{"dims": alg.dims, "dim": dim}],
        table=[f"dim {dim}"],
    )


def cmd_svec2_fourth_power(args) -> Report:
    if args.max_degree < 4 or args.trials < 1:
        raise UsageError("fourth-power needs --max-degree >= 4 and --trials >= 1")
    mod = parse_dmodule_spec(args.module, args.max_entries)
    rep = sv.fourth_power_checks(
        mod, args.max_degree, args.trials, args.seed, args.max_entries
    )
    report = Report(
        "svec2 fourth-power",
        {"module": args.module, "max_degree": args.max_degree, "trials": args.trials},
        versions={"seed": args.seed},
    )
    for name, val in rep.items():
        report.add_check(name, val)
    return report


def _y_line_injectivity(amb: sv.DModule, depth: int, max_entries) -> int | None:
    """First degree where S(<y>) -> S(amb) fails to be injective, for the
    line <y> spanned by y in the leading W summand of `amb`; None if none."""
    incl = np.eye(amb.dim, 1, -1, dtype=np.int64)  # the unit vector at y
    return sv.injectivity_check(sv.trivial(1), amb, incl, depth, max_entries)


def cmd_svec2_injectivity(args) -> Report:
    amb = parse_dmodule_spec(args.amb, args.max_entries)
    if amb.dim < 2 or not np.array_equal(amb.d[:2, :2], sv.module_w().d):
        raise UsageError("ambient module must start with a W summand")
    fail = _y_line_injectivity(amb, args.max_degree, args.max_entries)
    if fail is None:
        row = {"line": f"injective up to degree {args.max_degree}"}
    else:
        row = {"line": f"fails at degree {fail} (y^2 = 0)", "degree": fail}
    return Report(
        "svec2 injectivity",
        {"sub": args.sub, "amb": args.amb, "max_degree": args.max_degree},
        results=[row],
        table=[row["line"]],
    )


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _rule_range_without_pr_bound(p: int, r: int, s: int) -> tuple[int, int]:
    """`verlinde._rule_range` with its p - r bound dropped."""
    return abs(r - s) + 1, min(r + s, abs(r - s) + 2 * (p - s), p) - 1


#: Negative controls: `--mutate` name -> (suite, owner, attribute, a stand-in
#: for owner.attribute while that suite runs), failing through the library
MUTANTS = {"drop-pr-bound": ("fusion", verlinde, "_rule_range", _rule_range_without_pr_bound)}

#: The primes the fusion suite checks; `--p-max` must lie in their range.
VERIFY_PRIMES = (3, 5, 7, 11, 13)


def suite_fusion(report: Report, args) -> None:
    primes = [p for p in VERIFY_PRIMES if p <= args.p_max]
    for p in primes:
        grid = [(r, s) for r in range(1, p) for s in range(1, p)]
        blocks = (tensor(jordan_module(p, [r]), jordan_module(p, [s])) for r, s in grid)
        bad = None  # the first counterexample
        for (r, s), oracle in zip(grid, quotients(blocks)):
            formula = VerObject(p, fusion_rule(p, r, s))
            if formula != oracle and bad is None:
                bad = (
                    f"counterexample (p,r,s)=({p},{r},{s}): "
                    f"formula {formula} vs oracle {oracle}"
                )
        count = f"{(p - 1) ** 2} instances"
        report.add_check(f"fusion-oracle p={p}", bad is None, bad or count)
    for p in [q for q in primes if q <= 11]:
        # the ring laws, read off the table t[r-1, s-1] = fusion_rule(p, r, s)
        # by contractions: (L_r L_s) L_t and L_r (L_s L_t), indexed [r, s, t]
        t = np.array([[fusion_rule(p, r, s) for s in range(1, p)] for r in range(1, p)])
        left = np.einsum("rsu,utv->rstv", t, t)
        right = np.einsum("stu,ruv->rstv", t, t)
        report.add_check(f"fusion-commutative p={p}", np.array_equal(t, t.transpose(1, 0, 2)))
        report.add_check(f"fusion-associative p={p}", np.array_equal(left, right))
        ok_unit = np.array_equal(t[:, :, 0], np.eye(p - 1))
        report.add_check(f"unit-pairing p={p}", ok_unit, "mult of L1 is delta_ij")
    rng = random.Random(args.seed)

    def drawn(p):
        # T = a (x) b, a and b for each of 100 seeded pairs, drawn lazily
        for _ in range(100):
            a = jordan_module(p, [rng.randint(1, p) for _ in range(rng.randint(1, 3))])
            b = jordan_module(p, [rng.randint(1, p) for _ in range(rng.randint(1, 3))])
            yield from (tensor(a, b), a, b)

    for p in [q for q in primes if q <= 7]:
        images = quotients(drawn(p))
        # every pair is drawn and checked, so a failure leaves the draws alone
        ok = True
        for t, a, b in zip(images, images, images):  # consecutive triples
            ok &= t == verlinde.fusion(a, b)
        report.add_check(f"quotient-monoidal p={p}", ok, "100 random pairs, seeded")


def suite_sympow(report: Report, args) -> None:
    max_entries = args.max_entries
    for p in (3, 5, 7):
        bad = None  # the first counterexample
        for n in range(1, min(5, p)):
            for m in range(7):
                smod = sym_power(jordan_module(p, [n]), m, max_entries)
                want = math.comb(n + m - 1, n - 1)
                if smod.dim != want and bad is None:
                    bad = (p, n, m, smod.dim, want)
        report.add_check(
            f"sym-dim-binomial p={p}",
            bad is None,
            f"counterexample {bad}" if bad else "grid n<=4, m<=6",
        )
    for p in (3, 5, 7, 11):
        if p > args.p_max:
            continue
        ns = range(2, p) if p <= 7 else range(2, 6)
        bad = None  # the first counterexample
        for n in ns:
            v = ver_sym_power(VerObject.simple(p, n), p - n + 1, max_entries)
            if not v.is_zero() and bad is None:
                bad = (p, n)
        report.add_check(
            f"sympow-vanishing p={p}",
            bad is None,
            f"fails at {bad}" if bad else f"S^(p-n+1)(L_n) = 0 for n in {list(ns)}",
        )
    rng = random.Random(args.seed)
    ok = True
    for _ in range(100):
        p = rng.choice((3, 5, 7))
        a = jordan_module(p, [rng.randint(1, p) for _ in range(rng.randint(1, 2))])
        b = jordan_module(p, [rng.randint(1, p) for _ in range(rng.randint(1, 2))])
        c = matmul_mod(repzp.braiding(b, a), repzp.braiding(a, b), p)
        ok &= np.array_equal(c, np.eye(a.dim * b.dim, dtype=np.int64))
    report.add_check("braiding-symmetry repzp", ok, "100 random pairs, seeded")
    # S(X+Y) outgrows the default budget: 2L2+2L3 at p = 5 (seed 12) forms a
    # 1,392,000-entry array, so this check runs at 2^24 unless one is given
    budget = max_entries if max_entries is not None else 2**24
    for p in (3, 5):
        ok = True
        rng2 = random.Random(args.seed + p)
        for _ in range(5):
            mult_x = [0] * (p - 1)
            mult_y = [0] * (p - 1)
            for m in (mult_x, mult_y):
                for i in rng2.sample(range(p - 1), rng2.randint(1, 2)):
                    m[i] = 1
            x = VerObject(p, tuple(mult_x))
            y = VerObject(p, tuple(mult_y))
            lhs = sym_alg_series(x + y, 6, budget)
            rhs = verlinde.series_product(
                sym_alg_series(x, 6, budget), sym_alg_series(y, 6, budget)
            )
            ok &= lhs.degrees == rhs.degrees
        report.add_check(
            f"series-sum-product p={p}", ok, "S(X+Y) = S(X)*S(Y) degreewise, 5 pairs"
        )


def suite_sympow_comparison(report: Report, args) -> None:
    # does the quotient functor commute with S^m?  Below degree p it does
    # (the symmetrizer splits S^m off X^(x)m, and additive functors keep
    # the splitting); from degree p on it can fail, and the first instance,
    # p=3, L2, m=3, is pinned.  The results rows are the experiment itself.
    instances = [(3, 2, 2), (3, 2, 3), (5, 2, 2), (5, 2, 4), (5, 3, 2)]
    instances += [(5, 3, 3), (5, 4, 2), (7, 2, 3), (7, 3, 2), (7, 2, 6)]
    agree = 0
    got = {}  # instance -> (ambient, intrinsic) as strings
    for p, n, m in instances:
        ambient = quotient(sym_power(jordan_module(p, [n]), m, args.max_entries))
        intrinsic = ver_sym_power(VerObject.simple(p, n), m, args.max_entries)
        agree += ambient == intrinsic
        got[p, n, m] = (str(ambient), str(intrinsic))
        report.results.append(
            {"p": p, "object": f"L{n}", "degree": m, "ambient": str(ambient),
             "intrinsic": str(intrinsic), "agree": ambient == intrinsic}
        )
    report.results.append(
        {
            "line": f"sympow-comparison experiment: {agree}/{len(instances)} "
            "instances agree (informational; agreement is not a law once the "
            "degree reaches p)"
        }
    )
    below = [k for k in instances if k[2] < k[0]]
    diverge = [k for k in below if got[k][0] != got[k][1]]
    report.add_check(
        "sympow-comparison below-p",
        not diverge,
        f"disagree at {diverge}" if diverge else f"{len(below)} instances with m < p agree",
    )
    ambient, intrinsic = got[3, 2, 3]
    report.add_check(
        "sympow-comparison p=3 L2 m=3",
        (ambient, intrinsic) == ("L1", "0"),
        f"ambient {ambient}, intrinsic {intrinsic}",
    )


def suite_invariants(report: Report, args) -> None:
    seed, max_entries = args.seed, args.max_entries
    x = VerObject(5, (1, 1, 0, 0))
    alg = inv_mod.build_invariant_algebra(x, 10, max_entries)
    gens = inv_mod.generator_degrees(alg)
    tail_zero = all(c == 0 for m, c in gens if m >= 2)
    report.add_check(
        "generator-degrees p=5 X=1+L2",
        tail_zero,
        f"counts {[c for _, c in gens]}",
    )
    # tautological: sym_alg_series reads the very same built degrees (the
    # command's towers on one key share them), until the closed form for
    # S^m (ROADMAP item 2) replaces the right side
    series = sym_alg_series(x, 10, max_entries)
    cross = all(alg.dims[m] == series[m].mult_of(1) for m in range(11))
    report.add_check("invariant-dims-match-sympow p=5 X=1+L2", cross)
    selected, stabilized = inv_mod.module_finiteness_check(x, 10, max_entries)
    report.add_check(
        "module-finiteness p=5 X=1+L2",
        stabilized,
        f"{len(selected)} generators, max degree {max(m for m, _ in selected)}",
    )
    report.add_check(
        "isotypic-stability p=5 X=1+L2",
        inv_mod.isotypic_stability_check(x, 10, 100, seed, max_entries),
        "100 seeded trials",
    )
    report.add_check(
        "frobenius p=5 X=1+L2 D=10",
        inv_mod.frobenius_check(alg, 50, seed),
        "50 random pairs",
    )
    alg3 = inv_mod.build_invariant_algebra(VerObject(3, (1, 1)), 9, max_entries)
    report.add_check(
        "frobenius p=3 X=1+L2 D=9",
        inv_mod.frobenius_check(alg3, 50, seed),
        "50 random pairs",
    )
    x5 = VerObject.simple(5, 2)
    alg5 = inv_mod.build_invariant_algebra(x5, 6, max_entries)
    report.add_check(
        "invariants p=5 X=L2 constants-only",
        alg5.dims == [1, 0, 0, 0, 0, 0, 0],
    )


def suite_svec2(report: Report, args) -> None:
    seed, max_entries = args.seed, args.max_entries
    w = sv.module_w()
    fail = _y_line_injectivity(w, 5, max_entries)
    report.add_check(
        "svec2-noninjectivity <y> in W",
        fail == 2,
        f"fails first at degree {fail} (y^2 = 0)",
    )
    alg = sv.sym_algebra(w, 8, max_entries)
    report.add_check("svec2 dim S^2(W) = 2", alg.dims[2] == 2)
    labelled = (("S(W)", w), ("S(W+1)", sv.direct_sum(w, sv.trivial(1))))
    for label, mod in labelled:
        rep = sv.fourth_power_checks(mod, 8, 200, seed, max_entries)
        for name, val in rep.items():
            report.add_check(f"svec2 {label} {name}", val, "200 trials")
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(100):
        dims = rng.integers(1, 5, size=2)
        a, b = (sv.random_dmodule(rng, int(dim)) for dim in dims)
        eye = np.eye(a.dim * b.dim, dtype=np.int64)
        ok &= np.array_equal(matmul_mod(sv.braiding(b, a), sv.braiding(a, b), 2), eye)
    report.add_check("svec2 braiding-symmetry", ok, "100 random pairs, seeded")
    # d-commutativity of every pair of degree-basis classes of S(W), S(W+1),
    # all pairs in one batch
    for label, mod in labelled:
        alg6 = sv.sym_algebra(mod, 6, max_entries)
        pairs = [
            (alg6.from_vector(da, ea), alg6.from_vector(db, eb))
            for da in range(1, 4)
            for db in range(1, 4)
            for ea in np.eye(alg6.dims[da], dtype=np.int64)
            for eb in np.eye(alg6.dims[db], dtype=np.int64)
        ]
        a_el = alg6.stack([a for a, _ in pairs])
        b_el = alg6.stack([b for _, b in pairs])
        comm = alg6.add(alg6.mul(a_el, b_el), alg6.mul(b_el, a_el))
        dd = alg6.mul(alg6.dmap(a_el), alg6.dmap(b_el))
        report.add_check(
            f"svec2 {label} d-commutativity", alg6.equal(comm, dd), "all basis pairs"
        )
    # fourth powers in S(W) are invariant and span a commutative subalgebra
    fourths = alg.power(alg.random_batch(np.random.default_rng(seed + 1), 20, 2), 4)
    ok_inv = alg.equal(alg.dmap(fourths), alg.zero())
    i, j = np.triu_indices(20, k=1)  # every pair i < j
    left = {m: c[i] for m, c in fourths.items()}
    right = {m: c[j] for m, c in fourths.items()}
    ok_comm = alg.equal(alg.mul(left, right), alg.mul(right, left))
    report.add_check("svec2 fourth-powers-invariant", ok_inv, "20 random elements")
    report.add_check("svec2 fourth-powers-commute", ok_comm)


def suite_char0(report: Report, args) -> None:
    max_degree = args.max_degree
    counts = inv_mod.char0_counterexample(max_degree)
    ok = all(c == 1 for m, c in counts if 3 <= m <= max_degree)
    report.add_check(
        "char0-new-generator-every-degree",
        ok,
        f"EXPECTED-NONTERMINATION demo: new generator in every degree 3..{max_degree}",
    )
    report.results.append({"generator_counts": counts})


SUITES = ("fusion", "sympow", "sympow-comparison", "invariants", "svec2", "char0")


def cmd_verify(args) -> Report:
    params = {k: getattr(args, k) for k in ("suite", "p_max", "max_degree", "mutate")}
    report = Report("verify", params, versions={"seed": args.seed})
    suites = SUITES if args.suite == "all" else (args.suite,)
    if args.p_max < VERIFY_PRIMES[0]:
        raise UsageError(
            f"--p-max must be at least {VERIFY_PRIMES[0]}, the smallest prime checked"
        )
    if args.p_max > VERIFY_PRIMES[-1]:
        raise UsageError(
            f"--p-max must be at most {VERIFY_PRIMES[-1]}, the largest prime checked"
        )
    if "char0" in suites and args.max_degree < 3:
        raise UsageError("the char0 suite needs --max-degree >= 3")
    target, owner, attr, replacement = MUTANTS.get(args.mutate, (None,) * 4)
    for name in suites:
        # looked up at call time, so a wrapper rebound on this module runs
        suite = globals()["suite_" + name.replace("-", "_")]
        if name != target:
            suite(report, args)
            continue
        # the mutant's towers go to a store of their own, not to later suites
        original = getattr(owner, attr)
        setattr(owner, attr, replacement)
        try:
            with graded.tower_store():
                suite(report, args)
        finally:
            setattr(owner, attr, original)
    passed = sum(c["passed"] for c in report.checks)
    report.table = report.lines() + [f"{passed}/{len(report.checks)} checks passed"]
    return report


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(sp, cache: bool = False, csv: bool = False) -> None:
    formats = ("table", "json", "csv") if csv else ("table", "json")
    sp.add_argument("--format", choices=formats, default="table")
    sp.add_argument("--max-entries", type=_budget, default=None)
    if cache:
        sp.add_argument("--cache-dir", default=None)
        sp.add_argument("--no-cache", action="store_true")


def _prime(text: str) -> int:
    value = int(text)
    try:
        GF(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


def _nonnegative(what: str):
    """A parser type for a nonnegative integer, named `what` in errors."""

    def parse(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"{what} must be nonnegative, got {value}")
        return value

    parse.__name__ = what  # argparse's "invalid <name> value" message
    return parse


_degree = _nonnegative("degree")
_seed = _nonnegative("seed")  # numpy's seeded generators take nonnegative seeds only
_budget = _nonnegative("budget")  # 0 is a budget: only empty arrays fit


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vercat",
        description="Exact computations in Ver_p and sVec_2",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fusion = sub.add_parser("fusion", help="fusion product of two simples")
    p_fusion.add_argument("--p", type=_prime, required=True)
    p_fusion.add_argument("--l", type=int, required=True, help="left simple index")
    p_fusion.add_argument("--r", type=int, required=True, help="right simple index")
    p_fusion.add_argument(
        "--oracle", action="store_true", help="also run the Jordan-decomposition path"
    )
    _add_common(p_fusion)
    p_fusion.set_defaults(func=cmd_fusion)

    p_sympow = sub.add_parser("sympow", help="symmetric power of an object")
    p_sympow.add_argument("--p", type=_prime, required=True)
    p_sympow.add_argument("--object", required=True, help="e.g. L2 or 1+L2 or 2*L3")
    p_sympow.add_argument("--degree", type=_degree, required=True)
    p_sympow.add_argument(
        "--ambient", choices=("repzp", "verlinde", "both"), default="verlinde"
    )
    _add_common(p_sympow, cache=True)
    p_sympow.set_defaults(func=cmd_sympow)

    p_symalg = sub.add_parser("symalg", help="symmetric algebra reports")
    p_symalg.add_argument("--p", type=_prime, required=True)
    p_symalg.add_argument("--object", required=True)
    p_symalg.add_argument("--max-degree", type=_degree, required=True)
    p_symalg.add_argument(
        "--report",
        choices=("hilbert", "invariants", "generators", "module-finiteness"),
        default="hilbert",
    )
    _add_common(p_symalg, cache=True, csv=True)
    p_symalg.set_defaults(func=cmd_symalg)

    p_sv = sub.add_parser("svec2", help="characteristic-2 supervector computations")
    svsub = p_sv.add_subparsers(dest="svec2_command", required=True)
    p_sv_sympow = svsub.add_parser("sympow")
    p_sv_sympow.add_argument("--module", required=True, help="e.g. W or W+1")
    p_sv_sympow.add_argument("--degree", type=_degree, required=True)
    _add_common(p_sv_sympow)
    p_sv_sympow.set_defaults(func=cmd_svec2_sympow)
    p_sv_fp = svsub.add_parser("fourth-power")
    p_sv_fp.add_argument("--module", required=True)
    p_sv_fp.add_argument("--trials", type=int, default=200)
    p_sv_fp.add_argument("--seed", type=_seed, default=0)
    p_sv_fp.add_argument("--max-degree", type=_degree, default=8)
    _add_common(p_sv_fp)
    p_sv_fp.set_defaults(func=cmd_svec2_fourth_power)
    p_sv_inj = svsub.add_parser("injectivity")
    p_sv_inj.add_argument(
        "--sub", required=True, choices=("y",), help="submodule spec: y"
    )
    p_sv_inj.add_argument("--amb", required=True, help="ambient spec, e.g. W or W+1")
    p_sv_inj.add_argument("--max-degree", type=_degree, required=True)
    _add_common(p_sv_inj)
    p_sv_inj.set_defaults(func=cmd_svec2_injectivity)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p_verify.add_argument("--p-max", type=int, default=VERIFY_PRIMES[-1])
    p_verify.add_argument("--max-degree", type=_degree, default=8)
    p_verify.add_argument("--seed", type=_seed, default=0)
    p_verify.add_argument("--json", dest="json_out", default=None)
    p_verify.add_argument(
        "--mutate",
        choices=tuple(MUTANTS),
        default=None,
        help="negative control: corrupt the fusion formula",
    )
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # one store per command: every tower it builds is built once
        with graded.tower_store():
            report = args.func(args)
        if getattr(args, "json_out", None):
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        # the only files a command touches are the cache and --json
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    emit(report, args.format)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
