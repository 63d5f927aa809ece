"""Graded invariant algebras of symmetric algebras in Ver_p.

Invariant spaces are modeled as multiplicity spaces: the degree-m
invariants of S(X) are the classes of maps from the unit object into the
realized degree-m module, which is a literal direct sum of Jordan blocks.
There is no fiber functor to vector spaces, so multiplicity spaces are
the only faithful concrete model; the size-1 blocks of the realization
give a canonical basis, and products are computed through the
multiplication classes of the symmetric-power tower.

The characteristic-0 counterexample lives here as well: the invariants
of Q[x] (x) Lambda(y, z) with the odd derivation x -> y acquire one new
generator in every degree, the behaviour positive characteristic rules
out.  It is the only rational-field computation in the package.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from . import graded
from .exactlin import kernel, rank
from .repzp import jordan_module
from .verlinde import SymTower, VerObject, ver_sym_power


class InvariantAlgebra(graded.TruncatedAlgebra):
    """The truncated invariant algebra of S(X) in Ver_p.

    Degree-m invariants carry the canonical basis given by the size-1
    blocks of the realized symmetric power; `basis_seed` optionally
    permutes that basis (used to check basis-independence of reported
    generator counts).  Products of basis classes are exact structure
    constants over GF(p); elements are those of `graded.TruncatedAlgebra`
    with `dims` the invariant dimensions.
    """

    def __init__(
        self,
        x: VerObject,
        depth: int,
        max_entries: int | None = None,
        basis_seed: int | None = None,
    ):
        self.x = x
        self.p = x.p
        self.depth = depth
        self.tower = SymTower(x, depth, max_entries)
        self._inv_offsets: list[list[int]] = []
        rng = random.Random(basis_seed) if basis_seed is not None else None
        for m in range(depth + 1):
            offs = self.tower.block_offsets(m, 1)
            if rng is not None:
                rng.shuffle(offs)
            self._inv_offsets.append(offs)
        self.dims = [len(offs) for offs in self._inv_offsets]
        if self.inv_dim(0) != 1:
            raise AssertionError("degree 0 must be one-dimensional")
        self._products: dict[tuple[int, int], np.ndarray] = {}

    # -- degree data ---------------------------------------------------------

    def inv_dim(self, m: int) -> int:
        return self.dims[m]

    def inv_dims(self) -> list[int]:
        return list(self.dims)

    def iso_dim(self, m: int, i: int) -> int:
        return len(self.tower.block_offsets(m, i))

    def iso_matrix(self, m: int, i: int, coords: np.ndarray) -> np.ndarray:
        """Representative map J_i -> V_m for type-i class coordinates."""
        dim = self.tower.dim(m)
        h = np.zeros((dim, i), dtype=np.int64)
        for t, off in enumerate(self.tower.block_offsets(m, i)):
            c = int(coords[t]) % self.p
            for k in range(i):
                h[off + k, k] = c
        return h

    def iso_class_of(self, m: int, i: int, h: np.ndarray) -> np.ndarray:
        """Class coordinates of an exact intertwiner h: J_i -> V_m."""
        offs = self.tower.block_offsets(m, i)
        return np.array([h[o, 0] % self.p for o in offs], dtype=np.int64)

    # -- products ------------------------------------------------------------

    def product_table(self, a: int, b: int) -> np.ndarray:
        """Structure constants: table[k, l] = coords of (e_k^a) * (e_l^b).

        The invariant rows and columns of mu(a, b), read as a
        (dim a) x (dim b) x (dim a+b) tensor.
        """
        key = (a, b)
        if key not in self._products:
            tw, offs = self.tower, self._inv_offsets
            mu = tw.mu(a, b).reshape(tw.dim(a + b), tw.dim(a), tw.dim(b))
            table = mu[np.ix_(offs[a + b], offs[a], offs[b])].transpose(1, 2, 0)
            self._products[key] = np.ascontiguousarray(table)
        return self._products[key]

    def multiply_coords(
        self, a: int, ca: np.ndarray, b: int, cb: np.ndarray
    ) -> np.ndarray:
        p = self.p
        return graded.contract(ca % p, cb % p, self.product_table(a, b), p)

    def mul(self, u: dict, v: dict) -> dict:
        # every product, powers included, enters through mul_elems, so a
        # trace of mul_elems counts all of them
        return self.mul_elems(u, v)

    def mul_elems(self, u: dict, v: dict) -> dict:
        """Product of inhomogeneous elements (dicts degree -> coords)."""
        return graded.TruncatedAlgebra.mul(self, u, v)


def build_invariant_algebra(
    x: VerObject,
    depth: int,
    max_entries: int | None = None,
    basis_seed: int | None = None,
) -> InvariantAlgebra:
    """Invariant degree spaces and product data of S(X) up to `depth`."""
    return InvariantAlgebra(x, depth, max_entries, basis_seed)


def generator_degrees(alg: InvariantAlgebra) -> list[tuple[int, int]]:
    """Per degree: how many invariants are not products of lower degrees.

    Evidence for finite generation up to the truncation is a tail of
    zeros; the counts themselves are basis-independent (they are
    codimensions of product spans).
    """
    out = []
    for m in range(alg.depth + 1):
        dim = alg.inv_dim(m)
        if m == 0 or dim == 0:
            out.append((m, dim))
            continue
        rows = [alg.product_table(a, m - a).reshape(-1, dim) for a in range(1, m)]
        new = dim - (rank(np.vstack(rows), alg.p) if rows else 0)
        out.append((m, new))
    return out


def module_finiteness_check(
    x: VerObject, depth: int, max_entries: int | None = None
) -> tuple[list[tuple[int, int]], bool]:
    """Greedy homogeneous module generators of A = S(X) over its invariants.

    Walks the degrees upward and, per simple type, selects canonical
    isotypic classes not contained in (invariants) * (previous
    selections).  Returns the selected (degree, simple index) list and a
    stabilization flag: no selection in the top ceil(depth/3) degrees.
    The flag is evidence up to the truncation, not a proof.
    """
    alg = InvariantAlgebra(x, depth, max_entries)
    p = alg.p
    selected: list[tuple[int, int]] = []
    # per (degree, type): list of selected class-coordinate vectors
    chosen: dict[tuple[int, int], list[np.ndarray]] = {}
    for m in range(depth + 1):
        for i in range(1, p):
            dim_mi = alg.iso_dim(m, i)
            if dim_mi == 0:
                continue
            rows = []
            for a in range(1, m + 1):
                if alg.inv_dim(a) == 0:
                    continue
                prev = chosen.get((m - a, i), [])
                if not prev:
                    continue
                mu = alg.tower.mu(a, m - a)
                dim_prev = alg.tower.dim(m - a)
                for inv_off in alg._inv_offsets[a]:
                    for t_coords in prev:
                        psi = alg.iso_matrix(m - a, i, t_coords)
                        phi = np.zeros((alg.tower.dim(a), 1), dtype=np.int64)
                        phi[inv_off, 0] = 1
                        h = (mu @ np.kron(phi, psi)) % p
                        rows.append(alg.iso_class_of(m, i, h))
            span_rows = [r for r in rows if np.any(r)]
            span_rank = rank(np.asarray(span_rows), p) if span_rows else 0
            for k in range(dim_mi):
                e = np.zeros(dim_mi, dtype=np.int64)
                e[k] = 1
                trial_rows = span_rows + [e]
                if rank(np.asarray(trial_rows), p) > span_rank:
                    span_rows = trial_rows
                    span_rank += 1
                    selected.append((m, i))
                    chosen.setdefault((m, i), []).append(e)
    window = -(-depth // 3)  # ceil
    stabilized = all(m <= depth - window for m, _ in selected)
    return selected, stabilized


def isotypic_stability_check(
    x: VerObject,
    depth: int,
    trials: int,
    seed: int,
    max_entries: int | None = None,
) -> bool:
    """Multiplication by invariants preserves isotypic components.

    For random invariant s and random pure type-i class t the product
    s * t must again be pure of type i; each trial checks that the
    product representative is an exact intertwiner, that its components
    into blocks of other sizes are negligible under the trace pairing,
    that two independent class extractions agree, and, for i = 1, that
    the product matches the invariant-algebra structure constants (the
    Reynolds property rho(s a) = s rho(a)).  Any failure flags an
    implementation bug, never new mathematics.
    """
    alg = InvariantAlgebra(x, depth, max_entries)
    p = alg.p
    rng = random.Random(seed)
    types_present = [
        (m, i)
        for m in range(depth + 1)
        for i in range(1, p)
        if alg.iso_dim(m, i) > 0
    ]
    inv_degrees = [a for a in range(depth + 1) if alg.inv_dim(a) > 0]
    for trial in range(trials):
        b, i = types_present[trial % len(types_present)]
        choices = [a for a in inv_degrees if a + b <= depth]
        if not choices:
            continue
        a = rng.choice(choices)
        ca = np.array(
            [rng.randrange(p) for _ in range(alg.inv_dim(a))], dtype=np.int64
        )
        cb = np.array(
            [rng.randrange(p) for _ in range(alg.iso_dim(b, i))], dtype=np.int64
        )
        phi = alg.iso_matrix(a, 1, ca)
        psi = alg.iso_matrix(b, i, cb)
        m = a + b
        h = (alg.tower.mu(a, b) @ np.kron(phi, psi)) % p
        # exact intertwiner
        gj = jordan_module(p, [i]).g.a
        gv = jordan_module(p, alg.tower.sizes[m]).g.a
        if not np.array_equal((h @ gj) % p, (gv @ h) % p):
            return False
        # components into blocks of size != i are negligible: pair the
        # block component against Hom(J_s, J_i), spanned by the maps with
        # last column e_k (k <= min(i, s)) and columns N^t of it.
        pos = 0
        for sz in alg.tower.sizes[m]:
            comp = h[pos : pos + sz, :]
            pos += sz
            if sz == i:
                continue
            # u: J_i -> J_s has columns [N^(i-1) v, ..., v], v in ker N_s^i;
            # tr(comp^T-pairing) must vanish for all such u.
            nloc = (jordan_module(p, [sz]).g.a - np.eye(sz, dtype=np.int64)) % p
            for k in range(min(i, sz)):
                v = np.zeros((sz, 1), dtype=np.int64)
                v[k, 0] = 1
                u = np.zeros((sz, i), dtype=np.int64)
                col = v[:, 0]
                for t in range(i - 1, -1, -1):
                    u[:, t] = col
                    col = (nloc @ col) % p
                if int(np.trace(comp @ u.T)) % p != 0:
                    return False
        # two extraction routes for the type-i class must agree
        direct = alg.iso_class_of(m, i, h)
        inv_i = pow(i, -1, p)
        paired = []
        for off in alg.tower.block_offsets(m, i):
            comp = h[off : off + i, :]
            paired.append((int(np.trace(comp)) * inv_i) % p)
        if not np.array_equal(direct, np.asarray(paired, dtype=np.int64)):
            return False
        if i == 1:
            expected = alg.multiply_coords(a, ca, b, cb)
            if not np.array_equal(direct, expected):
                return False
    return True


def frobenius_check(
    alg: InvariantAlgebra, trials: int = 50, seed: int = 0
) -> bool:
    """The p-th power map on the invariant algebra is a ring map.

    Verifies (u+v)^p = u^p + v^p and (uv)^p = u^p v^p on random invariant
    elements of the truncated algebra, plus the vanishing S^p(L_i) = 0
    for every i >= 2, which is what kills the cross terms coming from
    nontrivial isotypic components.
    """
    p = alg.p
    if alg.depth < p:
        raise ValueError(
            f"truncation {alg.depth} admits no nontrivial p-th power (p = {p})"
        )
    rng = random.Random(seed)
    max_deg = alg.depth // p
    for _ in range(trials):
        u = alg.random_element(rng, max_deg)
        v = alg.random_element(rng, max_deg)
        lhs = alg.power(alg.add(u, v), p)
        rhs = alg.add(alg.power(u, p), alg.power(v, p))
        if not alg.equal(lhs, rhs):
            return False
        lhs = alg.power(alg.mul_elems(u, v), p)
        rhs = alg.mul_elems(alg.power(u, p), alg.power(v, p))
        if not alg.equal(lhs, rhs):
            return False
    for i in range(2, p):
        if not ver_sym_power(VerObject.simple(p, i), p).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# the characteristic-0 counterexample
# ---------------------------------------------------------------------------


def _super_mono_mul(m1, m2):
    """Product of normal-ordered monomials x^a y^e z^d over Q; None if zero."""
    a1, e1, d1 = m1
    a2, e2, d2 = m2
    if (e1 and e2) or (d1 and d2):
        return None  # y^2 = z^2 = 0
    sign = -1 if (d1 and e2) else 1  # move y past z, both odd
    return (a1 + a2, e1 + e2, d1 + d2), sign


def char0_counterexample(depth: int) -> list[tuple[int, int]]:
    """New-generator counts of the invariants of Q[x] (x) Lambda(y, z).

    The derivation sends x to y and kills y, z; invariants are
    ker(D) intersected with the even part, computed degree by degree over
    exact rationals.  One new generator appears in every degree from 2
    on (the classes x^(d-2) y z), so the counts never stabilize: the
    pattern positive characteristic forbids, where x^p is invariant.
    """
    if depth < 3:
        raise ValueError("need depth >= 3 to exhibit the pattern")

    def degree_basis(d):
        out = []
        for e in (0, 1):
            for dz in (0, 1):
                a = d - e - dz
                if a >= 0:
                    out.append((a, e, dz))
        return out

    def parity(mono):
        return (mono[1] + mono[2]) % 2

    inv_bases: list[list[dict]] = []  # per degree: invariant vectors as dicts
    for d in range(depth + 1):
        basis = degree_basis(d)
        even = [m for m in basis if parity(m) == 0]
        # the derivation preserves total degree (x, y, z all have degree 1)
        # and maps the even part into the odd part of the same degree
        dmat = np.full((len(basis), len(even)), Fraction(0), dtype=object)
        for c, mono in enumerate(even):
            a, e, dz = mono
            if a >= 1 and e == 0:
                dmat[basis.index((a - 1, 1, dz)), c] = Fraction(a)
        ker = kernel(dmat, 0)  # over Q
        inv_bases.append(
            [{even[r]: col[r] for r in range(len(even)) if col[r] != 0} for col in ker.T]
        )

    def mul_vec(u: dict, v: dict) -> dict:
        out: dict = {}
        for m1, c1 in u.items():
            for m2, c2 in v.items():
                prod = _super_mono_mul(m1, m2)
                if prod is None:
                    continue
                mono, sign = prod
                out[mono] = out.get(mono, Fraction(0)) + sign * c1 * c2
        return {m: c for m, c in out.items() if c != 0}

    counts = []
    for d in range(depth + 1):
        basis_d = [m for m in degree_basis(d) if parity(m) == 0]
        dim = len(inv_bases[d])
        if d == 0:
            counts.append((0, dim))
            continue
        rows = []
        for a in range(1, d):
            for u in inv_bases[a]:
                for v in inv_bases[d - a]:
                    w = mul_vec(u, v)
                    rows.append([w.get(m, Fraction(0)) for m in basis_d])
        new = dim - (rank(np.array(rows, dtype=object), 0) if rows else 0)
        counts.append((d, new))
    return counts
