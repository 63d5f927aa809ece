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
out.  The derivation and the products send monomials to multiples of
monomials, so it counts monomials and needs no linear algebra over Q.
"""

from __future__ import annotations

import random

import numpy as np

from . import graded
from .exactlin import matmul_mod, rank
from .verlinde import SymTower, VerObject, ver_sym_power


class InvariantAlgebra(graded.TruncatedAlgebra):
    """The truncated invariant algebra of S(X) in Ver_p.

    Degree-m invariants carry the canonical basis given by the size-1
    blocks of the realized symmetric power; `basis_seed` optionally
    permutes that basis (used to check basis-independence of reported
    generator counts).  Products of basis classes are exact structure
    constants over GF(p); elements are those of `graded.TruncatedAlgebra`
    with `dims` the invariant dimensions.

    Its `SymTower` shares the built degrees with every other tower on the
    same (X, max_entries) while they are held, up to its own depth, so
    the reports of one set (`build_invariant_algebra`,
    `module_finiteness_check`, `isotypic_stability_check`) build the
    tower once in a command, or while the caller holds one algebra.  The
    products (`tower._mu`), the tables and the (possibly shuffled)
    invariant offsets belong to this algebra alone.
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
        self.max_entries = max_entries
        self.tower = SymTower(x, depth, max_entries)
        self._inv_offsets = [self.tower.block_offsets(m, 1) for m in range(depth + 1)]
        if basis_seed is not None:
            rng = random.Random(basis_seed)
            for offs in self._inv_offsets:
                rng.shuffle(offs)
        self.dims = [len(offs) for offs in self._inv_offsets]
        if self.dims[0] != 1:
            raise AssertionError("degree 0 must be one-dimensional")
        self._tables: dict[tuple[int, int, int], np.ndarray] = {}

    # -- degree data ---------------------------------------------------------

    def offsets(self, m: int, i: int) -> list[int]:
        """Offsets in V_m of the size-i blocks, in class-coordinate order."""
        return self._inv_offsets[m] if i == 1 else self.tower.block_offsets(m, i)

    def iso_dim(self, m: int, i: int) -> int:
        return len(self.offsets(m, i))

    # -- products ------------------------------------------------------------

    def iso_table(self, a: int, b: int, i: int) -> np.ndarray:
        """table[k, l] = type-i class coordinates of e_k^a * t_l^b, for
        invariant basis classes e_k^a and type-i classes t_l^b.

        The product of the block inclusions is mu(a, b) applied to the
        first vectors of the blocks, and its class is its entry at the
        first vector of each size-i block of V_(a+b), so the table is
        mu(a, b) sliced to those coordinates.  Only the invariant columns
        of V_a are formed (`GradedTower.mu` with `left`), and the tower
        caches them for every i and for `isotypic_stability_check`.
        """
        key = (a, b, i)
        if key not in self._tables:
            keep = (self.offsets(a, 1), self.offsets(b, i), self.offsets(a + b, i))
            self._tables[key] = self.tower.table(a, b, keep)
        return self._tables[key]

    def product_table(self, a: int, b: int) -> np.ndarray:
        """Structure constants: table[k, l] = coords of (e_k^a) * (e_l^b)."""
        return self.iso_table(a, b, 1)

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


def _new_classes(alg: InvariantAlgebra, m: int, i: int, degrees) -> int:
    """How many type-i classes of degree m lie outside the span of the
    products A_g * S^(m-g)_i, g <= m in `degrees`: a codimension, so it
    does not depend on which bases are used."""
    dim = alg.iso_dim(m, i)
    if not dim:
        return 0
    rows = [alg.iso_table(g, m - g, i).reshape(-1, dim) for g in degrees if g <= m]
    return dim - (rank(np.vstack(rows), alg.p) if rows else 0)


def generator_degrees(alg: InvariantAlgebra) -> list[tuple[int, int]]:
    """Per degree: how many invariants are not products of lower degrees.

    Evidence for finite generation up to the truncation is a tail of
    zeros.  A_+ * A_+ in degree m is spanned by the products A_g * A_(m-g)
    with g < m a degree that has new generators (every monomial in the
    generators is a generator times the rest), so only those are ranked.
    """
    out, gens = [(0, alg.dims[0])], []
    for m in range(1, alg.depth + 1):
        out.append((m, _new_classes(alg, m, 1, gens)))
        if out[-1][1]:
            gens.append(m)
    return out


def module_finiteness_check(
    x: VerObject, depth: int, max_entries: int | None = None
) -> tuple[list[tuple[int, int]], bool]:
    """Homogeneous module generators of S = S(X) over its invariants A.

    Per degree m and simple type i, the number of generators is the
    codimension of A_+ * S in the type-i classes of S^m: by graded
    Nakayama every minimal homogeneous generating set has exactly that
    many elements there.  The action is associative modulo negligibles
    and A_+ is spanned by monomials in the generators of A, so A_+ * S is
    spanned by the products A_g * S^(m-g)_i with g a generator degree.

    Returns one (degree, simple index) entry per generator, in degree
    order, and a stabilization flag: no generator in the top
    max(1, ceil(depth/3)) degrees, so at depth 0 the unit generator keeps
    it false.  The flag is evidence up to the truncation, not a proof.
    """
    alg = InvariantAlgebra(x, depth, max_entries)
    gens = [m for m, new in generator_degrees(alg) if m and new]
    selected = [
        (m, i)
        for m in range(depth + 1)
        for i in range(1, alg.p)
        for _ in range(_new_classes(alg, m, i, gens))
    ]
    window = max(1, -(-depth // 3))  # ceil, and never empty
    stabilized = all(m <= depth - window for m, _ in selected)
    return selected, stabilized


def _intertwines(h: np.ndarray, ends: np.ndarray) -> bool:
    """Whether h g_J = g_V h for h: J_i -> V, where V's Jordan blocks end
    at rows `ends`.  With g = 1 + N this is N_V h = h N_J: the rows of h
    shifted up inside the blocks against its columns shifted right."""
    nv_h = np.zeros_like(h)
    nv_h[:-1] = h[1:]
    nv_h[ends] = 0
    h_nj = np.zeros_like(h)
    h_nj[:, 1:] = h[:, :-1]
    return np.array_equal(nv_h, h_nj)


def isotypic_stability_check(
    x: VerObject, depth: int, trials: int, seed: int, max_entries: int | None = None
) -> bool:
    """Multiplication by invariants preserves isotypic components.

    For random invariant s and random pure type-i class t the product
    s * t must again be pure of type i.  A trial checks that the product
    representative h: J_i -> V_m is an exact intertwiner, and for i = 1
    that its class matches the structure constants (the Reynolds
    property rho(s a) = s rho(a)), testing the `product_table`/`mul` reading
    against this direct contraction.  Any failure flags an
    implementation bug, never new mathematics.

    The intertwiner test implies the rest of purity.  V_m has blocks J_s,
    s < p.  A component J_i -> J_s, s != i, lies in Hom(L_i, L_s) = 0 in
    Ver_p, so it is negligible; a component J_i -> J_i commutes with N,
    so it is a polynomial in N and its trace is i times its [0, 0]
    entry, the class coordinate read at h[offsets(m, i), 0].

    A trial contracts the drawn coordinates of s with mu(a, b) restricted
    to the invariant columns of V_a, the map `iso_table` also reads, so
    no whole mu(a, b) is formed and every product array is charged
    against `max_entries`.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    alg = InvariantAlgebra(x, depth, max_entries)
    p = alg.p
    rng = random.Random(seed)
    types_present = [
        (m, i) for m in range(depth + 1) for i in range(1, p) if alg.iso_dim(m, i)
    ]
    inv_degrees = [a for a in range(depth + 1) if alg.dims[a] > 0]
    ends = [np.cumsum(sizes, dtype=np.intp) - 1 for sizes in alg.tower.sizes]

    def draw(k: int) -> np.ndarray:
        return np.array([rng.randrange(p) for _ in range(k)], dtype=np.int64)

    for trial in range(trials):
        b, i = types_present[trial % len(types_present)]
        # degree 0 always fits: dims[0] == 1 and b <= depth
        a = rng.choice([a for a in inv_degrees if a + b <= depth])
        ca, cb = draw(alg.dims[a]), draw(alg.iso_dim(b, i))
        m = a + b
        # the invariant's representative is sum_k ca[k] e_k over the
        # invariant offsets of V_a, so only those columns of mu(a, b) are read
        mu = alg.tower.mu(a, b, tuple(alg.offsets(a, 1)))
        mu = mu.reshape(alg.tower.dim(m), alg.dims[a], alg.tower.dim(b))
        s_mu = matmul_mod(mu.transpose(0, 2, 1), ca[:, None], p)[..., 0]
        # t's representative sends column c of J_i to sum_l cb[l] e_(off_l + c)
        cols = np.add.outer(alg.offsets(b, i), np.arange(i))
        h = matmul_mod(s_mu[:, cols].transpose(0, 2, 1), cb[:, None], p)[..., 0]
        if not _intertwines(h, ends[m]):
            return False
        got = {m: h[alg.offsets(m, i), 0]}
        if i == 1 and not alg.equal(got, alg.mul({a: ca}, {b: cb})):
            return False
    return True


def frobenius_check(alg: InvariantAlgebra, trials: int = 50, seed: int = 0) -> bool:
    """The p-th power map on the invariant algebra is a ring map.

    Verifies (u+v)^p = u^p + v^p and (uv)^p = u^p v^p on random invariant
    elements of the truncated algebra, plus the vanishing S^p(L_i) = 0
    for every i >= 2, which is what kills the cross terms coming from
    nontrivial isotypic components.  The trials' pairs are two
    (trials x d)-per-degree batches from one `numpy.random.Generator`
    seeded with `seed` (charged against the budget `alg` was built with
    before any is drawn), and each identity is evaluated once on them.
    """
    p = alg.p
    if alg.depth < p:
        raise ValueError(
            f"truncation {alg.depth} admits no nontrivial p-th power (p = {p})"
        )
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    alg.check_batch(trials)
    rng = np.random.default_rng(seed)
    u, v = (alg.random_batch(rng, trials, alg.depth // p) for _ in range(2))
    lhs = alg.power(alg.add(u, v), p)
    if not alg.equal(lhs, alg.add(alg.power(u, p), alg.power(v, p))):
        return False
    lhs = alg.power(alg.mul_elems(u, v), p)
    if not alg.equal(lhs, alg.mul_elems(alg.power(u, p), alg.power(v, p))):
        return False
    for i in range(2, p):
        if not ver_sym_power(VerObject.simple(p, i), p).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# the characteristic-0 counterexample
# ---------------------------------------------------------------------------


def _super_mono_mul(m1, m2):
    """Product of normal-ordered monomials x^a y^e z^f: (monomial, sign),
    or None if it is zero."""
    a1, e1, d1 = m1
    a2, e2, d2 = m2
    if (e1 and e2) or (d1 and d2):
        return None  # y^2 = z^2 = 0
    sign = -1 if (d1 and e2) else 1  # move y past z, both odd
    return (a1 + a2, e1 + e2, d1 + d2), sign


def _derive(mono):
    """The monomial of D(x^a y^e z^f), x^(a-1) y z^f with coefficient a,
    when e = 0 < a; None where D kills it."""
    a, e, f = mono
    return (a - 1, 1, f) if a and not e else None


def char0_counterexample(depth: int) -> list[tuple[int, int]]:
    """New-generator counts of the invariants of Q[x] (x) Lambda(y, z).

    The derivation D sends x to y and kills y, z; invariants are the even
    part of ker(D).  D sends a monomial to a multiple of one or to 0, so
    ker(D) is spanned by the even monomials it kills once the others have
    distinct images (AssertionError otherwise), and the products, signed
    monomials or 0, span the monomials they reach.  One new generator
    appears in every degree from 2 on (x^(d-2) y z): the counts never
    stabilize, which positive characteristic forbids (x^p is invariant).
    """
    if depth < 3:
        raise ValueError("need depth >= 3 to exhibit the pattern")
    invariant = []  # per degree: the even monomials D kills
    for d in range(depth + 1):
        even = [(d - 2 * k, k, k) for k in (0, 1) if d >= 2 * k]
        images = [image for image in map(_derive, even) if image]
        if len(set(images)) < len(images):
            raise AssertionError(f"D identifies two monomials of degree {d}")
        invariant.append([m for m in even if not _derive(m)])

    def reached(d):  # the monomials that products of lower degrees reach
        pairs = ((u, v) for a in range(1, d) for u in invariant[a] for v in invariant[d - a])
        return {prod[0] for u, v in pairs if (prod := _super_mono_mul(u, v))}

    return [(d, len(invariant[d]) - len(reached(d))) for d in range(depth + 1)]
