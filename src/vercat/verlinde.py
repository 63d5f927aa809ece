"""The Verlinde category Ver_p: the semisimple quotient of Rep(Z/pZ) by
negligible morphisms.

Two independent realizations of the tensor product of simples are kept
permanently: the closed fusion rule

    L_r (x) L_s = sum_{i=1}^{min(r,s,p-r,p-s)} L_{|r-s|+2i-1}

and the slow oracle that decomposes J_r (x) J_s in Rep(Z/pZ) and drops
the size-p Jordan blocks.  Their agreement is the central correctness
anchor of the whole artifact; the CLI exposes `--oracle` to force the
slow path.

Hom spaces in Ver_p are Hom(A, B) modulo the radical of the trace
pairing (f, u) -> tr(f u).  For a map into a single Jordan block J_j an
intertwiner is determined by its first row w (the remaining rows are
w N, w N^2, ...), and the pairing against Hom(J_j, A) reduces to
j * (w N^(j-1) v) on kernel vectors v of N^j.  In Jordan normal
coordinates only the size-j summands pair, so the class of w is read off
its coordinates at the tops of those summands.

Every module the symmetric-power tower meets is built from tensor
products J_a (x) J_b of literal Jordan blocks.  Each such pair gets one
exact, cached change of basis T to a direct sum of Jordan blocks
(`_pair_basis`); their sizes are the fusion rule plus (a+b-p)^+ copies
of J_p.  Hom classes, cokernel chains [w, wN, ...] and sections are then
rows and columns of T^-1 and T picked by index, with no powers of N.
The first-row route on arbitrary blocks (`_ver_cokernel`, `_HomClasses`,
`_matpow`) is the independent anchor for the cokernels `SymTower` takes
in these coordinates: only `_ver_sym_power_direct` uses it, and the tests
hold the two routes to the same answers.

Symmetric powers inside Ver_p are computed degreewise: S^m is the
cokernel, taken in the quotient category, of the degree-m relations
pushed into S^(m-1) (x) X.  Every S^m is realized as a literal direct
sum of Jordan blocks with no size-p summand; that representative choice
is canonical throughout the package.

p = 2 is supported and degenerate: Ver_2 has the single simple L_1 and
the fusion product is trivial.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .exactlin import (
    GF,
    check_budget,
    cokernel,
    kernel,
    matmul_mod,
    pivots,
    rref,
    solve_array,
)
from . import graded
from .repzp import ZpModule, hom_stack, jordan_module, jordan_types


# ---------------------------------------------------------------------------
# objects of the fusion ring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerObject:
    """An element of the fusion ring: multiplicities of L_1, ..., L_{p-1}
    as a tuple of Python ints, and p as one (any integer type is accepted)."""

    p: int
    mult: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", GF(self.p).characteristic)  # raises unless p is a prime
        try:
            mult = tuple(map(operator.index, self.mult))
        except TypeError:
            raise ValueError("multiplicities must be integers") from None
        object.__setattr__(self, "mult", mult)
        if len(self.mult) != self.p - 1:
            raise ValueError(f"need {self.p - 1} multiplicities, got {len(self.mult)}")
        if any(m < 0 for m in self.mult):
            raise ValueError("multiplicities must be nonnegative")

    @staticmethod
    def zero(p: int) -> "VerObject":
        return VerObject(p, (0,) * (p - 1))

    @staticmethod
    def unit(p: int) -> "VerObject":
        return VerObject.simple(p, 1)

    @staticmethod
    def from_blocks(p: int, sizes) -> "VerObject":
        """Image of the Jordan blocks J_s, s in `sizes`: one L_s each,
        size-p blocks dropped as negligible."""
        count = Counter(sizes)
        return VerObject(p, tuple(count[i] for i in range(1, p)))

    @staticmethod
    def simple(p: int, i: int) -> "VerObject":
        if not 1 <= i <= p - 1:
            raise ValueError(f"simple index {i} out of range [1, {p - 1}]")
        m = [0] * (p - 1)
        m[i - 1] = 1
        return VerObject(p, tuple(m))

    def mult_of(self, i: int) -> int:
        return self.mult[i - 1]

    @property
    def dim(self) -> int:
        """Dimension of the canonical Jordan-block representative."""
        return sum((i + 1) * m for i, m in enumerate(self.mult))

    def categorical_dim(self) -> int:
        return self.dim % self.p

    def is_zero(self) -> bool:
        return all(m == 0 for m in self.mult)

    def __add__(self, other: "VerObject") -> "VerObject":
        if self.p != other.p:
            raise ValueError("prime mismatch")
        return VerObject(self.p, tuple(a + b for a, b in zip(self.mult, other.mult)))

    def scale(self, k: int) -> "VerObject":
        if k < 0:
            raise ValueError("multiplicities must stay nonnegative")
        return VerObject(self.p, tuple(k * m for m in self.mult))

    def block_sizes(self) -> tuple[int, ...]:
        """Sizes of the canonical J_p-free representative, descending."""
        out: list[int] = []
        for i in range(self.p - 1, 0, -1):
            out.extend([i] * self.mult_of(i))
        return tuple(out)

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i in range(1, self.p):
            m = self.mult_of(i)
            if m == 1:
                terms.append(f"L{i}")
            elif m > 1:
                terms.append(f"{m}*L{i}")
        return " + ".join(terms)


def _rule_range(p: int, r: int, s: int) -> tuple[int, int]:
    """L_r (x) L_s = L_lo + L_(lo+2) + ... + L_hi: the closed fusion rule."""
    return abs(r - s) + 1, min(r + s, 2 * p - r - s) - 1


def fusion_rule(p: int, r: int, s: int) -> tuple[int, ...]:
    """Multiplicity vector of L_r (x) L_s by the closed formula."""
    if not (1 <= r <= p - 1 and 1 <= s <= p - 1):
        raise ValueError("simple indices out of range")
    lo, hi = _rule_range(p, r, s)
    out = [0] * (p - 1)
    for k in range(lo, hi + 1, 2):
        out[k - 1] = 1
    return tuple(out)


def fusion(a: VerObject, b: VerObject) -> VerObject:
    """Fusion product, extended bilinearly from the rule on simples: each
    pair of simples present adds x*y at lo and takes it off past hi
    (`_rule_range`) in a difference array, which running sums within each
    parity read off.  Exact in Python integers at any multiplicity and p."""
    if a.p != b.p:
        raise ValueError("prime mismatch")
    p, left = a.p, [(r, x) for r, x in enumerate(a.mult, 1) if x]
    diff = [0] * (p + 2)  # diff[k] for L_k, with room past hi
    for s, y in enumerate(b.mult, 1):
        if y:
            for r, x in left:
                lo, hi = _rule_range(p, r, s)
                xy = x * y
                diff[lo] += xy
                diff[hi + 2] -= xy
    for k in range(3, p):
        diff[k] += diff[k - 2]
    return VerObject(p, tuple(diff[1:p]))


def quotient(m: ZpModule) -> VerObject:
    """Image of a Z/pZ-module under the quotient functor to Ver_p.

    Jordan blocks of size i < p map to L_i; size-p blocks are negligible
    and are discarded.

    Correctness anchor: the Jordan fusion oracle, the slow route that the
    closed fusion rule is checked against; a batch of one of `quotients`.
    """
    return next(quotients([m]))


def quotients(ms: Iterable[ZpModule]) -> Iterator[VerObject]:
    """`quotient` of each module of `ms`, in order, through `jordan_types`:
    the modules are read lazily and must share one prime.

    Correctness anchor: the batched form of the Jordan fusion oracle.
    """
    ms = iter(ms)
    first = next(ms, None)
    if first is None:
        return
    for parts in jordan_types(itertools.chain([first], ms)):
        yield VerObject.from_blocks(first.p, parts)


# ---------------------------------------------------------------------------
# hom spaces of the quotient category (generic, matrix-level)
# ---------------------------------------------------------------------------


def _trace_gram(fwd: np.ndarray, bwd: np.ndarray, p: int) -> np.ndarray:
    """gram[i, j] = tr(fwd[i] bwd[j]) for stacked maps fwd (h x b x a) and
    bwd (h' x a x b)."""
    h, b, a = fwd.shape
    return matmul_mod(fwd.reshape(h, b * a), bwd.transpose(2, 1, 0).reshape(b * a, len(bwd)), p)


def _trace_radical(a: ZpModule, b: ZpModule) -> tuple[np.ndarray, np.ndarray]:
    """A basis of Hom(a, b), stacked as (h x b.dim x a.dim), and, as
    coefficient columns over it, a basis of the radical of the trace
    pairing (f, u) -> tr(f u), u: b -> a."""
    fwd = hom_stack(a, b)
    gram = _trace_gram(fwd, hom_stack(b, a), a.p)
    return fwd, kernel(gram.T, a.p)


@dataclass(frozen=True, eq=False)
class VerHom:
    """Hom(a, b) / N(a, b): a basis of Hom(a, b) and the projection of its
    coordinates onto the classes."""

    source: ZpModule
    target: ZpModule
    _hom_basis: np.ndarray  # h x b.dim x a.dim
    _class_proj: np.ndarray  # hom coordinates -> class coordinates

    @property
    def dim(self) -> int:
        return self._class_proj.shape[0]

    def reduce(self, f: np.ndarray) -> tuple[int, ...]:
        """Coordinates of the class of the integer (b.dim x a.dim) array f
        over the class basis."""
        shape = (self.target.dim, self.source.dim)
        if np.shape(f) != shape:
            raise ValueError(f"f must be a {shape[0]} x {shape[1]} array, got shape {np.shape(f)}")
        p, h, f = self.source.p, self._hom_basis, np.reshape(f, (-1, 1))
        coords = solve_array(h.reshape(len(h), len(f)).T, f, p)
        if coords is None:
            raise ValueError("f is not an intertwiner")
        return tuple(int(x) for x in matmul_mod(self._class_proj, coords, p)[:, 0])


def ver_hom(a: ZpModule, b: ZpModule) -> VerHom:
    """The hom space of Ver_p between the images of a and b.

    Correctness anchor: the definitional Hom, Hom(a, b) modulo the radical
    of the trace pairing; the tests hold the fusion rule and `quotient`
    to its dimensions."""
    fwd, rad_coeffs = _trace_radical(a, b)
    return VerHom(a, b, fwd, cokernel(rad_coeffs, a.p)[0])


# ---------------------------------------------------------------------------
# blocked modules and first-row hom classes (internal machinery)
# ---------------------------------------------------------------------------


def _matpow(a: np.ndarray, k: int, p: int) -> np.ndarray:
    """a^k mod p by repeated products.

    Correctness anchor: first-row route (`_ver_cokernel`), plain numpy until ROADMAP item 2."""
    out = np.eye(a.shape[0], dtype=np.int64)
    for _ in range(k):
        out = (out @ a) % p
    return out


class _Blocks:
    """A module presented as a direct sum of blocks; each block carries the
    global indices of its basis vectors and the local generator matrix."""

    __slots__ = ("p", "dim", "blocks")

    def __init__(self, p: int, dim: int, blocks: list[tuple[np.ndarray, np.ndarray]]):
        self.p = p
        self.dim = dim
        self.blocks = blocks

    @staticmethod
    def from_sizes(p: int, sizes: tuple[int, ...]) -> "_Blocks":
        blocks = []
        off = 0
        for s in sizes:
            blocks.append((np.arange(off, off + s, dtype=np.int64), jordan_module(p, [s]).g))
            off += s
        return _Blocks(p, off, blocks)

    def tensor(self, other: "_Blocks") -> "_Blocks":
        blocks = []
        for idx_a, g_a in self.blocks:
            for idx_b, g_b in other.blocks:
                idx = (idx_a[:, None] * other.dim + idx_b[None, :]).reshape(-1)
                blocks.append((idx, np.kron(g_a, g_b) % self.p))
        return _Blocks(self.p, self.dim * other.dim, blocks)

    @staticmethod
    def disjoint_union(parts: list["_Blocks"]) -> "_Blocks":
        p = parts[0].p
        blocks = []
        off = 0
        for part in parts:
            for idx, g in part.blocks:
                blocks.append((idx + off, g))
            off += part.dim
        return _Blocks(p, off, blocks)

    def nilpotent_full(self) -> np.ndarray:
        n = np.zeros((self.dim, self.dim), dtype=np.int64)
        for idx, g in self.blocks:
            n[np.ix_(idx, idx)] = (g - np.eye(g.shape[0], dtype=np.int64)) % self.p
        return n


class _HomClasses:
    """Hom(B, J_j) modulo negligibles, in the first-row representation.

    Correctness anchor for the Jordan-normal route: it works on any
    block-diagonal module through powers of N.  `reps` holds one
    full-length row vector per class; `reduce` takes the first rows of
    arbitrary intertwiners into J_j and returns their class coordinates
    over `reps`.  Plain numpy on purpose, until ROADMAP item 2.
    """

    __slots__ = ("j", "p", "reps", "_per_block", "total")

    def __init__(self, blocks: _Blocks, j: int):
        p = blocks.p
        self.j = j
        self.p = p
        rep_rows: list[np.ndarray] = []
        per_block = []
        for idx, g in blocks.blocks:
            n_loc = g.shape[0]
            nil = (g - np.eye(n_loc, dtype=np.int64)) % p
            njm1 = _matpow(nil, j - 1, p)
            nj = (njm1 @ nil) % p
            w = kernel(nj.T, p).T  # rows spanning the left kernel of N^j
            ker = kernel(nj, p)  # columns spanning ker N^j
            pair = (w @ njm1 @ ker) % p  # pairing rows against kernel vectors
            piv = pivots(pair.T, p)
            reps_local = w[piv]
            count = len(piv)
            if count:
                njm1k = (njm1 @ ker) % p
                per_block.append((idx, njm1k, pair[piv].T, count))
                scat = np.zeros((count, blocks.dim), dtype=np.int64)
                scat[:, idx] = reps_local
                rep_rows.append(scat)
            else:
                per_block.append((idx, None, None, 0))
        self._per_block = per_block
        self.reps = (
            np.vstack(rep_rows)
            if rep_rows
            else np.zeros((0, blocks.dim), dtype=np.int64)
        )
        self.total = self.reps.shape[0]

    def reduce(self, rows: np.ndarray) -> np.ndarray:
        """Class coordinates of first-row vectors (t x dim) -> (t x total)."""
        t = rows.shape[0]
        out = np.zeros((t, self.total), dtype=np.int64)
        pos = 0
        for idx, njm1k, pairing, count in self._per_block:
            if count == 0:
                continue
            pw = (rows[:, idx] @ njm1k) % self.p
            coords = solve_array(pairing, pw.T, self.p)
            if coords is None:
                raise ValueError("inconsistent system")
            out[:, pos : pos + count] = coords.T
            pos += count
        return out


def _ver_cokernel(
    a_blk: _Blocks, b_blk: _Blocks, apply_phi
) -> tuple[tuple[int, ...], np.ndarray]:
    """Cokernel in Ver_p of the morphism class of phi: A -> B.

    `apply_phi(rows)` must return rows @ phi for a stack of row vectors
    over B; passing a callback lets callers precompose with structured
    maps without materializing them.  Returns the block sizes of the
    canonical J_p-free realization of the cokernel (descending) and the
    projection matrix B -> C representing the quotient class.  Rows of
    the projection are grouped per block, ordered [w, wN, ..., wN^(j-1)]
    for the class row w.  Its arrays are charged against the default
    budget.

    Correctness anchor: this first-row route checks the Jordan-coordinate
    cokernels of `SymTower._build_degree`; only `_ver_sym_power_direct`
    calls it.  Plain numpy on purpose, until ROADMAP item 2 deletes it.
    """
    p = b_blk.p
    check_budget(b_blk.dim * b_blk.dim, None, "nilpotent of the cokernel target")
    nb = b_blk.nilpotent_full()
    sizes: list[int] = []
    q_rows: list[np.ndarray] = []
    for j in range(p - 1, 0, -1):
        hb = _HomClasses(b_blk, j)
        if hb.total == 0:
            continue
        ha = _HomClasses(a_blk, j)
        check_budget(hb.total * a_blk.dim, None, "precomposed class rows")
        coords = ha.reduce(apply_phi(hb.reps) % p)
        ker = kernel(coords.T, p).T  # rows: kernels of precomposition
        for c in ker:
            w = (c @ hb.reps) % p
            chain = np.empty((j, b_blk.dim), dtype=np.int64)
            chain[0] = w
            for k in range(1, j):
                chain[k] = (chain[k - 1] @ nb) % p
            q_rows.append(chain)
            sizes.append(j)
    q = (
        np.vstack(q_rows)
        if q_rows
        else np.zeros((0, b_blk.dim), dtype=np.int64)
    )
    return tuple(sizes), q


# ---------------------------------------------------------------------------
# Jordan-normal tensor blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _PairBasis:
    """The layouts that readers use of the Jordan basis T of J_a (x) J_b
    (`_jordan_basis`), which itself is not kept.

    `sizes` are T's block sizes (descending); `tops_by_size[j]` lists the
    first indices (tops) of the size-j summands, j < p.  Row s of
    `row_chains[j]` is rows top, ..., top+j-1 of T^-1 side by side for the
    s-th size-j summand, and column s of `col_chains[j]` columns top, ...,
    top+j-1 of T, entries (x, k).  `top_cols` is the columns of T at all
    tops of `tops_by_size`, in order.
    """

    sizes: tuple[int, ...]
    tops_by_size: dict[int, np.ndarray]
    row_chains: dict[int, np.ndarray]
    col_chains: dict[int, np.ndarray]
    top_cols: np.ndarray


_PAIR_BASES: dict[tuple[int, int, int], _PairBasis] = {}


def _nil_cols(v: np.ndarray, a: int, b: int, p: int) -> np.ndarray:
    """N @ v on J_a (x) J_b for a stack of columns v (ab x t)."""
    x = v.reshape(a, b, -1)
    out = np.zeros_like(x)
    out[:-1] += x[1:]
    out[:, :-1] += x[:, 1:]
    out[:-1, :-1] += x[1:, 1:]
    return out.reshape(v.shape) % p


def _nil_rows(v: np.ndarray, a: int, b: int, p: int) -> np.ndarray:
    """v @ N on J_a (x) J_b for a stack of rows v (t x ab)."""
    x = v.T.reshape(a, b, -1)
    out = np.zeros_like(x)
    out[1:] += x[:-1]
    out[:, 1:] += x[:, :-1]
    out[1:, 1:] += x[:-1, :-1]
    return out.reshape(v.shape[::-1]).T % p


def _jordan_basis(p: int, a: int, b: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """A Jordan basis of J_a (x) J_b over GF(p): (sizes, T, T^-1), built
    afresh on every call.

    T^-1 (g_a (x) g_b) T is the block-diagonal unipotent Jordan matrix
    with block sizes `sizes` (descending).  Inside a summand of size c at
    top o, column o + k of T is N^(c-1-k) of the chain generator and row
    o + k of T^-1 is (row o) N^k, where N = g_a (x) g_b - 1.

    In the basis e_i (x) e_j, the columns C = e_i (x) e_(b-1) (i < a)
    generate the module over k[N] and the rows R = e_i (x) e_0 generate
    its dual (e_(a-1) (x) e_j and e_0 (x) e_j when a > b): min(a, b) of
    each, one per summand.  Summands are split off longest first.  For
    chain length k, the pairing R N^(k-1) C, taken on the part not yet
    split off, has rank equal to the number of size-k summands; one rref
    of it picks the new chain generators x and dual rows y with
    y R N^(k-1) x = 1.  A triangular correction x' = sum_e N^e x u_e makes
    y R N^d x' vanish for d < k-1, so the new column chains (for T) and
    row chains (for T^-1) are biorthogonal and T^-1 comes with T.  The
    sizes come out as the fusion rule plus (a+b-p)^+ copies of p
    (Iima-Iwamatsu); they are not assumed, and the conjugation identity
    is checked on every build.
    """
    n, h = a * b, min(a, b)
    grid = np.arange(n).reshape(a, b)
    col_gen, row_gen = (grid[:, -1], grid[:, 0]) if a <= b else (grid[-1], grid[0])
    depth = min(p, a + b - 1)
    kc = [np.eye(n, dtype=np.int64)[:, col_gen]]  # N^d C
    kr = [np.eye(n, dtype=np.int64)[row_gen]]  # R N^d
    for _ in range(1, depth):
        kc.append(_nil_cols(kc[-1], a, b, p))
        kr.append(_nil_rows(kr[-1], a, b, p))
    kc, kr = np.stack(kc), np.stack(kr)
    t = np.zeros((n, 0), dtype=np.int64)
    tinv = np.zeros((0, n), dtype=np.int64)

    # projections onto the part not yet split off, along the summands found:
    # v -> (1 - t tinv) v for columns, v (1 - t tinv) for rows, stacks too
    def split_cols(v: np.ndarray) -> np.ndarray:
        return (v - matmul_mod(t, matmul_mod(tinv, v, p), p)) % p

    def split_rows(v: np.ndarray) -> np.ndarray:
        return (v - matmul_mod(matmul_mod(v, t, p), tinv, p)) % p

    sizes: list[int] = []
    for k in range(depth, 0, -1):
        pairing = matmul_mod(kr[k - 1], split_cols(kc[0]), p)
        r, piv = rref(np.hstack([pairing, np.eye(h, dtype=np.int64)]), p)
        cols = [c for c in piv if c < h]
        m = len(cols)
        if m == 0:
            continue
        y = r[:m, h:]  # y @ pairing[:, cols] = 1
        x = split_cols(kc[:k, :, cols])  # N^d x, stacked over d
        g = matmul_mod(y, matmul_mod(kr[:k], x[0], p), p)  # y R N^d x
        # u_0 = 1, u_e = -sum_(e'<e) g_(k-1-e+e') u_e': then the corrected
        # generators x' = sum_e N^e x u_e pair with y R N^d to delta_(d,k-1)
        u = [np.eye(m, dtype=np.int64)]
        for e in range(1, k):
            u.append(-matmul_mod(np.hstack(g[k - 1 - e : k - 1]), np.vstack(u), p) % p)
        u = np.vstack(u)
        chain_cols = [matmul_mod(np.hstack(x[d:]), u[: (k - d) * m], p) for d in range(k)]
        chain_rows = matmul_mod(y, split_rows(kr[:k]), p)  # y R N^i, stacked over i
        new_t = np.stack(chain_cols[::-1], axis=2).reshape(n, m * k)  # N^(k-1) x', ..., x'
        new_tinv = chain_rows.transpose(1, 0, 2).reshape(m * k, n)
        t = np.hstack([t, new_t])
        tinv = np.vstack([tinv, new_tinv])
        sizes.extend([k] * m)
    jordan = jordan_module(p, sizes).g
    g_t = (t + _nil_cols(t, a, b, p)) % p
    if sum(sizes) != n or not np.array_equal(matmul_mod(tinv, t, p), np.eye(n, dtype=np.int64)):
        raise AssertionError("pair basis is not invertible")
    if not np.array_equal(matmul_mod(tinv, g_t, p), jordan):
        raise AssertionError("pair basis is not a Jordan basis")
    return sizes, t, tinv


def _pair_basis(p: int, a: int, b: int) -> _PairBasis:
    """The chain layouts of `_jordan_basis(p, a, b)`, cached per (p, a, b)."""
    key = (p, a, b)
    hit = _PAIR_BASES.get(key)
    if hit is not None:
        return hit
    sizes, t, tinv = _jordan_basis(p, a, b)
    starts = np.cumsum([0] + sizes[:-1])
    tops = {j: starts[np.equal(sizes, j)] for j in dict.fromkeys(sizes) if j < p}
    chains = {j: o[:, None] + np.arange(j) for j, o in tops.items()}
    rows = {j: tinv[c].reshape(len(c), -1) for j, c in chains.items()}
    cols = {j: t[:, c].transpose(0, 2, 1).reshape(-1, len(c)) for j, c in chains.items()}
    out = _PairBasis(tuple(sizes), tops, rows, cols, t[:, starts[np.less(sizes, p)]])
    _PAIR_BASES[key] = out
    return out


def _triple_tops(p: int, c: int, n: int, n2: int) -> dict[int, np.ndarray]:
    """The top columns of the size-j summands (j < p) of (J_c (x) J_n) (x)
    J_n2, read-only, in the basis T_(c,n) (x) 1 followed by T_(e,n2) on
    every resulting J_e (x) J_n2 (e < p).  No other column is formed."""
    basis = _pair_basis(p, c, n)
    cols: dict[int, list[np.ndarray]] = {}
    for e, starts in basis.tops_by_size.items():
        inner = _pair_basis(p, e, n2)
        chains = basis.col_chains[e].reshape(c * n, e, -1).transpose(0, 2, 1)  # cn x starts x e
        col = matmul_mod(chains, inner.top_cols.reshape(e, -1), p)
        col = col.reshape(c * n, len(starts), n2, -1)
        col = col.transpose(0, 2, 1, 3).reshape(c * n * n2, len(starts), -1)
        k = 0
        for j, tops in inner.tops_by_size.items():
            cols.setdefault(j, []).append(col[:, :, k : k + len(tops)].reshape(c * n * n2, -1))
            k += len(tops)
    return {j: graded.frozen(np.concatenate(c, axis=1)) for j, c in cols.items()}


class _TensorFrame:
    """V (x) X for literal Jordan-block sums V and X, with every block pair
    J_c (x) J_n brought to Jordan normal form by its pair basis.

    The pairs of one size pair (c, n) share that basis, so each method
    makes one product per (c, n), not one per pair: `pieces[c, n]` stacks
    the global indices of the pieces J_c (x) J_n in V (x) X (pieces x cn).
    The size-j summands, j < p, are numbered piece by piece (V's blocks
    outer, X's inner), then by top; `counts[j]` is their number, and
    `summands[j]` lists per (c, n) the pair basis, the piece indices and
    the (pieces x tops) summand numbers.  Size-p summands are negligible
    and never listed.
    """

    __slots__ = ("p", "sizes_x", "dim", "pieces", "summands", "counts")

    def __init__(self, p: int, sizes_v: tuple[int, ...], sizes_x: tuple[int, ...]):
        nx = sum(sizes_x)
        self.p, self.sizes_x, self.dim = p, sizes_x, sum(sizes_v) * nx
        grid = np.arange(self.dim).reshape(-1, nx)
        pieces: dict[tuple[int, int], list] = {}
        numbers: dict[tuple[int, int, int], list[int]] = {}
        self.counts: Counter = Counter()
        for c, oc in zip(sizes_v, itertools.accumulate(sizes_v, initial=0)):
            for n, on in zip(sizes_x, itertools.accumulate(sizes_x, initial=0)):
                pieces.setdefault((c, n), []).append(grid[oc : oc + c, on : on + n].reshape(-1))
                for j, tops in _pair_basis(p, c, n).tops_by_size.items():
                    first = self.counts[j]
                    numbers.setdefault((c, n, j), []).extend(range(first, first + len(tops)))
                    self.counts[j] += len(tops)
        self.pieces = {cn: np.array(idx) for cn, idx in pieces.items()}
        self.summands: dict[int, list[tuple[_PairBasis, np.ndarray, np.ndarray]]] = {}
        for (c, n, j), num in numbers.items():
            idx = self.pieces[c, n]
            entry = (_pair_basis(p, c, n), idx, np.array(num).reshape(len(idx), -1))
            self.summands.setdefault(j, []).append(entry)

    def tops(self, j: int) -> np.ndarray:
        """The rows of T^-1 at the tops of the size-j summands, scattered
        in summand order: counts[j] x dim."""
        out = np.zeros((self.counts[j], self.dim), dtype=np.int64)
        for basis, idx, num in self.summands[j]:
            out[num[:, :, None], idx[:, None, :]] = basis.row_chains[j][:, : idx.shape[1]]
        return out

    def chains(self, j: int, coeff: np.ndarray) -> np.ndarray:
        """coeff @ (rows top+k of T^-1 at the size-j summands) for every
        k < j, as the chains [w, wN, ..., wN^(j-1)] of the rows w of
        coeff @ tops(j), stacked: (t * j) x dim for t coefficient rows."""
        t = coeff.shape[0]
        out = np.zeros((t, j, self.dim), dtype=np.int64)
        for basis, idx, num in self.summands[j]:
            prod = matmul_mod(coeff[:, num].reshape(-1, num.shape[1]), basis.row_chains[j], self.p)
            out[:, :, idx] = prod.reshape(t, len(idx), j, -1).transpose(0, 2, 1, 3)
        return out.reshape(t * j, self.dim)

    def cols(self, j: int, coeff: np.ndarray) -> np.ndarray:
        """(columns top+k of T at the size-j summands) @ coeff for every
        k < j: dim x (t * j), column s * j + k for coefficient column s."""
        t = coeff.shape[1]
        out = np.zeros((self.dim, t, j), dtype=np.int64)
        for basis, idx, num in self.summands[j]:
            c = coeff[num].transpose(1, 0, 2).reshape(num.shape[1], -1)
            prod = matmul_mod(basis.col_chains[j], c, self.p)
            out[idx] = prod.reshape(idx.shape[1], j, len(idx), t).transpose(2, 0, 3, 1)
        return out.reshape(self.dim, t * j)

    def tensor_tops(
        self, local: dict, charge: Callable[[int, int], None]
    ) -> dict[int, list[tuple[np.ndarray, np.ndarray]]]:
        """Top columns of a Jordan basis of (V (x) X) (x) X, per size j < p.

        One entry per (c, n, n') and j: (the global indices of the blocks
        (J_c (x) J_n) (x) J_n', stacked, their local top columns of size j).
        The local columns are `_triple_tops`, kept in `local` per (c, n, n');
        before one is computed, `charge(e, n')` is called for the largest
        summand J_e of J_c (x) J_n.  Of the pair bases it reads, J_e (x) J_n'
        is then the largest but J_c (x) J_n, which the frame's charge covers.
        """
        nx, sx = sum(self.sizes_x), np.asarray(self.sizes_x)
        ox = np.cumsum(sx) - sx
        out: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        for (c, n), idx in self.pieces.items():
            for n2 in dict.fromkeys(self.sizes_x):
                key = (c, n, n2)
                if key not in local:
                    charge(max(_pair_basis(self.p, c, n).tops_by_size), n2)
                    local[key] = _triple_tops(self.p, *key)
                x2 = ox[sx == n2, None] + np.arange(n2)
                gidx = (idx[:, None, :, None] * nx + x2[None, :, None, :]).reshape(-1, c * n * n2)
                for j, cols in local[key].items():
                    out.setdefault(j, []).append((gidx, cols))
        return out


# ---------------------------------------------------------------------------
# symmetric powers inside Ver_p
# ---------------------------------------------------------------------------


class _Degrees(graded.Degrees):
    """The degree data of the `SymTower`s on one (p, X, max_entries): per
    degree m, the block sizes `sizes[m]` of V_m, q_m and the kernel rows
    `kernels[m][j]` whose chains are q_m's size-j rows; and across
    degrees, the sections, the tensor frames by block type (`frames`) and
    the local top columns `tops[c, n, n']` of the triple products
    (`_triple_tops`).

    Every array in it is read-only once formed, so the towers that share
    it cannot write into each other's degrees.
    """

    _LISTS = ("sizes", "q", "kernels")

    def __init__(self, x: VerObject, max_entries: int | None):
        super().__init__(x.p, x.dim, max_entries)
        self.x = x
        self.sizes: list[tuple[int, ...]] = [(1,)]
        self.q = [graded.frozen(np.ones((1, 1), dtype=np.int64))]
        self.kernels: list[dict[int, np.ndarray]] = [{}]
        self.frames: dict[tuple[int, ...], _TensorFrame] = {}
        self.tops: dict[tuple[int, int, int], dict[int, np.ndarray]] = {}

    def _pair_charge(self, m: int) -> Callable[[int, int], None]:
        """The charge of the pair basis of J_a (x) J_b that degree m reads:
        `_jordan_basis` forms (ab) x (ab) arrays.  A basis cached in
        `_PAIR_BASES` is charged as if it were built, so a warm cache
        answers as a cold one."""

        def charge(a: int, b: int) -> None:
            check_budget((a * b) ** 2, self.max_entries, f"S^{m}: pair basis J{a} (x) J{b}")

        return charge

    def _frame(self, m: int, charge: Callable[[int, int], None]) -> _TensorFrame:
        """V_m (x) X in Jordan-normal coordinates, one per block type of
        V_m; its largest pair basis is charged before the frame is built.
        A frame met again was charged the same when it was built."""
        sizes = self.sizes[m]
        if sizes not in self.frames:
            if sizes:
                charge(max(sizes), max(self.sizes[1]))
            self.frames[sizes] = _TensorFrame(self.p, sizes, self.sizes[1])
        return self.frames[sizes]

    def _build_degree(self, m: int) -> None:
        """V_m and q_m: the cokernel in Ver_p of the degree-m relations
        phi = (q_(m-1) (x) 1_X) (1 (x) (1 - swap)): A -> B, with
        A = V_(m-2) (x) X (x) X and B = V_(m-1) (x) X, in Jordan coordinates.
        V_1 = X, with q_1 = 1_X, and past a zero degree every degree is zero.

        B's classes into J_j are the rows of T_B^-1 at the tops of its
        size-j summands (`_TensorFrame.tops`); the class coordinates of a
        first row w over A are w at the top columns of a Jordan basis of A,
        one product per (c, n, n') on the local columns kept in `tops`;
        and the chains [w, wN, ...] of the kernel combinations are the same
        combinations of the following T_B^-1 rows (`_TensorFrame.chains`;
        the combinations are kept per j for `_section`).  Rows of
        q_m are grouped per block, ordered [w, wN, ..., wN^(j-1)].  The
        largest pair basis of each new frame and each new triple-product
        key, the precomposed class rows of each j, and q_m as its rows
        accumulate, are charged against `max_entries` before they are
        formed; errors name the degree.  q_m and the kernel rows are
        read-only once recorded.
        """
        p, nx, budget = self.p, self.nx, self.max_entries
        kernels: dict[int, np.ndarray] = {}
        if m == 1:
            # charged from dim X before X's blocks are listed, one int each
            check_budget(nx * nx, budget, "S^1: projection rows")
            self.sizes.append(self.x.block_sizes())
            self.q.append(graded.frozen(np.eye(nx, dtype=np.int64)))
            self.kernels.append(kernels)
            return
        if not self.sizes[m - 1]:  # V_m is a quotient of 0 (x) X
            self.sizes.append(())
            self.q.append(graded.frozen(np.zeros((0, 0), dtype=np.int64)))
            self.kernels.append(kernels)
            return
        a_dim = sum(self.sizes[m - 2]) * nx * nx
        charge = self._pair_charge(m)
        a_tops = self._frame(m - 2, charge).tensor_tops(self.tops, charge)
        frame, q_prev = self._frame(m - 1, charge), self.q[m - 1]
        sizes: list[int] = []
        q_rows: list[np.ndarray] = []
        for j in range(p - 1, 0, -1):
            count = frame.counts[j]
            if count == 0:
                continue
            check_budget(count * a_dim, budget, f"S^{m}: precomposed class rows")
            # reps @ phi, contracted factor by factor so the relation
            # map is never materialized: (q_(m-1) (x) 1_X) is one
            # product of the reps, X factor moved to the rows, by q_(m-1);
            # each step lets the array before it go, to keep the peak down
            reps = frame.tops(j).reshape(count, -1, nx).transpose(0, 2, 1).reshape(count * nx, -1)
            pre = matmul_mod(reps, q_prev, p)
            del reps
            pre = pre.reshape(count, nx, -1).transpose(0, 2, 1).reshape(count, a_dim)
            pre = graded.minus_swap(pre, nx)
            pre %= p
            # q_(m-1) (x) 1_X: A -> B is split epi, so every size-j summand
            # of B has one in A and a_tops[j] exists
            coords = np.concatenate([
                matmul_mod(pre[:, idx].reshape(-1, idx.shape[1]), cols, p).reshape(count, -1)
                for idx, cols in a_tops[j]
            ], axis=1)
            if count > 1:
                ker = kernel(coords.T, p).T  # rows: kernels of precomposition
            else:  # a lone class survives exactly when all its coordinates vanish
                ker = np.ones((int(not coords.any()), 1), dtype=np.int64)
            if ker.shape[0] == 0:
                continue
            kernels[j] = graded.frozen(ker)
            rows = sum(sizes) + j * ker.shape[0]
            check_budget(rows * frame.dim, budget, f"S^{m}: projection rows")
            q_rows.append(frame.chains(j, ker))
            sizes.extend([j] * ker.shape[0])
        q_m = np.vstack(q_rows) if q_rows else np.zeros((0, frame.dim), dtype=np.int64)
        self.sizes.append(tuple(sizes))
        self.q.append(graded.frozen(q_m))
        self.kernels.append(kernels)

    def _section(self, b: int) -> np.ndarray:
        """s_b: V_b -> V_(b-1) (x) X, with q_b s_b = 1 as classes.

        The size-j blocks of V_b are sent onto the size-j Jordan summands
        of V_(b-1) (x) X.  Read at the summand tops, q_b's rows at those
        blocks are the kernel rows `kernels[b][j]`, and a right inverse of
        those rows picks the combination.  s_1 is q_1 = 1_X itself.
        """
        if b == 1:
            return self.q[1]
        frame = self._frame(b - 1, self._pair_charge(b))
        s = np.zeros((frame.dim, self.q[b].shape[0]), dtype=np.int64)
        for j in sorted(set(self.sizes[b]), reverse=True):
            offsets = np.array(_block_offsets(self.sizes[b], j), dtype=np.intp)
            eye = np.eye(len(offsets), dtype=np.int64)
            coeff = solve_array(self.kernels[b][j], eye, self.p)
            if coeff is None:
                raise AssertionError("projection classes are not surjective")
            s[:, (offsets[:, None] + np.arange(j)).reshape(-1)] = frame.cols(j, coeff)
        return s


class SymTower(graded.GradedTower):
    """Degree-by-degree realization of the symmetric algebra of X in Ver_p.

    For each degree m <= D the tower holds a literal Jordan-block
    realization V_m of S^m(X) (its block sizes `sizes[m]`), the projection
    class q_m: V_(m-1) (x) X -> V_m, and, on demand, sections of the
    projections and the induced multiplication classes
    mu_(a,b): V_a (x) V_b -> V_(a+b) (the shared recursion
    `graded.GradedTower.mu` on these sections).  Once a degree vanishes
    all higher degrees vanish (each S^m is a quotient of S^(m-1) (x) X),
    so construction stops early; `zero_from` is the first degree <= D
    that vanishes, or None.

    The built degrees (`sizes`, `q`, kernel rows, frames, triple-product
    tops and sections: `_Degrees`) are kept by (p, X, max_entries), with
    no depth, grown on demand and shared while held, as `graded` says;
    each degree is charged once, when it is formed.  The products `_mu`
    and tables `_tables` stay with each tower, so a reader that patches
    or corrupts `mu` sees its own products recomputed.  Shared arrays
    are read-only.
    """

    def __init__(self, x: VerObject, depth: int, max_entries: int | None = None):
        graded.check_degree(depth)  # before any degree data is looked up
        self.x = x
        key = (x.p, tuple(x.mult), max_entries)
        super().__init__(_Degrees.shared(key, x, max_entries), depth)
        self.zero_from = next((m for m, s in enumerate(self.sizes) if not s), None)

    def multiplicities(self, m: int) -> VerObject:
        return VerObject.from_blocks(self.p, self.sizes[m])

    def block_offsets(self, m: int, j: int) -> list[int]:
        """Offsets of the size-j literal blocks inside V_m."""
        return _block_offsets(self.sizes[m], j)


def _block_offsets(sizes: tuple[int, ...], j: int) -> list[int]:
    """Offsets of the size-j blocks in a sum of Jordan blocks of `sizes`."""
    return [pos for pos, n in zip(itertools.accumulate(sizes, initial=0), sizes) if n == j]


def ver_sym_power(
    x: VerObject, m: int, max_entries: int | None = None
) -> VerObject:
    """S^m(X) computed inside Ver_p (not via the ambient category)."""
    tower = SymTower(x, m, max_entries)
    return tower.multiplicities(m)


def _ver_sym_power_direct(x: VerObject, m: int) -> VerObject:
    """S^m(X) by the one-shot definition: the Ver_p cokernel of the full
    relation map (+)_(i=1..m-1) (id - swap_i) on X^(x)m.  Exponential in m.

    Correctness anchor: the independent cross-check for the degreewise
    recursion of `SymTower`."""
    p = x.p
    if m == 0:
        return VerObject.unit(p)
    if m == 1:
        return x
    xblk = _Blocks.from_sizes(p, x.block_sizes())
    t_blk = xblk
    for _ in range(m - 1):
        t_blk = t_blk.tensor(xblk)
    n = xblk.dim

    def apply_phi(rows: np.ndarray) -> np.ndarray:
        # rows @ (id - swap_i): rows minus rows with factors i, i+1 transposed
        parts = []
        for i in range(1, m):
            b = rows.reshape(rows.shape[0], n ** (i - 1), n, n, n ** (m - i - 1))
            parts.append((b - b.swapaxes(2, 3)).reshape(rows.shape))
        return np.hstack(parts)

    a_blk = _Blocks.disjoint_union([t_blk] * (m - 1))
    sizes, _ = _ver_cokernel(a_blk, t_blk, apply_phi)
    return VerObject.from_blocks(p, sizes)


# ---------------------------------------------------------------------------
# multiplicity series of symmetric algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultSeries:
    """Degreewise multiplicities of a graded object, up to a truncation."""

    p: int
    degrees: tuple[VerObject, ...]
    finite: bool
    total: VerObject | None

    @property
    def truncation(self) -> int:
        return len(self.degrees) - 1

    def __getitem__(self, m: int) -> VerObject:
        return self.degrees[m]


def sym_alg_series(
    x: VerObject, depth: int, max_entries: int | None = None
) -> MultSeries:
    """Degrees 0..depth of S(X) in Ver_p.

    When X has no trivial summand, the first vanishing degree certifies
    all higher degrees (each S^a is a quotient of X^(x)(a-b) (x) S^b), so
    the series is flagged finite and the tail is filled with zeros.
    """
    tower = SymTower(x, depth, max_entries)
    degrees = tuple(tower.multiplicities(m) for m in range(depth + 1))
    finite = tower.zero_from is not None
    if finite and x.mult_of(1):
        raise AssertionError("a trivial summand cannot vanish in S(X)")
    total = sum(degrees, VerObject.zero(x.p)) if finite else None
    return MultSeries(x.p, degrees, finite, total)


def series_product(s: MultSeries, t: MultSeries) -> MultSeries:
    """Degreewise Cauchy convolution in the fusion ring."""
    if s.p != t.p:
        raise ValueError("prime mismatch")
    if s.truncation != t.truncation:
        raise ValueError("truncation mismatch")
    p = s.p
    degrees = []
    for m in range(s.truncation + 1):
        acc = VerObject.zero(p)
        for a in range(m + 1):
            acc = acc + fusion(s[a], t[m - a])
        degrees.append(acc)
    finite = s.finite and t.finite
    total = sum(degrees, VerObject.zero(p)) if finite else None
    return MultSeries(p, tuple(degrees), finite, total)


def poly_factor_check(
    s: MultSeries, n: int
) -> tuple[bool, VerObject | None]:
    """Test whether s factors as (series of k[x_1..x_n]) * (finite series).

    Deconvolves degree by degree; the polynomial factor contributes
    binom(n+m-1, m) copies of the unit in degree m.  Multiplicities live
    in a free commutative monoid, so any negative intermediate
    coefficient fails the check immediately.  Passing requires the
    quotient series to vanish from some degree on through the truncation.
    Returns (passes, Y) with Y the sum of the quotient series.
    """
    p = s.p
    depth = s.truncation
    quot: list[np.ndarray] = []
    for m in range(depth + 1):
        coeff = np.asarray(s[m].mult, dtype=object)
        for k in range(1, m + 1):
            coeff = coeff - math.comb(n + k - 1, k) * quot[m - k]
        if any(c < 0 for c in coeff):
            return False, None
        quot.append(coeff)
    nonzero = [m for m, c in enumerate(quot) if any(x != 0 for x in c)]
    last = nonzero[-1] if nonzero else 0
    if last >= depth:
        return False, None  # no certified zero tail within the truncation
    first_zero = next(m for m in range(depth + 1) if m not in nonzero)
    if any(m > first_zero for m in nonzero):
        return False, None  # a valid S(Z) series cannot restart after a zero
    total = VerObject.zero(p)
    for c in quot:
        total = total + VerObject(p, tuple(int(x) for x in c))
    return True, total
