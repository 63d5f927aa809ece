"""Property tests for the array layer of `vercat.exactlin`.

`rref`, `rank`, `kernel`, `solve_array` and `cokernel` are held to a
pure-Python reference (Python ints mod p) on random matrices over random
primes, 2 and 65537 included; `pivots` is held to the pivots of `rref`,
and `Mat` to the array functions on the same matrices.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vercat.exactlin
from vercat.exactlin import (
    BATCH_ENTRIES,
    GF,
    SPLIT_SIZE,
    Mat,
    _echelon_rounds,
    _is_prime,
    _partition_batch,
    cokernel,
    kernel,
    matmul_mod,
    nilpotent_partitions,
    pivots,
    rank,
    rref,
    solve_array,
)
from vercat.repzp import hom_stack, jordan_module
from vercat.verlinde import _trace_gram

PROPS = settings(max_examples=60, deadline=None)


def next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


# 65537 is the largest prime GF accepts
CHARS = st.one_of(st.sampled_from([2, 65537]), st.integers(2, 65537).map(next_prime))


def entries(p: int):
    return st.integers(0, p - 1)


@st.composite
def matrix(draw, p: int, rows: int, cols: int) -> np.ndarray:
    """A rows x cols matrix of rank at most a random inner dimension, so
    that rank-deficient inputs are common even for large p."""
    inner = draw(st.integers(0, 6))
    left = draw(st.lists(entries(p), min_size=rows * inner, max_size=rows * inner))
    right = draw(st.lists(entries(p), min_size=inner * cols, max_size=inner * cols))
    a = np.array(left, dtype=np.int64).reshape(rows, inner)
    b = np.array(right, dtype=np.int64).reshape(inner, cols)
    return a @ b % p


def jordan_nilpotent(parts_a: list[int], parts_b: list[int]) -> np.ndarray:
    """J_a (x) J_b - 1 for unipotent Jordan matrices with the given block
    sizes, as an integer matrix: the fusion oracle's input to
    `nilpotent_partition`."""

    def unipotent(parts):
        n = sum(parts)
        j = np.eye(n, dtype=np.int64)
        start = 0
        for size in parts:
            for i in range(start, start + size - 1):
                j[i, i + 1] = 1
            start += size
        return j

    j = np.kron(unipotent(parts_a), unipotent(parts_b))
    return j - np.eye(len(j), dtype=np.int64)


def composition(rng, n: int) -> list[int]:
    """n as a sum of one to three positive parts, cut at random points."""
    cuts = rng.choice(np.arange(1, n), rng.integers(0, min(n, 3)), replace=False)
    return np.diff([0, *sorted(cuts), n]).tolist()


@st.composite
def field_matrix(draw):
    """Small low-rank matrices, larger sparse ones (up to 40 x 40, some
    rows combinations of others), and powers of the nilpotent part of a
    tensor product of Jordan modules."""
    p = draw(CHARS)
    kind = draw(st.sampled_from(["low-rank", "sparse", "jordan"]))
    if kind == "low-rank":
        rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
        return p, draw(matrix(p, rows, cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "sparse":
        rows, cols = draw(st.integers(0, 40)), draw(st.integers(0, 40))
        density = draw(st.sampled_from([0.05, 0.2, 0.5]))
        a = rng.integers(-3, 4, (rows, cols)) * (rng.random((rows, cols)) < density)
        if rows >= 3:  # dependent rows
            a[rng.integers(rows)] = a[rng.integers(rows)] - 2 * a[rng.integers(rows)]
        return p, a % p
    da = draw(st.integers(1, 6))
    db = draw(st.integers(1, 40 // da))
    n = jordan_nilpotent(composition(rng, da), composition(rng, db))
    return p, np.linalg.matrix_power(n, draw(st.integers(1, 3))) % p


@st.composite
def linear_system(draw):
    p = draw(CHARS)
    rows, cols, rhs = (draw(st.integers(0, 5)) for _ in range(3))
    return p, draw(matrix(p, rows, cols)), draw(matrix(p, rows, rhs))


# -- pure-Python reference ---------------------------------------------------


def ref_rref(a: np.ndarray, p: int) -> tuple[list[list], list[int]]:
    def red(x):
        return x % p

    m = [[red(int(x)) for x in row] for row in a.tolist()]
    cols = a.shape[1]
    pivots: list[int] = []
    for c in range(cols):
        lead = len(pivots)
        pr = next((i for i in range(lead, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[lead], m[pr] = m[pr], m[lead]
        inv = pow(m[lead][c], -1, p)
        m[lead] = [red(x * inv) for x in m[lead]]
        for i in range(len(m)):
            if i != lead and m[i][c] != 0:
                f = m[i][c]
                m[i] = [red(x - f * y) for x, y in zip(m[i], m[lead])]
        pivots.append(c)
    return m, pivots


def ref_kernel(a: np.ndarray, p: int) -> list[list]:
    """Kernel columns, one per free column f: e_f minus the column f of
    the reduced form placed at the pivot positions."""
    m, pivots = ref_rref(a, p)
    cols = a.shape[1]
    out = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[f] = 1
        for row, pc in enumerate(pivots):
            v[pc] = (-m[row][f]) % p
        out.append(v)
    return [list(col) for col in zip(*out)] if out else [[] for _ in range(cols)]


def times(a: np.ndarray, b: np.ndarray, p: int) -> list[list]:
    """a @ b by Python arithmetic, reduced mod p."""
    (rows, inner), cols = a.shape, b.shape[1]
    al, bl = a.tolist(), b.tolist()
    out = [
        [sum((al[i][t] * bl[t][j] for t in range(inner)), 0) for j in range(cols)]
        for i in range(rows)
    ]
    return [[x % p for x in row] for row in out]


def zeros(rows: int, cols: int) -> list[list]:
    return [[0] * cols for _ in range(rows)]


def echelon_members(members: list[np.ndarray], p: int) -> list[tuple[list[int], np.ndarray]]:
    """Pivot columns and echelon rows of each integer array mod p: the
    members stacked for one `_echelon_rounds`, rows sorted by column."""
    owner = np.repeat(np.arange(len(members)), [len(m) for m in members])
    r = np.zeros((len(owner), max((m.shape[1] for m in members), default=0)), dtype=np.int64)
    for i, m in enumerate(members):
        r[owner == i, : m.shape[1]] = m % p
    piv, slot = _echelon_rounds(r, owner, len(members), p)
    out = []
    for m, rows in zip(members, slot):
        cols = np.flatnonzero(rows[: m.shape[1]] >= 0)
        out.append((cols.tolist(), piv[rows[cols], : m.shape[1]].astype(np.int64)))
    return out


# -- the array functions against the reference -------------------------------


@PROPS
@given(field_matrix())
def test_rref_matches_reference(case):
    p, a = case
    before = a.copy()
    r, piv = rref(a, p)
    want, want_piv = ref_rref(a, p)
    assert piv == want_piv
    assert r.tolist() == want
    assert np.array_equal(a, before)  # the input is not modified


@PROPS
@given(field_matrix())
def test_pivots_match_rref(case):
    p, a = case
    before = a.copy()
    assert pivots(a, p) == rref(a, p)[1]
    assert np.array_equal(a, before)


@PROPS
@given(field_matrix())
def test_rank_and_kernel_match_reference(case):
    p, a = case
    k = kernel(a, p)
    assert rank(a, p) == len(ref_rref(a, p)[1])
    assert k.shape == (a.shape[1], a.shape[1] - rank(a, p))
    assert k.tolist() == ref_kernel(a, p)
    assert times(a, k, p) == zeros(a.shape[0], k.shape[1])


@PROPS
@given(linear_system())
def test_solve_matches_reference(case):
    p, a, b = case
    x = solve_array(a, b, p)
    consistent = len(ref_rref(a, p)[1]) == len(ref_rref(np.hstack([a, b]), p)[1])
    assert (x is not None) == consistent
    if x is not None:
        assert x.shape == (a.shape[1], b.shape[1])
        assert times(a, x, p) == b.tolist()  # b is already reduced


@PROPS
@given(field_matrix())
def test_cokernel_projection(case):
    p, rel = case
    q, free = cokernel(rel, p)
    n = rel.shape[0]
    assert q.shape == (n - rank(rel, p), n)
    assert times(q, rel, p) == zeros(q.shape[0], rel.shape[1])
    ident = [[int(i == j) for j in range(len(free))] for i in range(len(free))]
    assert times(q, np.eye(n, dtype=np.int64)[:, free], p) == ident


# -- Mat over GF(p) against the array functions --------------------------------


@PROPS
@given(field_matrix())
def test_mat_methods_delegate(case):
    """`Mat` holds the residues of its entries, and its inverse, where
    there is one, is that of `solve_array`."""
    p, a = case
    m = Mat(GF(p), a)
    assert m.a.tolist() == (a % p).tolist()
    assert m.T.a.tolist() == (a % p).T.tolist()
    assert m.is_zero() == (rank(a, p) == 0)
    if a.shape[0] == a.shape[1] and rank(a, p) == a.shape[0]:
        assert m @ m.inverse() == Mat.identity(m.field, len(a))


@PROPS
@given(linear_system())
def test_inverse_and_quotient_through_solve_array(case):
    """`Mat.inverse` is `solve_array` against the identity, and the
    quotient of the whole space by span(a) reads the same `cokernel`
    through `solve_array`'s coordinates over the identity basis."""
    p, a, _ = case
    n = min(a.shape)
    square = a[:n, :n]
    want = solve_array(square, np.eye(n, dtype=np.int64), p)
    assert (want is None) == (rank(square, p) < n)
    if want is not None:
        assert times(square, want, p) == np.eye(n, dtype=np.int64).tolist()
    if want is None:
        with pytest.raises(ValueError, match="matrix is singular"):
            Mat(GF(p), square).inverse()
    else:
        assert Mat(GF(p), square).inverse().a.tolist() == want.tolist()
    coords = solve_array(np.eye(a.shape[0], dtype=np.int64), a, p)
    q, free = cokernel(a, p)
    got_q, got_free = cokernel(coords, p)
    assert (got_q.tolist(), got_free) == (q.tolist(), free)


# -- batched Jordan types -----------------------------------------------------


def conjugated_nilpotent(rng, p: int, parts: list[int]) -> np.ndarray:
    """The nilpotent part of J_parts over GF(p) in a random basis,
    P N P^-1 for a random invertible P."""
    n = sum(parts)
    nil = jordan_module(p, parts).nilpotent()
    while True:
        change = rng.integers(0, p, (n, n))
        if rank(change, p) == n:
            inverse = solve_array(change, np.eye(n, dtype=np.int64), p)
            return matmul_mod(matmul_mod(change, nil, p), inverse, p)


@st.composite
def nilpotent_batch(draw):
    """p <= 13 or p = 65537 and a list of (partition, nilpotent matrix)
    members: random partitions in random bases, members whose dimension
    lies just above a power of two (3, 5, 9, 17, 33, 65), so that they
    straddle the chain's padded width classes, 0 x 0 and 1 x 1 members,
    and in about one case of four a member whose own square array exceeds
    BATCH_ENTRIES.  Blocks are at most min(p, 13) long."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 65537]))
    top = min(p, 13)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["partition", "straddle", "0x0", "1x1"])
    kinds = draw(st.lists(kinds, max_size=10))
    if draw(st.integers(0, 3)) == 0:
        kinds.insert(draw(st.integers(0, len(kinds))), "wide")
    members = []
    for kind in kinds:
        if kind == "0x0":
            members.append(((), np.zeros((0, 0), dtype=np.int64)))
        elif kind == "1x1":
            members.append(((1,), np.zeros((1, 1), dtype=np.int64)))
        else:
            if kind == "straddle":
                left = draw(st.sampled_from([3, 5, 9, 17, 33, 65]))
                parts = []
                while left:
                    parts.append(int(rng.integers(1, min(top, left) + 1)))
                    left -= parts[-1]
            else:
                parts = draw(st.lists(st.integers(1, top), min_size=1, max_size=6))
            while kind == "wide" and sum(parts) ** 2 <= BATCH_ENTRIES:
                parts.append(int(rng.integers(1, top + 1)))
            parts.sort(reverse=True)
            members.append((tuple(parts), conjugated_nilpotent(rng, p, parts)))
    return p, members


@settings(max_examples=30, deadline=None)
@given(nilpotent_batch())
def test_batched_jordan_types(case):
    p, members = case
    mats = [m for _, m in members]
    assert list(nilpotent_partitions((m, p) for m in mats)) == [parts for parts, _ in members]
    # the kernel, over the whole mixed batch: each member's pivots are those
    # of its reduced form, and its echelon rows span the same row space
    for m, (piv, rows) in zip(mats, echelon_members(mats, p)):
        r, want = rref(m, p)
        assert piv == want
        assert rows.shape == (len(piv), m.shape[1])
        assert rref(rows, p)[0].tolist() == r[: len(piv)].tolist()


@st.composite
def component_batch(draw):
    """p in {2, 3, 5, 7, 13}, a batch cap, and (partition, nilpotent
    residue array) members, some repeated: sums of Jordan blocks (J_1
    blocks are isolated zero rows and columns), single blocks J_s and
    J_r (x) J_s (one component each) and tensor products of two sums of
    blocks, each conjugated by a random permutation.  A member's
    partition is the sorted union of its blocks' partitions, each block
    run through the whole-matrix chain on its own.  Under the smallest
    caps most members run in a batch of their own."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    cap = draw(st.sampled_from([64, 1024, BATCH_ENTRIES]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = st.integers(1, min(p, 7))
    kinds = st.sampled_from(["sum", "block", "tensor-block", "tensor"])
    members = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=6)):
        if kind == "sum":
            left = draw(st.lists(sizes, min_size=1, max_size=6)) + [1] * draw(st.integers(0, 12))
            right = [1]
        elif kind == "block":
            left, right = [draw(st.integers(1, p))], [1]
        elif kind == "tensor-block":
            left, right = [draw(sizes)], [draw(sizes)]
        else:
            left = draw(st.lists(sizes, min_size=1, max_size=3))
            right = draw(st.lists(sizes, min_size=1, max_size=3))
        blocks = [jordan_nilpotent([r], [s]) % p for r in left for s in right]
        parts = sorted((x for b in blocks for x in _partition_batch([b], p)[0]), reverse=True)
        a = jordan_nilpotent(left, right) % p
        perm = rng.permutation(len(a))
        members.append((tuple(parts), a[perm][:, perm]))
    repeats = draw(st.lists(st.integers(0, len(members) - 1), max_size=4))
    members += [members[i] for i in repeats]
    return p, cap, [members[i] for i in rng.permutation(len(members))]


@settings(max_examples=40, deadline=None)
@given(component_batch())
def test_jordan_types_by_components(case):
    p, cap, members = case
    with mock.patch.object(vercat.exactlin, "BATCH_ENTRIES", cap):
        got = list(nilpotent_partitions((a, p) for _, a in members))
    assert got == [parts for parts, _ in members]
    assert got == [_partition_batch([a], p)[0] for _, a in members]


def distinct_pieces(a: np.ndarray) -> set[bytes]:
    """The residue bytes of the pieces the chain eliminates for the square
    residue array `a`: `a` itself below SPLIT_SIZE rows, else its
    diagonal blocks on the connected components of the symmetric nonzero
    pattern, found by depth-first search, indices ascending."""
    n = len(a)
    if n < SPLIT_SIZE:
        return {a.tobytes()}
    seen, out = set(), set()
    for start in range(n):
        if start in seen:
            continue
        seen.add(start)
        stack, component = [start], []
        while stack:
            i = stack.pop()
            component.append(i)
            for j in np.flatnonzero(a[i] | a[:, i]).tolist():
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        component.sort()
        out.add(a[np.ix_(component, component)].tobytes())
    return out


@settings(max_examples=30, deadline=None)
@given(component_batch(), st.sampled_from([16, 64, 2**16]), st.sampled_from([64, 1024, 2**20]))
def test_windows_run_each_piece_once_in_sorted_sub_batches(case, window_rows, window_residues):
    # a window runs each distinct piece of its matrices once, in ascending
    # size, in sub-batches within the cap unless they hold one piece, and
    # closes only when the next matrix would pass one of its two limits
    p, _, members = case
    cap, mats, calls, read, out = 64, [a for _, a in members], [], [0], []

    def recorded(batch, q):
        # (matrices read, types yielded, the pieces as int64 residue bytes)
        pieces = [b.astype(np.int64).tobytes() for b in batch]
        calls.append((read[0], len(out), pieces, [len(b) for b in batch]))
        return _partition_batch(batch, q)

    def stream():
        for a in mats:
            read[0] += 1
            yield a, p

    with mock.patch.multiple(
        vercat.exactlin,
        BATCH_ENTRIES=cap,
        WINDOW_ROWS=window_rows,
        WINDOW_RESIDUES=window_residues,
        _partition_batch=recorded,
    ):
        for parts in nilpotent_partitions(stream()):
            out.append(parts)
    assert out == [parts for parts, _ in members]
    for *_, sizes in calls:
        assert len(sizes) == 1 or sum(sizes) * max(sizes) <= cap
    # a window's calls all come after the types of the windows before it
    starts = sorted({done for _, done, _, _ in calls})
    for lo, hi in zip(starts, [*starts[1:], len(mats)]):
        window = [call for call in calls if call[1] == lo]
        held = set().union(*(distinct_pieces(a) for a in mats[lo:hi]))
        assert sorted(b for call in window for b in call[2]) == sorted(held)
        sizes = [n for call in window for n in call[3]]
        assert sizes == sorted(sizes)
        # it ran once the matrix that closed it was read, and no later one
        assert {call[0] for call in window} == {min(hi + 1, len(mats))}
        rows, residues = sum(len(a) for a in mats[lo:hi]), sum(len(b) // 8 for b in held)
        assert hi - lo == 1 or (rows <= window_rows and residues <= window_residues)
        if hi < len(mats):
            more = sum(len(b) // 8 for b in distinct_pieces(mats[hi]) - held)
            assert rows + len(mats[hi]) > window_rows or residues + more > window_residues


# -- the einsum Gram matrix of the trace pairing ------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_trace_gram_is_pairwise_trace(p):
    parts = [[1], [2], [p], [2, 1], [p - 1, 2]]
    for sa in parts:
        for sb in parts:
            a, b = jordan_module(p, sa), jordan_module(p, sb)
            gram = _trace_gram(hom_stack(a, b), hom_stack(b, a), p)
            fwd, bwd = hom_stack(a, b), hom_stack(b, a)
            want = [[int(np.trace(matmul_mod(f, u, p))) % p for u in bwd] for f in fwd]
            assert gram.shape == (len(fwd), len(bwd))
            assert gram.tolist() == want
