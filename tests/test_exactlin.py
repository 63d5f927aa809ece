"""Exact linear algebra: spec examples, enumeration oracles, random grids."""

import math
import random
import signal
from fractions import Fraction
from itertools import islice, product, repeat
from unittest import mock

import numpy as np
import pytest

import vercat.exactlin
from vercat.exactlin import (
    GF,
    Field,
    Mat,
    _echelon_rounds,
    _partition_batch,
    _rref_mod,
    matmul_mod,
    nilpotent_partition,
    nilpotent_partitions,
    cokernel,
    kernel,
    pivots,
    rank,
    rref,
    solve_array,
)

F3, F5 = GF(3), GF(5)

#: Every public array function, called on (a, p)
ARRAY_FUNCTIONS = {
    "rref": rref,
    "pivots": pivots,
    "rank": rank,
    "kernel": kernel,
    "solve_array": lambda a, p: solve_array(a, np.zeros((len(a), 1), dtype=np.int64), p),
    "cokernel": cokernel,
}


def plain(answer):
    """An answer with its arrays as nested lists, comparable by ==."""
    if isinstance(answer, np.ndarray):
        return answer.tolist()
    if isinstance(answer, (tuple, list)):
        return [plain(x) for x in answer]
    return answer


def within_a_second(call):
    """call(), or TimeoutError if it runs for more than a second."""

    def expire(signum, frame):
        raise TimeoutError("still running after a second")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# the array functions' fields in the loops below
CHARS = [2, 5, 13]


def rand_array(rng, p, rows, cols):
    """Random residues mod p."""
    a = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rows):
        for j in range(cols):
            a[i, j] = rng.randrange(p)
    return a


def enum_kernel_dim(a: np.ndarray, p: int) -> int:
    """Independent oracle: count solutions of A v = 0 by full enumeration."""
    count = 0
    for vec in product(range(p), repeat=a.shape[1]):
        v = np.array(vec, dtype=np.int64).reshape(-1, 1)
        if not ((a @ v) % p).any():
            count += 1
    dim = 0
    while p**dim < count:
        dim += 1
    assert p**dim == count, "solution set is not a subspace?!"
    return dim


class TestField:
    def test_valid(self):
        assert GF(2).characteristic == 2
        assert GF(65537).characteristic == 65537

    def test_invalid(self):
        for bad in (0, 1, 4, 6, 9, -3):
            for make in (Field, GF):
                with pytest.raises(ValueError, match="must be a prime <= 65537"):
                    make(bad)

    def test_no_matrix_over_q(self):
        # there is no field of characteristic 0, for Mat or the array functions
        with pytest.raises(ValueError, match="got 0"):
            Mat(Field(0), [[1, 2], [3, 4]])

    def test_prime_above_exact_bound_rejected(self):
        # in int64, [[p-1]] @ [[p-1]] would come out as 4294967087, not 1
        with pytest.raises(ValueError, match="65537"):
            GF(4294967311)

    def test_largest_prime_is_exact(self):
        f = GF(65537)
        m = Mat(f, [[65536]])
        assert m @ m == Mat(f, [[1]])


class TestRref:
    def test_empty(self):
        r, piv = rref(np.zeros((0, 0), dtype=np.int64), 5)
        assert r.shape == (0, 0) and piv == []

    def test_identity(self):
        r, piv = rref(np.eye(3, dtype=np.int64), 5)
        assert r.tolist() == np.eye(3, dtype=np.int64).tolist()
        assert piv == [0, 1, 2]

    def test_dependent_rows(self):
        # hand row-reduction: row2 - 2*row1 kills the second row
        r, piv = rref(np.array([[1, 2], [2, 4]]), 5)
        assert r.tolist() == [[1, 2], [0, 0]]
        assert piv == [0]

    def test_idempotent(self):
        rng = random.Random(11)
        for p in CHARS:
            for _ in range(25):
                a = rand_array(rng, p, rng.randint(1, 5), rng.randint(1, 5))
                r, _ = rref(a, p)
                r2, _ = rref(r, p)
                assert r.tolist() == r2.tolist()


class TestRankKernel:
    def test_zero(self):
        a = np.zeros((2, 3), dtype=np.int64)
        assert rank(a, 5) == 0
        assert kernel(a, 5).shape[1] == 3

    def test_identity(self):
        a = np.eye(4, dtype=np.int64)
        assert rank(a, 5) == 4
        assert kernel(a, 5).shape[1] == 0

    def test_dependent(self):
        a = np.array([[1, 2], [2, 4]])
        assert rank(a, 5) == 1
        k = kernel(a, 5)
        assert k.shape[1] == 1
        # solving x + 2y = 0 gives (-2, 1) = (3, 1)
        assert k[:, 0].tolist() == [3, 1]

    def test_kernel_annihilates(self):
        rng = random.Random(5)
        for p in CHARS:
            for _ in range(25):
                a = rand_array(rng, p, rng.randint(1, 5), rng.randint(1, 6))
                assert not (a @ kernel(a, p) % p).any()

    def test_kernel_dim_by_enumeration(self):
        rng = random.Random(7)
        for p in (2, 3):
            for _ in range(10):
                a = rand_array(rng, p, rng.randint(1, 3), rng.randint(1, 4))
                assert kernel(a, p).shape[1] == enum_kernel_dim(a, p)

    def test_rank_nullity_200_per_field(self):
        rng = random.Random(2024)
        for p in CHARS:
            for _ in range(200):
                a = rand_array(rng, p, rng.randint(0, 6), rng.randint(0, 7))
                assert rank(a, p) + kernel(a, p).shape[1] == a.shape[1]

    def test_pivots_of_unreduced_int64_entries(self):
        # 2^32 = 4 mod 7 but 0 mod 2^32: reduce before narrowing to int32
        a = np.array([[2**32, 0], [0, 1]])
        for p in (7, 65537):
            assert pivots(a, p) == pivots(-a, p) == rref(a, p)[1] == [0, 1]

    def test_image_basis(self):
        # the columns at the pivots form a basis of the column span
        a = np.array([[1, 2, 0], [2, 4, 1]])
        img = a[:, pivots(a, 5)]
        assert img.shape[1] == 2
        assert img[:, 0].tolist() == [1, 2]


class TestSolveInverse:
    def test_solve_consistent(self):
        rng = random.Random(3)
        for p in CHARS:
            for _ in range(20):
                a = rand_array(rng, p, rng.randint(1, 4), rng.randint(1, 4))
                x_true = rand_array(rng, p, a.shape[1], 2)
                b = a @ x_true % p
                x = solve_array(a, b, p)
                assert x is not None
                assert (a @ x % p).tolist() == b.tolist()

    def test_solve_inconsistent(self):
        a = Mat(F5, [[1, 2], [2, 4]])
        b = Mat(F5, [[0], [1]])
        assert solve_array(a.a, b.a, 5) is None

    def test_inverse(self):
        rng = random.Random(9)
        for _ in range(10):
            while True:
                a = rand_array(rng, 5, 3, 3)
                if rank(a, 5) == 3:
                    break
            m = Mat(F5, a)
            assert m @ m.inverse() == Mat.identity(F5, 3)

    def test_inverse_singular(self):
        a = np.array([[1, 2], [2, 4]])
        with pytest.raises(ValueError, match="matrix is singular"):
            Mat(F5, a).inverse()
        assert solve_array(a, np.eye(2, dtype=np.int64), 5) is None


class TestQuotientBasis:
    """span(v) / span(w) is `cokernel(solve_array(v, w, p), p)`, and
    `cokernel(w, p)` when v is the identity: the unit vectors at the
    kept coordinates are the coset representatives."""

    def test_w_zero(self):
        proj, free = cokernel(np.zeros((3, 0), dtype=np.int64), 5)
        assert free == [0, 1, 2]
        assert proj.tolist() == np.eye(3, dtype=np.int64).tolist()

    def test_w_equals_v(self):
        proj, free = cokernel(np.eye(3, dtype=np.int64), 5)
        assert free == []
        assert proj.shape[0] == 0

    def test_gf2_hyperplane(self):
        w = np.array([[1], [1], [0], [0]])
        proj, free = cokernel(w, 2)
        assert len(free) == 3
        assert proj.shape[0] == 3
        assert not (proj @ w % 2).any()

    def test_not_contained(self):
        v = np.array([[1], [0], [0]])
        w = np.array([[0], [1], [0]])
        assert solve_array(v, w, 5) is None

    def test_projection_kills_w_randomly(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(2, 5)
            w = rand_array(rng, 3, n, rng.randint(0, n))
            proj, free = cokernel(w, 3)
            assert not (proj @ w % 3).any()
            assert len(free) == n - rank(w, 3)


class TestKronecker:
    def test_unit_right(self):
        a = Mat(F5, [[1, 2], [3, 4]])
        assert a.kron(Mat.identity(F5, 1)) == a

    def test_identities(self):
        assert Mat.identity(F5, 3).kron(Mat.identity(F5, 4)) == Mat.identity(F5, 12)

    def test_unipotent_blocks_gf3(self):
        # direct expansion of J (x) J for the 2x2 unipotent block
        j = Mat(F3, [[1, 1], [0, 1]])
        expected = Mat(
            F3,
            [
                [1, 1, 1, 1],
                [0, 1, 0, 1],
                [0, 0, 1, 1],
                [0, 0, 0, 1],
            ],
        )
        assert j.kron(j) == expected

    def test_associative(self):
        rng = random.Random(23)
        for _ in range(10):
            a = Mat(F5, rand_array(rng, 5, 2, 2))
            b = Mat(F5, rand_array(rng, 5, 2, 3))
            c = Mat(F5, rand_array(rng, 5, 3, 2))
            assert a.kron(b).kron(c) == a.kron(b.kron(c))

    def test_mixed_field_rejected(self):
        with pytest.raises(ValueError):
            Mat.identity(F5, 2).kron(Mat.identity(F3, 2))


class TestNilpotentPartition:
    def test_zero(self):
        assert nilpotent_partition(Mat.zeros(F5, 4, 4)) == (1, 1, 1, 1)

    def test_single_block(self):
        n = Mat(F5, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert nilpotent_partition(n) == (3,)

    def test_tensor_square_gf3(self):
        j = Mat(F3, [[1, 1], [0, 1]])
        n = j.kron(j) - Mat.identity(F3, 4)
        assert nilpotent_partition(n) == (3, 1)
        # enumeration oracle for the rank sequence over GF(3)^4
        ranks = []
        power = Mat.identity(F3, 4)
        for _ in range(4):
            power = power @ n
            ranks.append(4 - enum_kernel_dim(power.a, 3))
        assert ranks[:3] == [2, 1, 0]

    def test_not_nilpotent(self):
        with pytest.raises(ValueError):
            nilpotent_partition(Mat.identity(F5, 3))

    def test_conjugation_invariance(self):
        rng = random.Random(31)
        for _ in range(20):
            n_dim = rng.randint(2, 6)
            # random nilpotent: strictly upper triangular entries
            raw = np.zeros((n_dim, n_dim), dtype=np.int64)
            for i in range(n_dim):
                for j in range(i + 1, n_dim):
                    raw[i, j] = rng.randrange(5)
            n = Mat(F5, raw)
            while True:
                p_mat = Mat(F5, rand_array(rng, 5, n_dim, n_dim))
                if rank(p_mat.a, 5) == n_dim:
                    break
            conj = p_mat @ n @ p_mat.inverse()
            assert nilpotent_partition(conj) == nilpotent_partition(n)


class TestNilpotentPartitions:
    def test_not_nilpotent_inside_batch(self):
        good = np.array([[0, 1], [0, 0]])
        # rank N = rank N^2 = 1: the chain stops dropping above zero
        bad = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 2]])
        # J_5 (+) [3]: rank N^k drops to 1 at k = 5 and stays there, so only
        # a pivot at level 6 = n shows that N^n != 0
        late = np.zeros((6, 6), dtype=np.int64)
        late[:5, :5] = np.eye(5, k=1, dtype=np.int64)
        late[5, 5] = 3
        for batch in ([good, bad, good], [good, np.eye(3, dtype=np.int64)], [late]):
            with pytest.raises(ValueError, match="not nilpotent"):
                list(nilpotent_partitions((a, 5) for a in batch))

    def test_mixed_field_batch(self):
        zero = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(ValueError, match=r"^field mismatch: GF\(5\) vs GF\(3\)$"):
            list(nilpotent_partitions([(zero, 5), (zero, 3)]))

    @pytest.mark.parametrize("p", [0, 1, 4, 65539])
    def test_prime_rejected_by_gf(self, p):
        with pytest.raises(ValueError, match="characteristic must be a prime"):
            list(nilpotent_partitions([(np.zeros((2, 2), dtype=np.int64), p)]))

    def test_not_square(self):
        pairs = [(np.zeros((2, 2), dtype=np.int64), 5), (np.zeros((2, 3), dtype=np.int64), 5)]
        with pytest.raises(ValueError, match="square"):
            list(nilpotent_partitions(pairs))

    @pytest.mark.parametrize("shape", [(), (4,), (2, 2, 2)])
    def test_not_a_matrix(self, shape):
        # a 0-d array has no len(); none of these is a square matrix
        with pytest.raises(ValueError, match="^nilpotent_partition requires a square matrix$"):
            list(nilpotent_partitions([(np.zeros(shape, dtype=np.int64), 5)]))

    @pytest.mark.parametrize("n, p", [(2, 5), (17, 65537)])
    def test_reads_lazily(self, n, p):
        # an endless stream of one block still yields its first results; J_17
        # is split (one component), and its window closes on its rows
        block = np.eye(n, k=1, dtype=np.int64)
        first = islice(nilpotent_partitions(repeat((block, p))), 3)
        assert list(first) == [(n,)] * 3

    def test_empty_stream(self):
        assert list(nilpotent_partitions([])) == []

    def test_not_nilpotent_inside_width_class(self):
        # sizes 5 to 8 share the padded width class 8; the 6 x 6 member has
        # a unit eigenvalue, its neighbours in the class are nilpotent
        def shift(n):
            return np.eye(n, k=1, dtype=np.int64), 5

        bad = np.eye(6, k=1, dtype=np.int64)
        bad[5, 5] = 1
        assert list(nilpotent_partitions([shift(5), shift(7), shift(8)])) == [(5,), (7,), (8,)]
        with pytest.raises(ValueError, match="not nilpotent"):
            list(nilpotent_partitions([shift(5), (bad, 5), shift(7), shift(8)]))

    def test_not_nilpotent_inside_sorted_sub_batch(self):
        # the sub-batch runs its pieces in ascending size: the 4 x 4 member
        # with the unit eigenvalue sits between nilpotent ones
        shifts = [np.eye(n, k=1, dtype=np.int64) for n in (6, 2, 5, 3)]
        bad = np.eye(4, k=1, dtype=np.int64)
        bad[3, 3] = 3
        assert _partition_batch(shifts, 5) == [(6,), (2,), (5,), (3,)]
        with pytest.raises(ValueError, match="^matrix is not nilpotent$"):
            _partition_batch([*shifts[:2], bad, *shifts[2:]], 5)
        with pytest.raises(ValueError, match="^matrix is not nilpotent$"):
            list(nilpotent_partitions((a, 5) for a in [*shifts[:2], bad, *shifts[2:]]))

    def test_deep_pipelines_in_one_window(self):
        # single blocks at p = 65537 feed every level up to n - 1, beside
        # 0 x 0 and 1 x 1 members; each block also in a random basis
        p, rng, calls = 65537, random.Random(65537), []
        items, want = [], []
        for n in (17, 33, 65):
            shift = np.eye(n, k=1, dtype=np.int64)
            while True:
                change = Mat(GF(p), rand_array(rng, p, n, n))
                if rank(change.a, p) == n:
                    break
            dense = (change @ Mat(GF(p), shift) @ change.inverse()).a
            empty, one = np.zeros((0, 0), dtype=np.int64), np.zeros((1, 1), dtype=np.int64)
            items += [shift, empty, dense, one]
            want += [(n,), (), (n,), (1,)]

        def recorded(mats, q):
            calls.append([a.dtype for a in mats])
            return _partition_batch(mats, q)

        with mock.patch.object(vercat.exactlin, "_partition_batch", recorded):
            assert list(nilpotent_partitions((a, p) for a in items)) == want
        # one window and one sub-batch of its 8 distinct pieces
        assert [len(c) for c in calls] == [8]
        assert {d for c in calls for d in c} == {np.dtype(np.uint32)}

    @pytest.mark.parametrize("p, dtype", [(251, np.uint8), (257, np.uint16), (65521, np.uint16)])
    def test_pieces_held_in_narrowest_type(self, p, dtype):
        calls = []

        def recorded(mats, q):
            calls.append({a.dtype for a in mats})
            return _partition_batch(mats, q)

        block = (p - 1) * np.eye(3, k=1, dtype=np.int64)
        with mock.patch.object(vercat.exactlin, "_partition_batch", recorded):
            assert list(nilpotent_partitions([(block, p), (-block, p)])) == [(3,), (3,)]
        assert calls == [{np.dtype(dtype)}]

    def test_levels_split_at_chain_bytes(self):
        # int64 rounds at p = 65537: a 64 x 64 piece takes 64 * 64 * 8 bytes
        # a level, so a bound of four levels runs J_64 in 16 eliminations
        p, n, calls = 65537, 64, []
        shift = np.eye(n, k=1, dtype=np.int64)

        def recorded(*args):
            piv, slot = _echelon_rounds(*args)
            calls.append(piv[:-1].nbytes)
            return piv, slot

        with mock.patch.object(vercat.exactlin, "CHAIN_BYTES", 4 * n * n * 8):
            with mock.patch.object(vercat.exactlin, "_echelon_rounds", recorded):
                assert list(nilpotent_partitions([(shift, p)])) == [(n,)]
        assert len(calls) == 16 and max(calls) <= 4 * n * n * 8


def _rank_partition(n: np.ndarray, p: int) -> tuple[int, ...]:
    """The Jordan type of a nilpotent array from the ranks of its powers,
    each by the int64 `_rref_mod`: rank N^(k-1) - rank N^k blocks have
    size at least k."""
    ranks, power = [len(n)], np.eye(len(n), dtype=np.int64)
    while ranks[-1]:
        power = power @ n % p
        ranks.append(len(_rref_mod(power, p)[1]))
    at_least = [a - b for a, b in zip(ranks, ranks[1:])] + [0]
    sizes = range(len(at_least) - 1, 0, -1)
    return tuple(k for k in sizes for _ in range(at_least[k - 1] - at_least[k]))


class TestInt16Boundary:
    """p = 181 is the last prime with (p-1)^2 < 2^15, where the rounds hold
    residues as int16; p = 191 holds them as int32.  Entries p - 1 make
    the rounds subtract (p-1)^2, the extreme of their range."""

    @pytest.mark.parametrize("p, dtype", [(181, np.int16), (191, np.int32)])
    def test_entries_at_p_minus_one(self, p, dtype):
        rng = np.random.default_rng(p)
        nils = []
        for n in (4, 12, 30):
            for density in (0.2, 0.5, 1.0):
                a = (p - 1) * (rng.random((n, n)) < density).astype(np.int64)
                a[n // 2 :] = a[: n - n // 2]  # rank deficient
                assert pivots(a, p) == _rref_mod(a, p)[1]
                a = (p - 1) * (rng.random((n, n)) < density).astype(np.int64)
                assert pivots(a, p) == _rref_mod(a, p)[1]
                # strictly upper triangular, so nilpotent, in a permuted basis
                perm = rng.permutation(n)
                nils.append(np.triu(a, 1)[perm][:, perm])
        want = [_rank_partition(n, p) for n in nils]
        assert [nilpotent_partition(Mat(GF(p), n)) for n in nils] == want
        assert list(nilpotent_partitions((n, p) for n in nils)) == want
        piv, _ = _echelon_rounds(a, np.zeros(len(a), dtype=np.intp), 1, p)
        assert piv.dtype == dtype


def _int_product(a, b, p):
    """a @ b mod p by Python integer arithmetic."""
    k = a.shape[1]
    return [
        [sum(int(a[i, t]) * int(b[t, j]) for t in range(k)) % p for j in range(b.shape[1])]
        for i in range(a.shape[0])
    ]


class TestMatmulMod:
    @pytest.mark.parametrize("shape", [(3, 4, 2), (5, 1, 5), (0, 3, 2), (2, 0, 3), (3, 2, 0)])
    def test_p2_random(self, shape):
        rows, inner, cols = shape
        rng = np.random.default_rng(sum(shape))
        a = rng.integers(0, 2, (rows, inner))
        b = rng.integers(0, 2, (inner, cols))
        c = matmul_mod(a, b, 2)
        assert c.dtype == np.int64 and c.shape == (rows, cols)
        assert c.tolist() == _int_product(a, b, 2)

    @pytest.mark.parametrize("shape", [(2, 4096, 3), (1, 1, 1), (0, 7, 2), (2, 0, 2), (3, 5, 0)])
    def test_p65537_all_entries_p_minus_1(self, shape):
        # every partial sum reaches k (p-1)^2 = k 2^32, the largest it can be
        p = 65537
        rows, inner, cols = shape
        a = np.full((rows, inner), p - 1, dtype=np.int64)
        b = np.full((inner, cols), p - 1, dtype=np.int64)
        assert matmul_mod(a, b, p).tolist() == _int_product(a, b, p)

    def test_inner_size_bound(self):
        # (p-1)^2 = 2^32, so one float64 product is exact only below 2^21
        # terms; past that the inner size is split into chunks.  With p-1
        # every partial sum is a multiple of 2^32, exact anyway; with p-2
        # and 2^21 + 65 terms the sum is odd and above 2^53, and one
        # float64 product comes out 1 short
        p = 65537
        for entry, k in ((p - 1, 2**21 + 3), (p - 2, 2**21 + 65)):
            a = np.full((1, k), entry, dtype=np.int64)
            got = matmul_mod(a, a.T, p)
            assert got.dtype == np.int64 and got.tolist() == [[k * entry**2 % p]]


@pytest.mark.parametrize("p", [2, 11, 65537])
@pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
@pytest.mark.parametrize("batch", [(), (2,)], ids=["2d", "stacked"])
def test_matmul_mod_int64_and_blas_paths_agree(monkeypatch, p, side, batch):
    # products just below TINY_MADDS multiply-adds (batch axes counted) go
    # through int64, just above through float64 BLAS; forcing either path
    # gives the exact product, largest entries p - 1 included
    m, k = 4, 16
    n = vercat.exactlin.TINY_MADDS // (m * k * math.prod(batch)) + side
    rng = np.random.default_rng(p + n)
    a = rng.integers(0, p, (*batch, m, k))
    b = rng.integers(0, p, (*batch, k, n))
    a[..., 0, :] = b[..., :, 0] = p - 1
    madds = math.prod(batch) * m * k * n
    assert (madds < vercat.exactlin.TINY_MADDS) == (side < 0)
    want = (a.astype(object) @ b.astype(object)) % p
    for forced in (None, 0, 2**62):  # as chosen, all BLAS, all int64
        if forced is not None:
            monkeypatch.setattr(vercat.exactlin, "TINY_MADDS", forced)
        got = matmul_mod(a, b, p)
        assert got.dtype == np.int64 and got.tolist() == want.tolist(), forced


@pytest.mark.parametrize("p", [2, 13, 65537])
@pytest.mark.parametrize("shape", [(3, 2, 4, 5), (4, 1, 1, 1), (2, 0, 3, 2), (2, 3, 0, 2), (0, 2, 2, 2)])
def test_matmul_mod_stacked_matches_per_slice(p, shape):
    # (s, m, k) @ (s, k, n): each slice is the 2-D product mod p, here
    # against int64 matmul, exact since k (p-1)^2 < 2^63
    s, m, k, n = shape
    rng = np.random.default_rng(p + 7 * sum(shape))
    a = rng.integers(0, p, (s, m, k))
    b = rng.integers(0, p, (s, k, n))
    got = matmul_mod(a, b, p)
    assert got.dtype == np.int64 and got.shape == (s, m, n)
    for i in range(s):
        assert got[i].tolist() == ((a[i] @ b[i]) % p).tolist()


def test_matmul_mod_stacked_chunked_inner_size():
    # at p = 65537 an inner size of 2^21 + 65 is split into two chunks;
    # with entries p - 2 one float64 product would come out 1 short
    p, k = 65537, 2**21 + 65
    a = np.full((2, 1, k), p - 2, dtype=np.int64)
    a[1, 0, ::2] = p - 1
    got = matmul_mod(a, a.transpose(0, 2, 1), p)
    want = [((x @ x.T) % p).tolist() for x in a]
    assert got.dtype == np.int64 and got.tolist() == want


class TestEntries:
    def test_no_floats_anywhere(self):
        m = Mat(F5, [[1, 2], [3, 4]])
        assert m.a.dtype == np.int64

    def test_float_entries_rejected(self):
        with pytest.raises(ValueError):
            Mat(F5, [[1.5, 2.0], [3.0, 4.0]])

    # p = 0 is refused before the entries are read: see the next test
    @pytest.mark.parametrize("p", [3])
    @pytest.mark.parametrize("entries", [[[0.5, 1.0]], [[1.5, 0.0]], [[1.0, 0.0]], [[1j, 0]]])
    def test_array_functions_reject_floats(self, entries, p):
        # truncating [[0.5, 1.0]] would read pivot column 1, [[1.5, 0.0]]
        # a 1.5 entry; even integral floats are refused, as by Mat
        for call in ARRAY_FUNCTIONS.values():
            with pytest.raises(ValueError, match="^floating point entries are not allowed$"):
                call(np.array(entries), p)

    @pytest.mark.parametrize("p", [0, 1, 4, -3, 65539])
    @pytest.mark.parametrize("name", ARRAY_FUNCTIONS)
    def test_array_functions_refuse_non_primes(self, name, p):
        # GF(p) is checked before anything is read: at p = 1 the table of
        # inverses would raise to the power p - 2 = -1 and never stop, at
        # p = 4 a rank would be read over a ring that is not a field
        a = np.array([[1, 2], [3, 4]])
        with pytest.raises(ValueError, match=f"^characteristic must be a prime <= 65537, got {p}$"):
            within_a_second(lambda: ARRAY_FUNCTIONS[name](a, p))

    def test_fraction_entries_refused(self):
        # read as integers, 1/2 would be 0 mod 5 rather than 3
        half = Fraction(1, 2)
        for call in ARRAY_FUNCTIONS.values():
            with pytest.raises(ValueError, match="^entries must be integers$"):
                call(np.array([[half, 1], [1, 2]], dtype=object), 5)
        with pytest.raises(ValueError, match="^entries must be integers$"):
            Mat(F5, [[half]])
        with pytest.raises(ValueError, match="^entries must be integers$"):
            list(nilpotent_partitions([(np.array([[0, half], [0, 0]], dtype=object), 5)]))

    def test_object_arrays_of_ints_pass(self):
        # 2^70 = 4 mod 5 only as a Python int; int64 cannot hold it
        a = np.array([[2**70, 2], [2, 1]], dtype=object)
        assert rank(a, 5) == 1 and rref(a, 5)[0].tolist() == [[1, 3], [0, 0]]
        assert Mat(F5, np.array([[1, 2]], dtype=object)) == Mat(F5, [[1, 2]])
        nil = np.array([[0, 1], [0, 0]], dtype=object)
        assert list(nilpotent_partitions([(nil, 5)])) == [(2,)]

    @pytest.mark.parametrize(
        "dtype, p, rows",
        [
            (np.uint8, 13, [[4, 8, 12, 9], [10, 4, 10, 3], [0, 9, 1, 2], [1, 12, 9, 12]]),
            (np.int8, 101, [[64, 51, 27, 31], [7, 1, 17, 82], [92, 50, 61, 98], [71, 52, 44, 12]]),
            (np.uint64, 13, [[0, 2, 2, 7], [9, 4, 3, 8], [0, 12, 2, 3], [9, 6, 5, 2]]),
        ],
    )
    def test_narrow_and_unsigned_types_reduce_exactly(self, dtype, p, rows):
        # eliminated in the input's own type these overflowed or wrapped
        a = np.array(rows)
        (r, piv), (want, want_piv) = rref(a.astype(dtype), p), rref(a, p)
        assert r.dtype == np.int64 and (r.tolist(), piv) == (want.tolist(), want_piv)

    @pytest.mark.parametrize("name", ["rref", "pivots", "rank", "kernel", "cokernel", "jordan"])
    @pytest.mark.parametrize(
        "dtype, p, top",
        [
            (np.int8, 131, [-128, 127, -1, 5, 0, -77]),
            (np.uint8, 257, [255, 1, 200, 0, 7, 128]),
            (np.int16, 40009, [-32768, 32767, -1, 12345, 0, -20000]),
        ],
        ids=["int8-131", "uint8-257", "int16-40009"],
    )
    def test_every_integer_type_reduces_like_int64(self, name, dtype, p, top):
        # p does not fit these types: reducing in the input's own type
        # raised numpy's OverflowError
        a = np.zeros((4, 4), dtype=np.int64)
        a[np.triu_indices(4, 1)] = top  # strictly upper: nilpotent too
        calls = {**ARRAY_FUNCTIONS, "jordan": lambda a, p: list(nilpotent_partitions([(a, p)]))}
        assert plain(calls[name](a.astype(dtype), p)) == plain(calls[name](a, p))

    def test_uint64_entries_past_int64_reduce_exactly(self):
        # 2^64 - 1 = 0 mod 5 and 2^63 = 3 mod 5; widened first they wrapped
        a = np.array([[2**64 - 1, 2**63], [1, 2**63 + 1]], dtype=np.uint64)
        want = [[x % 5 for x in row] for row in a.tolist()]
        assert Mat(F5, a).a.tolist() == want == [[0, 3], [1, 4]]
        assert plain(rref(a, 5)) == plain(rref(np.array(want), 5))

    @pytest.mark.parametrize("name", ["rref", "kernel", "solve_array", "cokernel"])
    @pytest.mark.parametrize("prime", [np.int64(5), np.uint16(5), np.int8(5)])
    def test_prime_of_any_integer_type(self, name, prime):
        # the inverse of a pivot was taken mod the prime as given, which
        # pow() refuses for a numpy integer
        a = np.array([[2, 4, 1], [1, 3, 3]])
        assert plain(ARRAY_FUNCTIONS[name](a, prime)) == plain(ARRAY_FUNCTIONS[name](a, 5))
        assert GF(prime) is F5 and type(GF(prime).characteristic) is int

    def test_jordan_types_reject_floats(self):
        with pytest.raises(ValueError, match="^floating point entries are not allowed$"):
            list(nilpotent_partitions([(np.array([[0, 0.5], [0, 0]]), 3)]))

    def test_empty_float_arrays_pass(self):
        # Mat's rule: an empty array has no entries to truncate
        assert pivots(np.zeros((0, 3)), 3) == []
        assert rref(np.zeros((2, 0)), 3)[1] == []
        assert list(nilpotent_partitions([(np.zeros((0, 0)), 3)])) == [()]


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: solve_array(np.zeros((2, 2), np.int64), np.zeros((3, 1), np.int64), 5),
            "row count mismatch",
        ),
        (lambda: Mat(F5, [1, 2, 3]), "matrix entries must be 2-dimensional"),
        (lambda: Mat(F5, [[1, 0, 0], [0, 1, 0]]).inverse(), "inverse requires a square matrix"),
    ],
    ids=["solve-rows", "one-dimensional-entries", "non-square-inverse"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
