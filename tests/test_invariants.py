"""Exact linear algebra: Smith normal form against an independent
determinantal-divisor oracle and against the old fold-and-repeat
elimination, the certified invariant factors, homology groups,
signatures against two independent oracles, profiles."""

import itertools
import math
import random

import pytest

from cobkit import (AbelianGroup, IntMatrix, borromean, boundary_profile,
                    h1_closed, h1_cobordism, hopf, identity_diagram,
                    invariant_factors, linking_matrix, mend, sigma_g_s1_link,
                    signature, smith_normal_form, tensor, unknot, wedge_row)
from cobkit import invariants
from cobkit.errors import PreconditionError
from conftest import (descartes_signature_oracle, det, signature_oracle,
                      smith_normal_form_oracle)


# -- independent oracle -------------------------------------------------------
# The k-th determinantal divisor of an integer matrix is the gcd of all
# k x k minors; the Smith diagonal entries are their successive
# quotients.  This needs no elimination at all, so it cross-checks the
# implementation from a different direction.

def _minor_gcd(m: IntMatrix, k: int) -> int:
    g = 0
    rows = range(m.rows)
    cols = range(m.cols)
    for rsel in itertools.combinations(rows, k):
        for csel in itertools.combinations(cols, k):
            sub = IntMatrix(tuple(tuple(m.entries[i][j] for j in csel)
                                  for i in rsel))
            g = math.gcd(g, det(sub))
    return g


def snf_diagonal_oracle(m: IntMatrix):
    diag = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        dk = _minor_gcd(m, k)
        if dk == 0:
            break
        diag.append(dk // prev)
        prev = dk
    diag += [0] * (min(m.rows, m.cols) - len(diag))
    return diag


def _is_unimodular(u: IntMatrix) -> bool:
    return det(u) in (1, -1)


def _leibniz_det(m: IntMatrix) -> int:
    total = 0
    for perm in itertools.permutations(range(m.rows)):
        inversions = sum(perm[i] > perm[j] for i, j in
                         itertools.combinations(range(m.rows), 2))
        total += (-1) ** inversions * math.prod(
            m.entries[i][perm[i]] for i in range(m.rows))
    return total


def _random_matrix(rng, r, c, density=1.0, bound=4):
    return IntMatrix(tuple(
        tuple(rng.randint(-bound, bound) if rng.random() < density else 0
              for _ in range(c))
        for _ in range(r)))


def test_bareiss_det_matches_permutation_expansion():
    rng = random.Random(271828)
    for _ in range(150):
        n = rng.randint(0, 5)
        m = _random_matrix(rng, n, n, density=rng.choice([0.3, 0.7, 1.0]))
        assert det(m) == _leibniz_det(m), m.entries


def _naive_mul(a: IntMatrix, b: IntMatrix):
    return tuple(tuple(sum(a.entries[i][k] * b.entries[k][j]
                           for k in range(a.cols))
                       for j in range(b.cols))
                 for i in range(a.rows))


def test_mul_matches_naive_product():
    rng = random.Random(1729)
    for _ in range(200):
        r, k, c = (rng.randint(1, 7) for _ in range(3))
        density = rng.choice([0.0, 0.15, 0.5, 1.0])
        a = _random_matrix(rng, r, k, density, bound=10 ** 12)
        b = _random_matrix(rng, k, c, density)
        assert a.mul(b).entries == _naive_mul(a, b)
    for r, k, c in ((3, 3, 3), (2, 5, 1), (4, 1, 6)):
        z = IntMatrix.zero(r, k)
        m = _random_matrix(rng, k, c)
        assert z.mul(m).entries == IntMatrix.zero(r, c).entries
        assert IntMatrix.identity(r).mul(z).entries == z.entries
    with pytest.raises(ValueError):
        IntMatrix.zero(2, 3).mul(IntMatrix.zero(2, 3))


def test_snf_zero_and_rank_deficient():
    rng = random.Random(577215)
    cases = [IntMatrix.zero(r, c) for r, c in ((1, 1), (1, 5), (5, 1), (4, 6))]
    cases += [IntMatrix(((2, 4), (1, 2))),
              IntMatrix(((0, 0, 0), (0, 6, 0), (0, 0, 0)))]
    for _ in range(60):
        r, c = rng.randint(2, 5), rng.randint(2, 5)
        base = _random_matrix(rng, rng.randint(1, r - 1), c, bound=3)
        rows = [tuple(rng.choice([1, -2]) * x for x in
                      base.entries[rng.randrange(base.rows)])
                for _ in range(r - base.rows)]
        cases.append(IntMatrix(base.entries + tuple(rows)))
    for m in cases:
        u, d, v = smith_normal_form(m)
        assert u.mul(m).mul(v).entries == d.entries, m.entries
        assert _is_unimodular(u) and _is_unimodular(v)
        assert d.diagonal() == snf_diagonal_oracle(m), m.entries
        if not any(any(row) for row in m.entries):
            assert u == IntMatrix.identity(m.rows)
            assert v == IntMatrix.identity(m.cols)


def test_snf_zero_matrix():
    m = IntMatrix.zero(3, 3)
    u, d, v = smith_normal_form(m)
    assert d.entries == m.entries
    assert _is_unimodular(u) and _is_unimodular(v)


def test_snf_diag_2_3():
    m = IntMatrix(((2, 0), (0, 3)))
    u, d, v = smith_normal_form(m)
    assert d.diagonal() == [1, 6]
    assert u.mul(m).mul(v).entries == d.entries


def test_snf_identity_1x1():
    u, d, v = smith_normal_form(IntMatrix(((1,),)))
    assert d.entries == ((1,),)


def test_snf_oracle_randomized():
    rng = random.Random(20260808)
    for trial in range(200):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = IntMatrix(tuple(tuple(rng.randint(-3, 3) for _ in range(c))
                            for _ in range(r)))
        u, d, v = smith_normal_form(m)
        # exact transform identity
        assert u.mul(m).mul(v).entries == d.entries, m.entries
        assert _is_unimodular(u) and _is_unimodular(v)
        diag = d.diagonal()
        # off-diagonal zero, nonnegative diagonal, divisibility chain
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j:
                    assert d.entries[i][j] == 0
        assert all(x >= 0 for x in diag)
        nz = [x for x in diag if x != 0]
        assert diag == nz + [0] * (len(diag) - len(nz))
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        assert diag == snf_diagonal_oracle(m), m.entries


def _snf_case(rng, shape, n):
    """One seeded matrix of the named shape, about n rows."""
    if shape == "square":
        return _random_matrix(rng, n, n)
    if shape == "rect":
        return _random_matrix(rng, n, n + n // 4)
    if shape == "deficient":
        # a quarter of the rows repeat others up to sign
        keep = max(1, n - max(1, n // 4))
        rows = list(_random_matrix(rng, keep, n).entries)
        rows += [tuple(rng.choice((1, -1)) * x for x in rng.choice(rows))
                 for _ in range(n - keep)]
        rng.shuffle(rows)
        return IntMatrix(tuple(rows))
    if shape == "zero-lines":
        m = _random_matrix(rng, n, rng.randint(1, n + 2))
        dead_r = set(rng.sample(range(m.rows), rng.randint(0, m.rows)))
        dead_c = set(rng.sample(range(m.cols), rng.randint(0, m.cols)))
        return IntMatrix(tuple(
            tuple(0 if i in dead_r or j in dead_c else x
                  for j, x in enumerate(row))
            for i, row in enumerate(m.entries)))
    if shape == "row":
        return _random_matrix(rng, 1, n, density=rng.choice([0.3, 1.0]))
    if shape == "column":
        return _random_matrix(rng, n, 1, density=rng.choice([0.3, 1.0]))
    # "hidden-diagonal": small diagonal entries scrambled by unimodular
    # row and column steps, so the divisibility fix-up has work to do
    c = max(1, n + rng.randint(-1, 2))
    a = [[rng.choice((0, 1, 2, 3, 4, 6, 9, 12)) if i == j else 0
          for j in range(c)] for i in range(n)]
    for _ in range(3 * n):
        i, k = rng.randrange(n), rng.randrange(n)
        if i != k:
            q = rng.randint(-2, 2)
            a[i] = [x + q * y for x, y in zip(a[i], a[k])]
        j, l = rng.randrange(c), rng.randrange(c)
        if j != l:
            q = rng.randint(-2, 2)
            for row in a:
                row[j] += q * row[l]
    return IntMatrix(tuple(map(tuple, a)))


SNF_SHAPES = ("square", "rect", "deficient", "zero-lines", "row", "column",
              "hidden-diagonal")


def test_snf_matches_fold_and_repeat_oracle():
    """500 seeded matrices up to n = 16: D equals the old elimination's
    D, the transforms are exact and unimodular (Bareiss determinant)."""
    rng = random.Random(9_000_017)
    for k in range(500):
        shape = SNF_SHAPES[k % len(SNF_SHAPES)]
        m = _snf_case(rng, shape, rng.randint(1, 16))
        u, d, v = smith_normal_form(m)
        assert d.entries == smith_normal_form_oracle(m)[1].entries, \
            (shape, m.entries)
        assert u.mul(m).mul(v).entries == d.entries
        assert abs(det(u)) == 1 and abs(det(v)) == 1, (shape, m.entries)


def test_snf_dense_40_matches_oracle():
    m = _random_matrix(random.Random(40), 40, 40)
    assert (smith_normal_form(m)[1].entries
            == smith_normal_form_oracle(m)[1].entries)


def test_invariant_factors_match_snf_diagonal():
    """500 seeded matrices up to n = 40, entries in [-4, 4]: the
    certified factors are the nonzero diagonal of the transform SNF."""
    rng = random.Random(10_000_019)
    shapes = ("square", "rect", "deficient", "zero", "row", "column")
    for k in range(500):
        shape = shapes[k % len(shapes)]
        n = rng.randint(1, rng.choice((12, 40)))
        if shape == "zero":
            m = IntMatrix.zero(n, rng.randint(1, 40))
        else:
            m = _snf_case(rng, shape, n)
        diag = smith_normal_form(m)[1].diagonal()
        assert invariant_factors(m) == [x for x in diag if x], \
            (shape, m.entries)
    assert invariant_factors(IntMatrix(())) == []


def _corrupted(monkeypatch, corrupt):
    """Make ``invariant_factors`` see a diagonal that ``corrupt`` edits
    after the real elimination; ``corrupt(a, rank)`` returns the rank."""
    real = invariants._diagonalize
    monkeypatch.setattr(invariants, "_diagonalize",
                        lambda a, u, vt: corrupt(a, real(a, u, vt)))


def test_invariant_factors_certificate_rejects_wrong_diagonal(monkeypatch):
    m = IntMatrix(((2, 0, 4), (0, 3, 3), (6, 3, 0)))     # det -90
    assert invariant_factors(m) == [1, 3, 30]

    def set_diagonal(*diag):
        def corrupt(a, rank):
            for i, x in enumerate(diag):
                a[i][i] = x
            return rank
        return corrupt

    wrong = {
        "rank one short": lambda a, rank: rank - 1,
        "rank zero": lambda a, rank: 0,
        "d1 not the gcd": set_diagonal(3, 3, 10),
        "negative factor": set_diagonal(1, -3, -30),
        "broken chain": set_diagonal(1, 2, 45),
        "product not dividing": set_diagonal(1, 3, 60),
        "product a proper divisor": set_diagonal(1, 3, 15),
    }
    for name, corrupt in wrong.items():
        with monkeypatch.context() as mp:
            _corrupted(mp, corrupt)
            with pytest.raises(AssertionError):
                invariant_factors(m)
                pytest.fail(name)
    # rectangular: the product only has to divide the last pivot, 12
    r = IntMatrix(((2, 4, 0), (0, 6, 6)))
    assert invariant_factors(r) == [2, 6]
    for diag in ((2, 12), (1, 6)):
        with monkeypatch.context() as mp:
            _corrupted(mp, set_diagonal(*diag))
            with pytest.raises(AssertionError):
                invariant_factors(r)
    # a rank-deficient or zero m read one factor too far
    for low in (IntMatrix(((1, 2), (2, 4))), IntMatrix.zero(2, 2)):
        with monkeypatch.context() as mp:
            _corrupted(mp, lambda a, rank: rank + 1)
            with pytest.raises(AssertionError):
                invariant_factors(low)


def test_h1_closed_examples():
    assert h1_closed(borromean(0, 0, 0)) == AbelianGroup(rank=3)
    assert h1_closed(unknot(0)) == AbelianGroup(rank=1)
    assert h1_closed(unknot(1)) == AbelianGroup(rank=0)
    assert h1_closed(unknot(-5)) == AbelianGroup(rank=0, torsion=(5,))
    assert str(h1_closed(unknot(-5))) == "Z/5"


def test_h1_closed_rejects_wedges():
    with pytest.raises(PreconditionError):
        h1_closed(identity_diagram(1))


def test_h1_cobordism_examples():
    for g in range(4):
        assert h1_cobordism(identity_diagram(g)) == AbelianGroup(rank=2 * g)
    assert h1_cobordism(wedge_row([("incoming", 3)])) == AbelianGroup(rank=3)
    for d in [borromean(0, 0, 0), hopf(2, 3), unknot(7)]:
        assert h1_cobordism(d) == h1_closed(d)


def test_boundary_profiles():
    assert boundary_profile(identity_diagram(3)) == ((3,), (3,))
    assert boundary_profile(borromean(0, 0, 0)) == ((), ())
    t = tensor(wedge_row([("incoming", 1)]), identity_diagram(2))
    assert boundary_profile(t) == ((1, 2), (2,))


def test_signature_examples():
    assert signature(unknot(1)) == 1
    assert signature(unknot(-1)) == -1
    assert signature(hopf(0, 0)) == 0
    for g in range(4):
        assert signature(sigma_g_s1_link(g)) == 0


def test_signature_exactness_vs_eigen_free_cases():
    # diag-dominant and hyperbolic mixtures with known signatures
    assert signature(hopf(2, 3)) == 2          # det 5 > 0, trace > 0
    assert signature(hopf(1, -3)) == 0         # det -4 < 0
    assert signature(borromean(1, 1, 1)) == 3


def _symmetric_case(rng, kind, n):
    """One seeded symmetric matrix of the named kind, n x n."""
    a = [[0] * n for _ in range(n)]
    if kind == "hyperbolic":
        # hyperbolic blocks [[0, b], [b, 0]] and 1 x 1 blocks, glued by
        # sparse off-block entries and shuffled, diagonal mostly zero
        i = 0
        while i < n:
            if i + 1 < n and rng.random() < 0.7:
                a[i][i + 1] = a[i + 1][i] = rng.choice((-3, -2, -1, 1, 2, 3))
                i += 2
            else:
                a[i][i] = rng.choice((0, 0, -2, 1, 3))
                i += 1
        for _ in range(rng.randint(0, n)):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                a[i][j] = a[j][i] = rng.randint(-2, 2)
        order = list(range(n))
        rng.shuffle(order)
        return IntMatrix(tuple(tuple(a[i][j] for j in order) for i in order))
    if kind == "low-rank":
        # B^T diag(e) B with B of rank at most n // 2
        k = rng.randint(0, n // 2)
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
        e = [rng.choice((-1, 1, 2)) for _ in range(k)]
        return IntMatrix(tuple(
            tuple(sum(e[t] * b[t][i] * b[t][j] for t in range(k))
                  for j in range(n)) for i in range(n)))
    density = 0.3 if kind == "sparse" else 1.0
    for i in range(n):
        for j in range(i, n):
            if i == j and kind == "zero-diagonal":
                continue
            if rng.random() < density:
                a[i][j] = a[j][i] = rng.randint(-4, 4)
    return IntMatrix(tuple(map(tuple, a)))


SYMMETRIC_KINDS = ("dense", "sparse", "zero-diagonal", "hyperbolic",
                   "low-rank")


def _symmetric_cases():
    rng = random.Random(10_000_079)
    for k in range(500):
        kind = SYMMETRIC_KINDS[k % len(SYMMETRIC_KINDS)]
        yield kind, _symmetric_case(rng, kind, rng.randint(0, 12))


def test_signature_matches_oracles():
    """500 seeded symmetric matrices up to n = 12: the integer elimination
    equals the rational Schur-complement oracle, and for n <= 8 also
    Descartes' rule on the Berkowitz characteristic polynomial."""
    for kind, m in _symmetric_cases():
        sig = invariants._signature([list(r) for r in m.entries])
        assert sig == signature_oracle(m), (kind, m.entries)
        if m.rows <= 8:
            assert sig == descartes_signature_oracle(m), (kind, m.entries)
    for kind in ("dense", "zero-diagonal"):
        m = _symmetric_case(random.Random(40), kind, 40)
        assert (invariants._signature([list(r) for r in m.entries])
                == signature_oracle(m))


class _ExactInt(int):
    """An int whose floor divisions must leave no remainder; sums,
    differences, products and negations stay _ExactInt."""

    divisions = 0

    def __floordiv__(self, other):
        assert int(self) % int(other) == 0, (int(self), int(other))
        _ExactInt.divisions += 1
        return _ExactInt(int(self) // int(other))

    def __rfloordiv__(self, other):
        return _ExactInt(other).__floordiv__(self)


for _op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__neg__"):
    setattr(_ExactInt, _op, lambda self, *other, _f=getattr(int, _op):
            _ExactInt(_f(self, *other)))


def test_signature_elimination_divides_exactly():
    """Every division in the signature elimination and in the Bareiss
    certificate of invariant_factors leaves no remainder."""
    _ExactInt.divisions = 0
    for kind, m in _symmetric_cases():
        rows = [[_ExactInt(x) for x in r] for r in m.entries]
        assert invariants._signature(rows) == signature_oracle(m)
        invariants._bareiss([[_ExactInt(x) for x in r] for r in m.entries])
    assert _ExactInt.divisions > 10_000


def test_invariants_at_genus_32():
    g = 32
    sigma = sigma_g_s1_link(g)
    mended = mend(identity_diagram(g), "V", "U")
    both = tensor(identity_diagram(g), sigma)
    for d, rank in ((sigma, 2 * g + 1), (mended, 2 * g + 1),
                    (both, 4 * g + 1)):
        assert all(x == 0 for row in linking_matrix(d).entries for x in row)
        assert h1_cobordism(d) == AbelianGroup(rank=rank)
    assert signature(sigma) == 0
    assert signature(mended) == 0


def test_abelian_group_str():
    assert str(AbelianGroup(rank=0)) == "0"
    assert str(AbelianGroup(rank=1)) == "Z"
    assert str(AbelianGroup(rank=2, torsion=(2, 4))) == "Z^2 + Z/2 + Z/4"
    with pytest.raises(ValueError):
        AbelianGroup(rank=0, torsion=(2, 3))
