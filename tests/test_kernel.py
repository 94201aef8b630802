"""The integer-kernel primitives against their reference versions.

rrmf.scalars._trim_rows and _canonical and rrmf.polynomials._pseudo_divide
skip work on their fast paths; on seeded rows each must return exactly
what its straightforward version in tests/kernel_reference.py returns,
and must leave its input lists as they were.  Every sum of products
runs in one packed kernel in rrmf.scalars: the rows packed into
integers at a power of two (_at_power), one integer product per term
(_form_loop), the signed slots unpacked (_unpack).  Its products
(_mul_rows), the forms of a generator's components (component_forms)
and the forms over F_p (forms_mod, mul_mod) must return what schoolbook
products return (kernel_reference._mul_rows, _form_rows, image_forms),
up to the largest load of a slot.
"""

import copy
import random

import pytest

import kernel_reference as ref
from rrmf.hodograph import _IMAGE_FORMS, _SPEED_INNER
from rrmf.polynomials import (_PRIMES, QuatPoly, RealPoly, _pseudo_divide, component_forms,
                              forms_mod, mul_mod)
from rrmf.quaternions import Quaternion
from rrmf.scalars import (_COMPLEX, _REAL, _algebra, _at_power, _canonical, _leading, _mul_rows,
                          _trim_rows)

# a'b - ab' and a^2 + b^2 over the components a, b numbered 0, 1 of a
# generator a + b i, whose derivatives a', b' component_forms numbers 4, 5
_HAN_FORMS = (((1, 4, 1), (-1, 0, 5)), ((1, 0, 0), (1, 1, 1)))
# the forms GeneratorAnalysis takes over F_p: sigma and <A'i, A>, the
# equal-degree sigma'^2 + 4 <A'i, A>^2 of sigma and <A'i, A> (sigma'
# numbered 2), and mul_mod's one product
_FP_FORMS = (_SPEED_INNER, (((1, 2, 2), (4, 1, 1)),), (((1, 0, 1),),))

TABLES = {"real": _REAL, "complex": _COMPLEX, "quaternion": Quaternion.table}
ALGEBRAS = [(kind, d) for kind in TABLES for d in (0, 15)]


def _as_lists(rows):
    return None if rows is None else [list(row) for row in rows]


def _random_rows(rng: random.Random, m: int, n: int, top_zeros: int = 0,
                 dead: tuple = ()) -> list:
    """m rows of n random integers and top_zeros zero columns above them;
    the rows numbered in dead are all zero."""
    rows = [[rng.randint(-9, 9) for _ in range(n)] + [0] * top_zeros for _ in range(m)]
    for k in dead:
        rows[k] = [0] * (n + top_zeros)
    return rows


def _row_cases(seed: int):
    """(d, rows) over every algebra: full, with zero top columns, with
    all-zero rows, with every sqrt(d) row zero, all zero, and empty."""
    rng = random.Random(seed)
    for kind, d in ALGEBRAS:
        m = _algebra(TABLES[kind], d).m
        for n in (1, 2, 5):
            rows = _random_rows(rng, m, n)
            rows[0][-1] = rng.choice((-3, 1, 7))
            yield d, rows
            yield d, _random_rows(rng, m, n, top_zeros=rng.randint(1, 3))
            yield d, _random_rows(rng, m, n, rng.randint(0, 2), dead=tuple(range(0, m, 3)))
            if d:
                yield d, _random_rows(rng, m, n, rng.randint(0, 2), dead=tuple(range(1, m, 2)))
            yield d, [[0] * n for _ in range(m)]
        yield d, [[] for _ in range(m)]


@pytest.mark.parametrize("seed", [3, 29, 71])
def test_trim_rows_matches_reference(seed):
    for _, rows in _row_cases(seed):
        before = copy.deepcopy(rows)
        assert _as_lists(_trim_rows(rows)) == ref._trim_rows(before)
        assert rows == before


@pytest.mark.parametrize("seed", [5, 31, 73])
def test_canonical_matches_reference(seed):
    rng = random.Random(seed)
    for d, rows in _row_cases(seed):
        # den 1, den > 1 with a content the rows share, and without one
        common = rng.choice((2, 6, 35))
        for den, scaled in ((1, rows),
                            (common * rng.randint(1, 5), [[common * v for v in row] for row in rows]),
                            (rng.choice((2, 3, 7, 12)), rows)):
            before = copy.deepcopy(scaled)
            assert _canonical(d, scaled, den) == ref._canonical(d, copy.deepcopy(scaled), den)
            assert scaled == before


def _divisor(rng: random.Random, m: int, n: int, monic: bool) -> list:
    """Rows of a divisor with n coefficients and a nonzero leading one,
    which is the ring's 1 when ``monic``."""
    rows = _random_rows(rng, m, n)
    if monic:
        for k, row in enumerate(rows):
            row[-1] = int(k == 0)
    elif not any(row[-1] for row in rows):
        rows[0][-1] = rng.choice((-2, 1, 5))
    return rows


@pytest.mark.parametrize("seed", [7, 37, 79])
@pytest.mark.parametrize("kind, d", ALGEBRAS)
def test_pseudo_divide_matches_reference(seed, kind, d):
    rng = random.Random(seed)
    alg = _algebra(TABLES[kind], d)
    for nb in (1, 2, 3):  # a divisor of degree 0 too
        for nr in (nb - 1, nb, nb + 3):
            for monic in (True, False):
                b = _divisor(rng, alg.m, nb, monic)
                r = _random_rows(rng, alg.m, max(nr, 1), dead=(alg.m - 1,))
                inv, norm = alg.inverse_parts(_leading(b))
                # divmod's mult = N and scale = lead(B)^-1 N, which is the
                # ring's one for a monic divisor; and, in a commutative
                # ring, the subresultants' mult = lead(B) and scale = 1
                calls = [((norm,) + (0,) * (alg.m - 1), inv)]
                if kind != "quaternion":
                    calls.append((_leading(b), alg.one))
                for mult, scale in calls:
                    for quotient in (True, False):
                        before = copy.deepcopy((r, b))
                        q, rem = _pseudo_divide(alg, r, b, mult, scale, quotient)
                        q_ref, rem_ref = ref._pseudo_divide(alg, copy.deepcopy(r),
                                                            copy.deepcopy(b), mult, scale, quotient)
                        assert (_as_lists(q), _as_lists(rem)) == (_as_lists(q_ref),
                                                                  _as_lists(rem_ref))
                        assert (r, b) == before
                if monic:
                    assert calls[0] == (alg.one, alg.one)


def _component_rows(rng: random.Random, d: int, count: int, n: int) -> list:
    """count real components over the base d, each as its coordinate rows
    (one over Q, rational and sqrt(d) rows over a surd base), followed by
    their derivatives, as polynomials.component_forms numbers them; one
    component is zero and, over a surd base, one sqrt(d) row vanishes."""
    p = 2 if d else 1
    comps = [_random_rows(rng, p, n) for _ in range(count)]
    comps[rng.randrange(count)] = [[0] * n for _ in range(p)]
    if d:
        comps[rng.randrange(count)][1] = [0] * n
    return comps + [[[k * v for k, v in enumerate(row)][1:] for row in comp] for comp in comps]


@pytest.mark.parametrize("seed", [11, 41, 83])
@pytest.mark.parametrize("d", [0, 15])
@pytest.mark.parametrize("forms, count", [
    (_IMAGE_FORMS, 4), (_IMAGE_FORMS[:4], 4), (_SPEED_INNER, 4), (_HAN_FORMS, 2)])
def test_form_rows_matches_reference(seed, d, forms, count):
    rng = random.Random(seed)
    for n in (1, 2, 6):
        comps = _component_rows(rng, d, count, n)[:count]
        comps += [[[0] * n for _ in range(2 if d else 1)]] * (4 - count)
        b = QuatPoly._from_rows(d, [row for comp in comps for row in comp], 1)
        p = 2 if b.d else 1
        rows = [b.rows[w * p:(w + 1) * p] for w in range(4)]
        rows += [[[k * v for k, v in enumerate(row)][1:] for row in comp] for comp in rows]
        expected = [ref._canonical(b.d, acc, b.den * b.den)
                    for acc in ref._form_rows(_algebra(_REAL, b.d), rows, forms)]
        assert [(f.d, f.rows, f.den) for f in component_forms(b, forms)] == expected


def _full_operands(alg, nx: int, ny: int, m: int) -> tuple:
    """Rows x, y of nx and ny coefficients, each +-m, signed so that every
    term into the coordinate of the largest load adds +m^2: the middle
    slots of that coordinate of x y are alg.load min(nx, ny) m^2."""
    k = next(k for k in range(alg.m)
             if sum(abs(c) for *_, t, c in alg.terms if t == k) == alg.load)
    sign_y = {j: (c > 0) - (c < 0) for _, j, t, c in alg.terms if t == k}
    x = [[m] * nx for _ in range(alg.m)]
    y = [[sign_y.get(j, 1) * m] * ny for j in range(alg.m)]
    return k, x, y


@pytest.mark.parametrize("seed", [13, 43])
@pytest.mark.parametrize("kind, d", ALGEBRAS)
def test_mul_rows_matches_the_schoolbook_product(seed, kind, d):
    rng = random.Random(seed)
    alg = _algebra(TABLES[kind], d)
    # dead rows, operands of unequal length and constants
    for nx, ny in ((1, 1), (1, 4), (5, 1), (3, 3), (2, 7), (9, 4)):
        for dead in ((), tuple(range(0, alg.m, 2)), tuple(range(1, alg.m))):
            x = _random_rows(rng, alg.m, nx, dead=dead)
            y = _random_rows(rng, alg.m, ny, dead=dead[::-1][:1])
            x[0][-1] = y[0][-1] = rng.choice((-3, 1, 7))
            before = copy.deepcopy((x, y))
            assert _as_lists(_mul_rows(alg, x, y)) == ref._mul_rows(alg, x, y), (nx, ny, dead)
            assert (x, y) == before
    # the largest slot load: one coordinate's middle slots full, at sizes
    # about 2**66, a slot one bit narrower overflows
    m = 10 ** 20 + 7
    for nx, ny in ((4, 4), (6, 3), (1, 5)):
        k, x, y = _full_operands(alg, nx, ny, m)
        product = _mul_rows(alg, x, y)
        assert _as_lists(product) == ref._mul_rows(alg, x, y), (nx, ny)
        assert max(product[k]) == alg.load * min(nx, ny) * m * m


@pytest.mark.parametrize("seed", [5, 47])
def test_at_power_matches_the_powers(seed):
    rng = random.Random(seed)
    for n in (0, 1, 2, 3, 5, 16, 17, 33, 70):
        for k in (1, 7, 64, 300):
            row = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(n)]
            t = 2 ** k
            value = sum(c * t ** i for i, c in enumerate(row))
            slope = sum(i * c * t ** (i - 1) for i, c in enumerate(row) if i)
            assert _at_power(row, k) == (value, slope), (n, k)


@pytest.mark.parametrize("seed", [3, 29, 71])
def test_forms_mod_matches_the_schoolbook_products(seed):
    rng = random.Random(seed)
    p = _PRIMES[seed % len(_PRIMES)]
    for n in (1, 2, 5, 9, 17):
        # residue lists of lengths up to n, one of them empty and one all zero
        comps = [[rng.randrange(p) for _ in range(rng.randint(0, n))] for _ in range(8)]
        comps[rng.randrange(8)] = []
        comps[rng.randrange(8)] = [0] * rng.randint(1, n)
        before = copy.deepcopy(comps)
        for forms in _FP_FORMS + (_IMAGE_FORMS,):
            # forms past the lists read their derivatives
            for count in (2, 4, 8):
                if max(max(i, j) for form in forms for _, i, j in form) < 2 * count:
                    assert (forms_mod(comps[:count], forms, p)
                            == ref.image_forms(comps[:count], forms, p)), (n, count, forms)
        assert comps == before
        f, g = ([rng.randrange(p) for _ in range(k)] + [rng.randrange(1, p)]
                for k in (rng.randrange(n), rng.randrange(n)))
        assert mul_mod(f, g, p) == ref.image_forms([f, g], _FP_FORMS[2], p)[0]
    assert forms_mod([[], []], _FP_FORMS[1], _PRIMES[0]) == [[]]


@pytest.mark.parametrize("p", [min(_PRIMES), max(_PRIMES)])
def test_forms_mod_at_the_largest_slot_load(p):
    """Every coefficient p - 1 at length 2 * 128 + 1, the largest a
    degree-128 generator gives sigma: each slot of a sum holds its
    largest value, so a slot one bit narrower overflows."""
    full = [p - 1] * (2 * 128 + 1)
    for forms in _FP_FORMS:
        assert forms_mod([full] * 8, forms, p) == ref.image_forms([full] * 8, forms, p)
    assert mul_mod(full, full, p) == ref.image_forms([full, full], _FP_FORMS[2], p)[0]


def test_scale_by_one_is_self():
    p = RealPoly([1, 2, 3])
    assert p.scale(1) is p
    assert p.scale(2) == RealPoly([2, 4, 6])
