"""Reference integer-kernel primitives for the tests: the straightforward
versions of rrmf.scalars._trim_rows, _canonical and _mul_rows and of
rrmf.polynomials._pseudo_divide, component_forms (_form_rows) and
forms_mod (image_forms), without their fast paths or packing.

Each one re-slices, re-scans or re-forms what the library version skips
or packs: _trim_rows always copies, _canonical takes one gcd over every
integer, _pseudo_divide slices every row at every step, _mul_rows is the
schoolbook product of each pair of coordinate rows (_add_product),
_form_rows forms each product the forms use once, by _mul_rows, and
adds it with each coefficient, and image_forms forms the forms over F_p by _form_rows on
the residue lists.  None of them packs rows into integers, as the
library's one kernel in rrmf.scalars does, and from rrmf this module
imports only the algebra tables, never a kernel routine
(tests/test_hygiene.py checks it).  They are the oracles of
tests/test_kernel.py.
"""

import math

from rrmf.scalars import _REAL, _Algebra, _algebra


def _trim_rows(rows: list) -> list:
    n = len(rows[0])
    while n and not any(row[n - 1] for row in rows):
        n -= 1
    return [row[:n] for row in rows]


def _shaped(d: int, rows: list) -> tuple:
    """(d, rows) with the rows trimmed, and base 0 without sqrt(d) part."""
    rows = _trim_rows(rows)
    if d and not any(map(any, rows[1::2])):
        d, rows = 0, rows[::2]
    return d, rows


def _canonical(d: int, rows: list, den: int) -> tuple:
    """(d, rows, den) in the stored form, for a positive den: rows trimmed
    into tuples, gcd(den, every integer) = 1, base 0 without sqrt(d) part."""
    d, rows = _shaped(d, rows)
    g = math.gcd(den, *[v for row in rows for v in row])
    if g != 1:
        rows = [[v // g for v in row] for row in rows]
    return d, tuple(map(tuple, rows)), den // g


def _pseudo_divide(alg: _Algebra, r: list, b: list, mult: tuple, scale: tuple,
                   quotient: bool):
    """Fraction-free division of the rows r by the rows b, b nonzero.

    Step by step from the top, r becomes mult r - (c scale) x^k B for its
    top coefficient c, which cancels because scale lead(B) = mult, a
    central element.  After the s = deg r - deg B + 1 steps
    mult^s R_in = q B + r; q is only formed when ``quotient`` is set.
    With mult = lead(B) and scale = 1 in a commutative ring, r is the
    classical pseudo-remainder.
    """
    nb = len(b[0])
    q = [[0] * max(0, len(r[0]) - nb + 1) for _ in range(alg.m)] if quotient else None
    for top in range(len(r[0]) - 1, nb - 2, -1):
        c = tuple(row[top] for row in r)
        r = [list(row[:top]) for row in r]
        if mult != alg.one:
            r = alg.left_scale(mult, r)
            if quotient:
                q = alg.left_scale(mult, q)
        if not any(c):
            continue
        k = top - nb + 1
        t = alg.mul(c, scale)
        for row, sub in zip(r, alg.left_scale(t, b)):
            row[k:top] = [u - v for u, v in zip(row[k:top], sub)]
        if quotient:
            for row, v in zip(q, t):
                row[k] = v
    return q, r


def _add_product(out: list, a: list, b: list, c: int) -> None:
    """out += c a b for integer coefficient lists (schoolbook)."""
    for s, y in enumerate(b):
        if y:
            y *= c
            for r, x in enumerate(a):
                out[r + s] += x * y


def _mul_rows(alg: _Algebra, x: list, y: list) -> list:
    """Rows of the product, left operand first, of values with rows x, y:
    the schoolbook product of each pair of coordinate rows per term."""
    n = len(x[0]) + len(y[0]) - 1
    out = [[0] * n for _ in range(alg.m)]
    for i, j, k, c in alg.terms:
        _add_product(out[k], x[i], y[j], c)
    return out


def _form_rows(real: _Algebra, comps: list, forms) -> list:
    """Per form ((c, i, j), ...), the rows of sum c b_i b_j over the real
    algebra for the coordinate rows b_i = comps[i], each product formed
    once by _mul_rows and added with its coefficient."""
    n = 2 * max(len(comp[0]) for comp in comps) - 1
    products: dict = {}
    out = []
    for form in forms:
        acc = [[0] * n for _ in range(real.parts)]
        for c, i, j in form:
            key = (i, j) if i <= j else (j, i)
            if key not in products:
                products[key] = _mul_rows(real, comps[i], comps[j])
            for row, src in zip(acc, products[key]):
                row[:len(src)] = [u + c * v for u, v in zip(row, src)]
        out.append(acc)
    return out


def image_forms(comps: list, forms, p: int) -> list[list[int]]:
    """The forms sum c f_i f_j over F_p of residue lists f_i = comps[i]
    and their derivatives f_len(comps)+i, trimmed, by _form_rows on
    one-row integer lists."""
    comps = [list(f) for f in comps]
    comps += [[k * c % p for k, c in enumerate(f)][1:] for f in comps]
    out = []
    for (row,) in _form_rows(_algebra(_REAL, 0), [[f] for f in comps], forms):
        row = [v % p for v in row]
        while row and not row[-1]:
            row.pop()
        out.append(row)
    return out
