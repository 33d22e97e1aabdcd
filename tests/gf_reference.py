"""Test-side polynomial sum and product, the paper's printed GFs, and the
textbook series expansion.

``genfun`` multiplies no polynomials; the reference generating
functions and the Euclid oracle need the full product.  ``series_reference``
is the literal ``Fraction`` recurrence that ``genfun.series`` runs
fraction-free.
"""

from fractions import Fraction

from invwalk.genfun import Polynomial, RationalFunction


def poly(*coeffs):
    return Polynomial(coeffs)


def poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    if len(a.coeffs) < len(b.coeffs):
        a, b = b, a
    out = list(a.coeffs)
    for i, v in enumerate(b.coeffs):
        out[i] += v
    return Polynomial(out)


def poly_mul(*factors: Polynomial) -> Polynomial:
    out = [Fraction(1)]
    for f in factors:
        prod = [Fraction(0)] * (len(out) + len(f.coeffs) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f.coeffs):
                prod[i + j] += a * b
        out = prod
    return Polynomial(out)


def printed_gfs() -> dict:
    """I_m(t) for m = 1..4 as the paper prints them."""
    one_minus_t = poly(1, -1)
    return {
        1: RationalFunction(poly(0, 1), poly(1, 0, -1)),
        2: RationalFunction(poly(0, 2, 1), poly_mul(one_minus_t, poly(2, -1), poly(1, 1))),
        3: RationalFunction(poly(0, 81, 27, -21, -3),
                            poly_mul(one_minus_t, poly(9, 6, -1), poly(9, -6, -1))),
        4: RationalFunction(poly(0, 256, -192, -48, 44, -5),
                            poly_mul(one_minus_t, poly(16, 0, -5), poly(16, -20, 5))),
    }


def series_reference(rf: RationalFunction, N: int) -> list:
    """First N+1 Taylor coefficients of rf, by ``b_0 c_n = a_n - sum_j b_j
    c_(n-j)`` in ``Fraction`` arithmetic, one reduction per operation."""
    a = rf.num.coeffs
    b = rf.den.coeffs
    out = []
    for n in range(N + 1):
        acc = a[n] if n < len(a) else Fraction(0)
        for j in range(1, min(n, len(b) - 1) + 1):
            acc -= b[j] * out[n - j]
        out.append(acc / b[0])
    return out
