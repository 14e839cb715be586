#!/usr/bin/env python3
"""The exact-arithmetic machinery under the Sturmian words.

A slope is a continued fraction [0; a1, a2, ...]; everything else is
integer arithmetic against its convergents p_n/q_n.  No floats are
involved anywhere, so comparisons of {i*alpha} against thresholds like
alpha/2, alpha and 1 - alpha/2, the three the Sturmian power locator
makes, are decided, never estimated.
"""

from fractions import Fraction

from abelianwords import (AffineThreshold, ContinuedFraction, characteristic_prefix,
                          convergents, floor_scaled, frac_less_than)

GOLDEN = ContinuedFraction((2,), (1,))
SQRT2 = ContinuedFraction((), (2,))

print("=== convergents ===")
print("slope [0;2,1,1,1,...] = (3 - sqrt 5)/2; denominators are Fibonacci:")
for c in convergents(GOLDEN, 8):
    print(f"  p_{c.index}/q_{c.index} = {c.p}/{c.q}")
print("determinant identity p_n q_(n-1) - p_(n-1) q_n = (-1)^(n-1):")
for n in range(1, 6):
    a, b = GOLDEN.convergent(n), GOLDEN.convergent(n - 1)
    print(f"  n={n}: {a.p}*{b.q} - {b.p}*{a.q} = {a.p * b.q - b.p * a.q}")

print()
print("=== exact floors ===")
print("floor(n * alpha) for the sqrt2-1 slope, n = 1..12:")
print(" ", [floor_scaled(SQRT2, n) for n in range(1, 13)])
print("floor(10^30 * alpha) =", floor_scaled(SQRT2, 10**30))

print()
print("=== the two definitions of a characteristic word agree ===")
w = characteristic_prefix(GOLDEN, 20)
print("difference definition  c(n) = floor((n+1)a) - floor(na):", w.digits())
threshold = AffineThreshold(1, -1)  # 1 - alpha
via_threshold = "".join(
    "0" if frac_less_than(GOLDEN, n, threshold) else "1"
    for n in range(1, 21))
print("threshold definition   c(n) = [{na} >= 1 - alpha]     :", via_threshold)
print("equal:", w.digits() == via_threshold)

print()
print("=== threshold comparisons are exact, identities are refused ===")
print("{2 alpha} < alpha ?", frac_less_than(GOLDEN, 2, AffineThreshold(0, 1)))
print("{3 alpha} < 1/6   ?", frac_less_than(GOLDEN, 3, AffineThreshold(Fraction(1, 6), 0)))
print("{3 alpha} < 1/7   ?", frac_less_than(GOLDEN, 3, AffineThreshold(Fraction(1, 7), 0)))
try:
    frac_less_than(GOLDEN, 1, AffineThreshold(0, 1))
except ValueError as exc:
    print("{1 alpha} < alpha ? ->", exc)

print()
print("=== complements ===")
comp = GOLDEN.complement()
print("1 - alpha for the golden slope:", comp.preperiod, "+ period", comp.period)
w0 = characteristic_prefix(GOLDEN, 24).digits()
w1 = characteristic_prefix(comp, 24).digits()
print("characteristic of alpha    :", w0)
print("characteristic of 1 - alpha:", w1, "(letters exchanged)")
