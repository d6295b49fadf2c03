"""Additive (linearised) polynomials: the name LinPoly for skew.SkewPoly.

By Ore's correspondence the additive polynomial sum_i a_i X^(p^(w i))
and the skew polynomial sum_i a_i Y^i in F_q[Y; sigma], sigma(a) =
a^(p^w), are one object: composition is the ring product.  SkewPoly
therefore carries both views, and LinPoly is the same class under the
name the additive view uses.
"""

from .skew import SkewPoly

LinPoly = SkewPoly
