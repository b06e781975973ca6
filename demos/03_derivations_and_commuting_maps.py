#!/usr/bin/env python3
# Derivations of the quotient bracket and their canonical decomposition,
# then the linear maps that commute with every inner derivation.

from fractions import Fraction

from hvalgebra import (
    D1,
    D2,
    D3,
    LIE_W00,
    InnerAd,
    SumMap,
    Window,
    decompose_derivation,
    generator_span,
    is_commuting,
    is_derivation,
    make_commuting,
    solve_commuting,
)
from hvalgebra.core import Element, I, L
from hvalgebra.linalg import span_equal
from hvalgebra.linmaps import ScaledMap
from hvalgebra.scalars import Scalar

# Three outer derivations of the quotient: scale the I-family, or send
# L(m) to multiples of I(m).
print("d1(I(4)) =", D1(Element.basis(I(4))))
print("d2(L(4)) =", D2(Element.basis(L(4))))
print("d3(L(4)) =", D3(Element.basis(L(4))))

for name, d in (("d1", D1), ("d2", D2), ("d3", D3)):
    print(f"{name} derives the quotient bracket:", is_derivation(d, LIE_W00, Window(3)))
print()

# Any combination ad(x) + a*d1 + b*d2 + c*d3 is recovered exactly by
# the decomposition solver.
x = Element({L(2): Scalar(Fraction(1, 3)), I(-1): Scalar(0, 1)})
built = SumMap(
    (
        InnerAd(LIE_W00, x),
        ScaledMap(D1, Scalar(5)),
        ScaledMap(D2, Scalar(-2)),
        ScaledMap(D3, Scalar(1, 1)),
    )
)
dec = decompose_derivation(built, Window(5))
print("recovered inner part:  ", dec.inner)
print("recovered outer coeffs:", dec.d1_coeff, dec.d2_coeff, dec.d3_coeff)
assert dec.inner == x
assert (dec.d1_coeff, dec.d2_coeff, dec.d3_coeff) == (
    Scalar(5),
    Scalar(-2),
    Scalar(1, 1),
)
print()

# Commuting maps: phi with phi([x, y]) = [x, phi(y)] for all x, y.
# The identity works, and so does any map built from a scalar plus a
# central-valued correction on finitely many keys.
phi = make_commuting(Scalar(3), {L(2): Element.basis(I(0), 7)})
print("phi(L(2)) =", phi(Element.basis(L(2))))
print("phi(I(2)) =", phi(Element.basis(I(2))))
print("phi passes:", is_commuting(phi, Window(4)))

# d3 is a derivation but NOT a commuting map.
print("d3 as a commuting map:", is_commuting(D3, Window(3)).passed)
print()

# The windowed solver finds the full space; restricted to interior
# domain keys it matches the identity-plus-central model exactly:
# 1 + 4 * (number of noncentral interior keys).
space = solve_commuting(Window(3))
print("full windowed solution dim =", space.dimension)
for n_int in (1, 2):
    reg = space.registry

    def keep(vid):
        _, b, _ = reg.label_of(vid)
        return (not b.is_central) and abs(b.index) <= n_int

    proj = space.restrict(keep)
    family = generator_span(space, n_int)
    print(
        f"interior radius {n_int}: solver dim = {proj.dimension},",
        f"model dim = {family.dimension},",
        "spans equal:", span_equal(proj, family).equal,
    )
