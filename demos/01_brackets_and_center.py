#!/usr/bin/env python3
# Tour of the two products: the full bracket with its three central
# symbols, and the centerless quotient.  Everything is exact Gaussian
# rational arithmetic -- no floats anywhere.

from hvalgebra import (
    C1,
    C2,
    C3,
    LIE_HV,
    LIE_W00,
    Element,
    I,
    InnerAd,
    L,
)

# Basis keys come in two infinite families L(n), I(n) plus the three
# central symbols.  The bracket on keys returns an exact Element.

print("[L(2), L(-2)] =", LIE_HV.mul_keys(L(2), L(-2)))
print("[L(1), L(-1)] =", LIE_HV.mul_keys(L(1), L(-1)))
print("[L(3), I(-3)] =", LIE_HV.mul_keys(L(3), I(-3)))
print("[I(5), I(-5)] =", LIE_HV.mul_keys(I(5), I(-5)))
print("[L(4), I(2)]  =", LIE_HV.mul_keys(L(4), I(2)))
print()

# The central symbols kill everything.
for c in (C1, C2, C3):
    assert LIE_HV.mul_keys(c, L(7)).is_zero()
    assert LIE_HV.mul_keys(L(7), c).is_zero()
print("central symbols bracket to zero:", [str(c) for c in LIE_HV.center_basis()])
print()

# The quotient product drops every central contribution.
print("quotient [L(2), L(-2)] =", LIE_W00.mul_keys(L(2), L(-2)))
print("quotient [I(5), I(-5)] =", LIE_W00.mul_keys(I(5), I(-5)))
print("quotient center basis  =", [str(c) for c in LIE_W00.center_basis()])
print()

# noncentral() is the corresponding projection on elements.
x = LIE_HV.mul_keys(L(2), L(-2)) + Element.basis(C2, 3)
print("x           =", x)
print("project(x)  =", x.noncentral())
print()

# Brackets extend bilinearly to arbitrary elements.
a = Element({L(1): 2, I(0): 1})
b = Element({L(-1): 1, C3: 5})
print("a =", a)
print("b =", b)
print("[a, b] =", LIE_HV.mul(a, b))
print()

# Jacobi spot check on a random-looking triple.
x, y, z = Element.basis(L(3)), Element.basis(I(-1)), Element.basis(L(-2))
jac = (
    LIE_HV.mul(x, LIE_HV.mul(y, z))
    + LIE_HV.mul(y, LIE_HV.mul(z, x))
    + LIE_HV.mul(z, LIE_HV.mul(x, y))
)
print("jacobi(L(3), I(-1), L(-2)) =", jac, "(zero:", jac.is_zero(), ")")
print()

# InnerAd(product, x) is the inner derivation y -> [x, y].
ad = InnerAd(LIE_HV, Element.basis(L(2)))
print("ad(L(2)) applied to L(-2):", ad(Element.basis(L(-2))))
print("ad(L(2)) applied to I(-2):", ad(Element.basis(I(-2))))
