#!/usr/bin/env python3
# The graded left-symmetric product family, its compatibility with the
# bracket, and why no nonzero symmetric offset map yields a commutative
# post-Lie product.

from hvalgebra import (
    Classified,
    LeftSymParams,
    Omega,
    ROmega,
    Window,
    check_derivation_inheritance,
    interior_projection,
    is_commutative_postlie,
    is_left_symmetric,
    params_valid,
    postlie_residual,
    solve_biderivations,
    subadjacent_residual,
)
from hvalgebra.core import C1, C2, C3, Element, I, L
from hvalgebra.leftsym import LeftSymProduct
from hvalgebra.linmaps import TabularMap, is_derivation
from hvalgebra.render import render_strata_report
from hvalgebra.scalars import Scalar

# Admissibility of the defining parameter: positive real part with a
# non-integer reciprocal, or purely imaginary in the upper half plane.
for eps in (Scalar(1, 1), Scalar(0, 1), Scalar(1), Scalar(0, -1)):
    ok = params_valid(LeftSymParams(Scalar(0), Scalar(0), eps))
    print(f"epsilon = {eps}: admissible = {ok}")
print()

params = LeftSymParams(Scalar(1), Scalar(2), Scalar(1, 1))
prod = LeftSymProduct(params)
print("L(1) . L(1)  =", prod.mul_keys(L(1), L(1)))
print("L(1) . I(-1) =", prod.mul_keys(L(1), I(-1)))
print("I(1) . I(-1) =", prod.mul_keys(I(1), I(-1)))
print()

# The defining identity holds on the nose, all strata included.
print("left-symmetry:", is_left_symmetric(prod, Window(2)))

# Its commutator agrees with the bracket except on two central strata;
# the residual table is exact and parameter-independent.
residuals = subadjacent_residual(prod, Window(3))
print(render_strata_report(residuals))

# Derivations of the product also derive its commutator.  The grading
# map k -> index(k) * k is one: check it on the product directly, then
# on the commutator it induces.
prod_plain = LeftSymProduct(LeftSymParams(0, 0, Scalar(1, 1)))
grading = TabularMap(
    {
        **{k: Element.basis(k, k.index) for k in prod_plain.window_keys(6, central=False)},
        **{k: Element.zero() for k in (C1, C2, C3)},
    }
)
print("grading derives the product:   ", is_derivation(grading, prod_plain, Window(3)))
print("grading derives its commutator:", check_derivation_inheritance(grading, prod, Window(3)))
print()

# The quotient product supports no interior biderivations at all in any
# graded slice near zero.
quotient = LeftSymProduct(params, quotient=True)
for degree in (-1, 0, 1):
    space = interior_projection(solve_biderivations(quotient, Window(2), 4, degree), 1)
    print(f"quotient biderivation dim at degree {degree}: {space.dimension}")
print()

# Post-Lie angle: a symmetric offset map would give a commutative
# post-Lie product only if its residual vanished, and the residual is
# visibly the offset pattern itself pushed to level 6.
om = Omega({-2: 5, 1: -1})
print("residual of", om, "=", postlie_residual(om))
print("zero pattern residual =", postlie_residual(Omega({})))

rep = is_commutative_postlie(ROmega(om), Window(2))
print("offset map as post-Lie product:", rep)
print("first failure:", rep.counterexamples[0])

# Mixing in a multiple of the bracket breaks commutativity instead.
rep = is_commutative_postlie(Classified(Scalar(1), Omega({})), Window(2))
print("bracket multiple as post-Lie product:", rep)
print("first failure:", rep.counterexamples[0])
