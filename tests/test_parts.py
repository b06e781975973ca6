"""Checker and solver read each identity from the same parts.

``leibniz_parts`` and ``polarized_parts`` state the Leibniz and polarized
rules once.  A checker sums them with ``gaussian_sum`` on a map's values;
a solver turns them into rows with ``linalg.admitted_rows`` on a map of
unknowns, each value a linear form ``{key: column}``, with structure
constants read through ``plain_values``.  Here both are evaluated on one
seeded random map with Gaussian coefficients: each row, dotted with the
map's coefficient vector, must give the negated residual at its
coordinate, for every instance at W2.
"""

import random
from fractions import Fraction

import pytest

from hvalgebra.commuting import polarized_parts
from hvalgebra.core import LIE_HV, LIE_W00, Element
from hvalgebra.leftsym import LeftSymParams, LeftSymProduct
from hvalgebra.errors import InfeasibleWindow
from hvalgebra.linalg import admitted_rows
from hvalgebra.linmaps import gaussian_sum, leibniz_parts, plain_values, scaled_values
from hvalgebra.scalars import Scalar

PRODUCTS = {
    "lie-hv": LIE_HV,
    "lie-w00": LIE_W00,
    "leftsym": LeftSymProduct(
        LeftSymParams(
            Scalar(Fraction(1, 2), Fraction(1, 3)), Scalar(Fraction(2, 3), -1), Scalar(1, 1)
        )
    ),
}
RULES = {"leibniz": leibniz_parts, "polarized": polarized_parts}


def gauss(rng) -> Scalar:
    """A nonzero Gaussian rational with small parts."""
    while True:
        re, im = (Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(2))
        if re or im:
            return Scalar(re, im)


def instance_rows(parts) -> dict:
    """Each output coordinate's row of one instance, read one coordinate
    per assembly, so that no pin drops a row."""
    coords = []
    with pytest.raises(InfeasibleWindow):
        list(admitted_rows([(parts, coords.append)]))  # admits nothing, records every coordinate
    rows = {}
    for w in coords:
        (rows[w],) = admitted_rows([(parts, w.__eq__)])
    return rows


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("name", PRODUCTS)
def test_rows_dotted_with_the_map_give_the_negated_residual(name, rule):
    product = PRODUCTS[name]
    parts_of = RULES[rule]
    rng = random.Random(5)
    # the products of window-2 keys reach index 4
    keys = product.window_keys(4)
    table = {
        k: Element({u: gauss(rng) for u in rng.sample(keys, rng.randint(0, 3))}) for k in keys
    }
    columns = {(k, u): col for col, (k, u) in enumerate((k, u) for k in keys for u in keys)}
    vector = [table[k][u] for k, u in columns]
    forms = {k: {u: columns[k, u] for u in keys} for k in keys}

    scaled_mul = scaled_values(product.mul_keys)
    scaled_map = scaled_values(table.__getitem__)
    mul = plain_values(product.mul_keys)
    window = product.window_keys(2)
    for a in window:
        for b in window:
            residual = gaussian_sum(parts_of(scaled_mul, scaled_map, a, b))
            rows = instance_rows(parts_of(mul, forms.__getitem__, a, b))
            dotted = Element(
                {w: sum(v * vector[c] for c, v in row.items()) for w, row in rows.items()}
            )
            assert dotted == -residual, (a, b)
