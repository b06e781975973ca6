"""Byte-identity gate: solver and checker reports must not change by a
single byte.

Each command runs in-process through main(argv).  The two header lines
(version and echoed command) are dropped, and the sha256 of the rest of
stdout, final newline included, is compared with a recorded digest.  The
first checker entries fail on purpose, so their counterexample lists (and
their order) are pinned too.  The "skip-" entries check partial tables,
so their exact checked and skipped counts are pinned as well.  The demos
run as scripts, and their whole stdout is pinned the same way.  One
more digest covers every degree slice and the ungraded solve of three
products on two small windows, so a change to row admission shows at
any degree.  Per-product digests pin every structure constant of the
two Lie products and of the left-symmetric family on a window, one
covers the reference spans the solves are compared with, and two pin
the rows five solves hand to elimination, in order.
"""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hvalgebra import linalg
from hvalgebra.bimaps import classified_span, solve_biderivations
from hvalgebra.cli import main
from hvalgebra.commuting import generator_span, solve_commuting
from hvalgebra.core import LIE_HV, LIE_W00
from hvalgebra.errors import InfeasibleWindow
from hvalgebra.leftsym import LeftSymParams, LeftSymProduct, _Commutator
from hvalgebra.linmaps import Window, decompose_derivation
from hvalgebra.parsing import parse_linear_map_file
from hvalgebra.render import render_solution_space
from hvalgebra.scalars import Scalar

DECOMPOSE_MAP = "@inner 2*L(1) - I(2) + 1/2*L(-1)\n@d1 3\n@d2 -1/2\n@d3 i\n"

# map files written to tmp_path, by the name each command refers to them by
MAPS = {
    "decompose": DECOMPOSE_MAP,
    "bider": "@romega { 0: 1 }\n@inner 2\n",
    "deriv": "@d2 1\n@inner L(1)\n",
    "comm": "@id 2\n@inner L(1)\n",
    # partial tables, so the checks below skip instances they cannot evaluate
    "tabbider": "(L(0), L(1)) -> 2*L(1)\n(L(1), L(0)) -> -2*L(1)\n"
                "(L(-1), L(1)) -> L(0) + I(0)\n@inner 1\n",
    "tabderiv": "L(0) -> 0\nL(1) -> I(1)\nI(1) -> 2*I(1)\n@d3 1\n",
    "tabcomm": "L(0) -> 2*L(0) + C1\nI(0) -> 2*I(0)\n@central L(1) -> C2\n",
    # non-integer Gaussian coefficients, so residual text with fractional
    # and complex parts is pinned
    "gaussbider": "@inner (5/3+1/2i)\n@romega { 1: (3/2+3/2i), 3: (-1/2+6/5i) }\n",
    "gaussderiv": "@inner (1/2+i)*L(1)\n@d1 (2/3-i)\n",
}

GOLDEN = [
    (
        ("solve", "biderivations", "--algebra", "lie-w00", "--window", "2",
         "--outbound", "4", "--degree", "0"),
        "f8cf7ee30e050cf9e67d1db6a0faa045da2bd724d96192056806e24e2dc0a90e",
        0,
    ),
    (
        # ungraded, so the per-coordinate admission filter runs
        ("solve", "biderivations", "--algebra", "lie-hv", "--window", "2",
         "--outbound", "4"),
        "f4ed3a33a4989e6d5da629eb409a3fa35d9da95a00d3c07abeaa59e078f26b7f",
        0,
    ),
    (
        ("solve", "biderivations", "--algebra", "lie-w00", "--window", "2",
         "--outbound", "4", "--interior", "1"),
        "390709cceb0be4f7c66ed0123ddaa07f72a6b528127ddf6c722a8c948f06e183",
        0,
    ),
    (
        ("solve", "commuting", "--window", "2"),
        "82eef74416fcf4bf4ef6aa26de327b7a48fd974fa8f47fae485a26da08c83754",
        0,
    ),
    (
        ("decompose", "--window", "4", "--map", "{decompose}"),
        "d9a4a1cef69cf8054597c6df552337dd2861e7fac9724d8a9483f0c37b802619",
        0,
    ),
    (
        ("check", "biderivation", "--product", "lie-hv", "--window", "2",
         "--map", "{bider}"),
        "64dc7b7d2ff97cf7a72fb55a67afb895e310fc037c05632443a2e2c18e0bdb43",
        1,
    ),
    (
        # braces doubled: every argument goes through str.format
        ("check", "postlie", "--product", "@romega {{ 1: 2 }}", "--window", "2"),
        "b77523953918b66b11906c799ce9a16b5b14c83d11f09a134157d4db0ddabd93",
        1,
    ),
    (
        ("check", "derivation", "--product", "lie-hv", "--window", "3",
         "--map", "{deriv}"),
        "6363ba62ca12c7f972a49dec9b33159cf253e20ddf89ea5e8ee806870a4ab95f",
        1,
    ),
    (
        ("check", "commuting", "--window", "3", "--map", "{comm}"),
        "36d409fd93100a6fbf67e86a6053bf67782d2dd304fc3c5525dde851bef9116e",
        1,
    ),
    (
        ("report", "leftsym", "--window", "2", "--epsilon", "(1+i)",
         "--alpha", "1/2"),
        "7899c7c97aca6dcfbc5e3511ff27103927543caaf34a7d87e3693fde559418ac",
        0,
    ),
    (
        ("report", "leftsym", "--window", "2", "--epsilon", "(1+i)",
         "--alpha", "1/2", "--format", "machine"),
        "846b92e4f52951737f606b9ed92bec45a10edec29ebe097d48ed5ed78eaf0c0f",
        0,
    ),
    (
        # checked 54, skipped 1404, counterexamples 16; symmetry: neither
        ("check", "biderivation", "--product", "lie-hv", "--window", "1",
         "--map", "{tabbider}"),
        "3cef6402b73354f54c9ae5969ebad5a5a2900aae19421b7f409f56e18155e1c8",
        1,
    ),
    (
        # checked 7, skipped 93
        ("check", "derivation", "--product", "lie-w00", "--window", "2",
         "--map", "{tabderiv}"),
        "4e35dcd2c88bb1d7c1d5b8b301e3389931f872621f152df55ab91f10ff5cc3b2",
        0,
    ),
    (
        # checked 3, skipped 42
        ("check", "commuting", "--window", "1", "--map", "{tabcomm}"),
        "0d3974b33071543ebbf5ebc80e047f6ca48b8ef80b4b79938e765c045b6509ee",
        0,
    ),
    (
        # checked 52, skipped 1442, counterexamples 17
        ("check", "postlie", "--product", "{tabbider}", "--window", "1"),
        "432d83da99e86a3ab74ce707ae290b4093a71d68b6c06cec4223bb225cac37f2",
        1,
    ),
    (
        # checked 4394, counterexamples 120; the Fraction C1 constant
        ("check", "biderivation", "--product", "lie-hv", "--window", "2",
         "--map", "{gaussbider}"),
        "a2444aed993ec9facf5fbc94de2a3a078f3b9faa6223988d2d8982d2b66761da",
        1,
    ),
    (
        # checked 169, counterexamples 38; non-real structure constants
        ("check", "derivation", "--product", "leftsym", "--epsilon", "(1+i)",
         "--alpha", "1/2", "--window", "2", "--map", "{gaussderiv}"),
        "617f8a289b2fa28ea8b8ac447ffd5693b155b156ac1ce9ab42e983b4b3148113",
        1,
    ),
    (
        # checked 4472, counterexamples 140
        ("check", "postlie", "--product", "@romega {{ 1: (1/2+i) }}", "--window", "2"),
        "5c33f1dd07e15134224a7b66273708d2f02a574b89504a1d91df4aeedcb7e69d",
        1,
    ),
    (
        # dimension 20, 14 lines with non-real coefficients: rows with no
        # real multiple hold Scalar entries through elimination
        ("solve", "biderivations", "--algebra", "leftsym", "--window", "2",
         "--outbound", "4", "--epsilon", "(1/2-i)", "--alpha", "(-1/3+1/2i)",
         "--beta", "(1/5+2/3i)"),
        "edee33cdec34c15ef899c3e8a44e80fea1df89d9d5c1fb57356272010fe9a3a8",
        0,
    ),
]


@pytest.mark.parametrize(
    "argv, digest, code",
    GOLDEN,
    ids=["graded", "ungraded", "interior", "commuting", "decompose",
         "check-biderivation", "check-postlie", "check-derivation",
         "check-commuting", "report-leftsym", "report-leftsym-machine",
         "skip-biderivation", "skip-derivation", "skip-commuting", "skip-postlie",
         "gauss-biderivation", "gauss-derivation", "gauss-postlie",
         "gauss-leftsym-solve"],
)
def test_report_digest(argv, digest, code, tmp_path, capsys):
    paths = {}
    for name, text in MAPS.items():
        paths[name] = tmp_path / f"{name}.map"
        paths[name].write_text(text)
    assert main([arg.format(**paths) for arg in argv]) == code
    out = capsys.readouterr().out
    body = out.split("\n", 2)[2]
    assert hashlib.sha256(body.encode("utf-8")).hexdigest() == digest


def test_every_slice_digest():
    """Machine output of every degree slice (|degree| <= ob + 2N, past
    which no unknown exists) and of the ungraded solve, at W1/ob2 and
    W1/ob3.  A slice without admitted rows is recorded as infeasible."""
    leftsym = LeftSymProduct(LeftSymParams(Fraction(1, 2), 0, Scalar(1, 1)), quotient=True)
    products = [("lie-w00", LIE_W00), ("lie-hv", LIE_HV), ("leftsym-quotient", leftsym)]
    digest = hashlib.sha256()
    for name, product in products:
        for n_max, out_bound in ((1, 2), (1, 3)):
            reach = out_bound + 2 * n_max
            for degree in [*range(-reach, reach + 1), None]:
                try:
                    space = solve_biderivations(product, Window(n_max), out_bound, degree)
                    text = render_solution_space(space, "machine")
                except InfeasibleWindow:
                    text = "infeasible"
                head = f"{name} W{n_max}/ob{out_bound} degree={degree}"
                digest.update(f"{head}\n{text}\n".encode("utf-8"))
    assert digest.hexdigest() == (
        "9251e5e18a681779a987bf908c17edfba5306398ebdde151380869fec92e6688"
    )


def test_reference_span_digest():
    """Machine output of the reference spans that no command prints: the
    classified family on both brackets at W3/ob8, degrees -1, 0 and 1,
    and the scalar-plus-central commuting family at W3, each at
    interiors 1 and 2."""
    digest = hashlib.sha256()
    for product in (LIE_W00, LIE_HV):
        for degree in (-1, 0, 1):
            space = solve_biderivations(product, Window(3), 8, degree=degree)
            for n_int in (1, 2):
                span = classified_span(
                    space, product, n_int, include_inner=(degree == 0), offsets=(degree,)
                )
                head = f"{product} degree={degree} interior={n_int}"
                text = render_solution_space(span, "machine")
                digest.update(f"{head}\n{text}\n".encode("utf-8"))
    space = solve_commuting(Window(3))
    for n_int in (1, 2):
        text = render_solution_space(generator_span(space, n_int), "machine")
        digest.update(f"commuting interior={n_int}\n{text}\n".encode("utf-8"))
    assert digest.hexdigest() == (
        "6f8dcd7f1267405e19464e785f57e968c38c6d892b588882dba709bcfb586530"
    )


ROW_SOLVES = [
    ("graded lie-w00 W2/ob4", lambda: solve_biderivations(LIE_W00, Window(2), 4, degree=0)),
    (
        "leftsym-quotient W2/ob4",
        lambda: solve_biderivations(
            LeftSymProduct(
                LeftSymParams(
                    Scalar(Fraction(1, 2), Fraction(1, 3)), Scalar(Fraction(2, 3), -1), Scalar(1, 1)
                ),
                quotient=True,
            ),
            Window(2),
            4,
            degree=0,
        ),
    ),
    ("ungraded lie-hv W2/ob4", lambda: solve_biderivations(LIE_HV, Window(2), 4)),
]


def _record_rows(digest, rows, ncols):
    digest.update(f"ncols={ncols} rows={len(rows)}\n".encode("utf-8"))
    for row in rows:
        line = " ".join(f"{c}:{type(v).__name__}:{v}" for c, v in row.items())
        digest.update(f"{line}\n".encode("utf-8"))


def test_elimination_rows_digest(monkeypatch):
    """The rows each solve hands to elimination, in order, entry by entry
    with each entry's type: assembly must build the same rows however the
    elimination behind it works."""
    digest = hashlib.sha256()
    original = linalg.nullspace

    def record(rows, ncols):
        rows = list(rows)
        _record_rows(digest, rows, ncols)
        return original(rows, ncols)

    monkeypatch.setattr(linalg, "nullspace", record)
    for name, solve in ROW_SOLVES:
        digest.update(f"{name}\n".encode("utf-8"))
        solve()
    assert digest.hexdigest() == (
        "88d6de00294b4c03cd8aa999784bbb0d5a6e848ac61d28d1d266a511e3a744d0"
    )


DECOMPOSED_MAP = "@inner 2*L(1) - I(2) + 1/2*L(-1)\n@d1 3\n@d2 -1/2\n@d3 i\n"


def test_commuting_and_decomposition_rows_digest(monkeypatch):
    """The rows ``solve_commuting`` hands to ``nullspace`` and the rows
    ``decompose_derivation`` hands to ``solve_affine``, entry by entry with
    each entry's type, as ``test_elimination_rows_digest`` pins the
    biderivation rows."""
    digest = hashlib.sha256()
    nullspace, solve_affine = linalg.nullspace, linalg.solve_affine

    def record_nullspace(rows, ncols):
        rows = list(rows)
        _record_rows(digest, rows, ncols)
        return nullspace(rows, ncols)

    def record_solve_affine(rows, nvars):
        rows = list(rows)
        _record_rows(digest, rows, nvars)
        return solve_affine(rows, nvars)

    monkeypatch.setattr(linalg, "nullspace", record_nullspace)
    monkeypatch.setattr(linalg, "solve_affine", record_solve_affine)
    digest.update(b"commuting W3\n")
    solve_commuting(Window(3))
    digest.update(b"decompose W4\n")
    d = parse_linear_map_file(DECOMPOSED_MAP, LIE_W00)
    assert str(decompose_derivation(d, Window(4))) == (
        "ad(1/2*L(-1) + 2*L(1) - I(2)) + (3)*d1 + (-1/2)*d2 + (i)*d3"
    )
    assert digest.hexdigest() == (
        "62301a776499137846ba8ec7bdae5597712049f7418d03055ced6bd35d026d7d"
    )


LEFTSYM_POINTS = {
    "eps=1+i": LeftSymParams(0, 0, Scalar(1, 1)),
    "eps=2/7": LeftSymParams(0, 0, Fraction(2, 7)),
    "eps=i": LeftSymParams(0, 0, Scalar(0, 1)),
    "twisted": LeftSymParams(
        Fraction(1, 2), Scalar(Fraction(2, 3), -1), Scalar(Fraction(3, 2), Fraction(1, 2))
    ),
}

# sha256 of "a b a*b" lines over every ordered pair of W6 keys
CONSTANT_DIGESTS = [
    ("lie-hv", "b8e0912883f4cf0c9aeaf2838d7cb319e736cc48d5e519fd5c5c4e1e83a673d8"),
    ("lie-w00", "a9274172e75a2a9885e4150ba0d53baa830c9bc79c40cc53c01140a7465585a1"),
    ("eps=1+i", "5323946759e68abc63d280256d27dd9f659c023c65bd00e394f665388a7540ab"),
    ("eps=1+i quotient", "1495b8a76a880a04bb37856ad75f99e2f1eeca6d6276d51133b397d54846b3c3"),
    ("eps=2/7", "0a923df639a4a5215367713705424df489af4cf776b8c60fe94b56f261939e45"),
    ("eps=2/7 quotient", "7a47fd6b6cc06f5fdc5d7dae3f6b18eb339eece740afb751bc23e5eae88837b2"),
    ("eps=i", "c89e02191a79e4a04311b7c2b0d8585022c23adde6d780ffd463e52dcac758e3"),
    ("eps=i quotient", "e4d5285108f9bfc9180b40b5248b573b65973e5dfb3a6988c4dc3d2ad61eac57"),
    ("twisted", "ca5d5d9dfcf33c1c17b7c9b063b18db993a5b2a8bf508d2a18cd46d7ad8f6a47"),
    ("twisted quotient", "76d1577ae0aedbc4b9cb19e45ea3859d20a01a3a66cda07f6dc6d267543e1597"),
]


def _product(name):
    lie = {"lie-hv": LIE_HV, "lie-w00": LIE_W00}
    if name in lie:
        return lie[name]
    point, _, quotient = name.partition(" ")
    return LeftSymProduct(LEFTSYM_POINTS[point], quotient=bool(quotient))


@pytest.mark.parametrize(
    "name, digest", CONSTANT_DIGESTS, ids=[name for name, _ in CONSTANT_DIGESTS]
)
def test_structure_constant_digest(name, digest):
    product = _product(name)
    keys = product.window_keys(6)
    lines = (f"{a} {b} {product.mul_keys(a, b)}\n" for a in keys for b in keys)
    assert hashlib.sha256("".join(lines).encode("utf-8")).hexdigest() == digest


FLAGGED = [name for name, _ in CONSTANT_DIGESTS] + ["twisted commutator", "eps=i commutator"]


@pytest.mark.parametrize("name", FLAGGED)
def test_antisymmetric_flag_matches_the_table(name):
    """``Product.antisymmetric`` is declared, not derived; the tables
    confirm it both ways.  The Lie brackets and the commutators of
    left-symmetric products are antisymmetric on every W6 pair, and each
    left-symmetric product fails on some W2 pair."""
    base, commutator = name.removesuffix(" commutator"), name.endswith(" commutator")
    product = _Commutator(_product(base)) if commutator else _product(name)
    keys = product.window_keys(6 if product.antisymmetric else 2)
    skew = all(
        product.mul_keys(a, b) == -product.mul_keys(b, a) for a in keys for b in keys
    )
    assert skew == product.antisymmetric
    assert product.antisymmetric == (commutator or name in ("lie-hv", "lie-w00"))


DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"

# sha256 of each demo's full stdout
DEMO_DIGESTS = [
    ("01_brackets_and_center.py",
     "48090b5f3b7c277be60d3206b22f071e7f68d01b0d2ccd4a47b68d6a8ac7b094"),
    ("02_biderivation_family.py",
     "b2890fad2eaacbb7d4ae3d87197df2169bcc4e1a5d3201d946c00c46bd2e189e"),
    ("03_derivations_and_commuting_maps.py",
     "4b2ba42653eb703fbfb97f8666f8b75871e43256c3432a4f234660da75e7b831"),
    ("04_left_symmetric_products.py",
     "5337109d24638b6c45977714b60a4d84bacadddc6466348551cd79d4b07cd375"),
]


@pytest.mark.parametrize("name, digest", DEMO_DIGESTS, ids=["01", "02", "03", "04"])
def test_demo_digest(name, digest):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True,
        env=env,
        check=True,
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
