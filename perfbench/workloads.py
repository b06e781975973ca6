"""The benchmark's workloads: seeded inputs, command lists and output checks.

Every expectation below comes from a fact the package establishes (see the
README's headline facts) or from how the seeded inputs were built, never
from a recorded run.  A check returns None when the output is right and a
one-line reason when it is not.

Inputs are drawn so that a run's cost does not depend on the seed: every
coefficient is a Gaussian rational with nonzero, non-integer real and
imaginary parts of the same small sizes, and every table has a fixed
number of entries.  The left-symmetric parameters come from a pool of
non-real epsilons only, because a real (or purely imaginary) epsilon makes
the `Fraction` arithmetic measurably cheaper.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("solve-graded", "solve-ungraded", "check-exhaustive", "leftsym-frac")

# Window sizes per workload; "smoke" shrinks every window for the
# benchmark's own tests.
SIZES = {
    "full": {
        "graded": (4, 8, 3),  # window, outbound, interior
        "ungraded": (2, 4, 1),
        "commuting_solve": (5, 4),  # window, interior
        "biderivation": 4,
        "postlie": 3,
        "derivation": 6,
        "commuting": 8,
        "decompose": 6,
        "leftsym_solve": (4, 8, 3),
        "leftsym_report": 3,
    },
    "smoke": {
        "graded": (2, 4, 1),
        "ungraded": (1, 2, 0),
        "commuting_solve": (2, 1),
        "biderivation": 2,
        "postlie": 3,
        "derivation": 3,
        "commuting": 3,
        "decompose": 3,
        "leftsym_solve": (2, 4, 1),
        "leftsym_report": 2,
    },
}

# Left-symmetric parameters (alpha, beta, epsilon).  Each base set appears
# with its complex conjugate: conjugation is a field automorphism of Q(i),
# so both members cost exactly the same arithmetic.
_LEFTSYM_BASE = (
    ((Fraction(1, 2), Fraction(1, 3)), (Fraction(2, 3), Fraction(-1)), (Fraction(1), Fraction(1))),
    ((Fraction(-1, 3), Fraction(1, 2)), (Fraction(1, 5), Fraction(2, 3)), (Fraction(1, 2), Fraction(1))),
)
LEFTSYM_POOL = tuple(
    variant
    for base in _LEFTSYM_BASE
    for variant in (base, tuple((re_, -im) for re_, im in base))
)


@dataclass
class Command:
    """One `hval` invocation with the check its output must pass."""

    label: str
    argv: tuple
    check: object  # (exit_code, stdout_text) -> None | str


@dataclass
class Workload:
    name: str
    commands: list
    files: dict = field(default_factory=dict)  # relative path -> text


# -- Gaussian rationals as the CLI writes and prints them ---------------------


def gauss_text(value) -> str:
    """CLI input text of a Gaussian rational (re, im) with both parts nonzero."""
    re_, im = value
    sign = "+" if im > 0 else "-"
    return f"({re_}{sign}{abs(im)}i)"


def parse_gauss(text: str):
    """Parse a coefficient as the package prints it: 3, -1/2, 2i, -i, 1/2+i,
    optionally wrapped in parentheses.  Returns (re, im) as Fractions."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    if not text.endswith("i"):
        return Fraction(text), Fraction(0)
    body = text[:-1]
    split = max(body.rfind("+"), body.rfind("-"))
    if split <= 0:
        return Fraction(0), _unit_or_fraction(body)
    return Fraction(body[:split]), _unit_or_fraction(body[split:])


def _unit_or_fraction(text: str) -> Fraction:
    if text in ("", "+"):
        return Fraction(1)
    if text == "-":
        return Fraction(-1)
    return Fraction(text)


def parse_element(text: str) -> dict:
    """Parse a printed element like `(1+i)*L(-1) + 2*L(3) - I(0)` into
    {key text: (re, im)}."""
    text = text.strip()
    if text == "0":
        return {}
    tokens = text.split(" ")
    terms = [(1, tokens[0])]
    for i in range(1, len(tokens), 2):
        terms.append((1 if tokens[i] == "+" else -1, tokens[i + 1]))
    out = {}
    for sign, term in terms:
        if term.startswith("-"):
            sign, term = -sign, term[1:]
        coef_text, star, key = term.rpartition("*")
        re_, im = parse_gauss(coef_text) if star else (Fraction(1), Fraction(0))
        out[key] = (sign * re_, sign * im)
    return out


# -- seeded inputs --------------------------------------------------------------


def _draw_gauss(rng) -> tuple:
    """A Gaussian rational whose parts are both nonzero non-integers."""
    parts = []
    for _ in range(2):
        den = rng.choice((2, 3, 5))
        num = rng.choice([n for n in range(1, 2 * den) if n % den])
        parts.append(Fraction(rng.choice((1, -1)) * num, den))
    return tuple(parts)


def _romega(rng, count: int = 2) -> dict:
    offsets = sorted(rng.sample(range(-3, 4), count))
    return {k: _draw_gauss(rng) for k in offsets}


def _romega_text(table: dict) -> str:
    inner = ", ".join(f"{k}: {gauss_text(v)}" for k, v in sorted(table.items()))
    return "@romega { " + inner + " }"


def _element_text(coeffs: dict) -> str:
    return " + ".join(f"{gauss_text(v)}*{k}" for k, v in coeffs.items())


def _derivation(rng, terms: int = 3):
    """An inner part x (no I(0) term, indices |i| <= 3) and outer a, b, c."""
    keys = [f"{fam}({n})" for fam in "LI" for n in range(-3, 4) if (fam, n) != ("I", 0)]
    x = {k: _draw_gauss(rng) for k in rng.sample(keys, terms)}
    outer = tuple(_draw_gauss(rng) for _ in range(3))
    return x, outer


def _commuting_map(rng, entries: int = 3):
    """coefficient * id plus `entries` central-valued table lines."""
    keys = [f"{fam}({n})" for fam in "LI" for n in range(-3, 4)]
    targets = ("I(0)", "C1", "C2", "C3")
    table = {k: (rng.choice(targets), _draw_gauss(rng)) for k in rng.sample(keys, entries)}
    return _draw_gauss(rng), table


# -- output checks ------------------------------------------------------------------


def _field(stdout: str, name: str):
    prefix = name + ": "
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def _expect_exit(code: int, want: int):
    return None if code == want else f"exit code {code}, expected {want}"


def check_dimension(expected: int, at_least: bool = False):
    def check(code, stdout):
        bad = _expect_exit(code, 0)
        if bad:
            return bad
        got = _field(stdout, "dimension")
        if got is None:
            return "no dimension line"
        got = int(got)
        if got >= expected if at_least else got == expected:
            return None
        relation = "at least " if at_least else ""
        return f"dimension {got}, expected {relation}{expected}"

    return check


def check_report(passed: bool, checked: int, central_only: bool = False):
    """An exhaustive check's verdict, instance count and (for failures that
    must stay in the center) the support of every residual."""

    def check(code, stdout):
        bad = _expect_exit(code, 0 if passed else 1)
        if bad:
            return bad
        status = _field(stdout, "status")
        if status != ("pass" if passed else "fail"):
            return f"status {status!r}"
        if _field(stdout, "checked") != str(checked) or _field(stdout, "skipped") != "0":
            return f"checked {_field(stdout, 'checked')}, skipped {_field(stdout, 'skipped')}"
        cases = [l for l in stdout.splitlines() if l.startswith("counterexample: ")]
        if not passed and not cases:
            return "failed without a counterexample"
        if central_only:
            for line in cases:
                residual = parse_element(line.partition(" residual = ")[2])
                if not residual or any(k not in ("C1", "C2", "C3") for k in residual):
                    return f"residual outside C1/C2/C3: {line}"
        return None

    return check


def check_decomposition(x: dict, outer: tuple):
    pattern = re.compile(r"^ad\((.*)\) \+ \((.*)\)\*d1 \+ \((.*)\)\*d2 \+ \((.*)\)\*d3$")

    def check(code, stdout):
        bad = _expect_exit(code, 0)
        if bad:
            return bad
        if _field(stdout, "status") != "decomposed":
            return f"status {_field(stdout, 'status')!r}"
        match = pattern.match(stdout.splitlines()[-1])
        if match is None:
            return "no decomposition line"
        if parse_element(match.group(1)) != x:
            return f"inner part {match.group(1)} differs from the drawn one"
        got = tuple(parse_gauss(match.group(i)) for i in (2, 3, 4))
        if got != outer:
            return f"outer coefficients {got} differ from the drawn {outer}"
        return None

    return check


def check_leftsym_report(n_keys: int):
    def check(code, stdout):
        bad = _expect_exit(code, 0)
        if bad:
            return bad
        noncentral = _field(stdout, "left-symmetric identity, noncentral strata")
        full = _field(stdout, "left-symmetric identity, all strata")
        if noncentral != f"pass ({n_keys ** 3} checked, 0 skipped)":
            return f"noncentral identity: {noncentral!r}"
        if full is None or not full.startswith("pass "):
            return f"all-strata identity: {full!r}"
        if _field(stdout, "pairs checked") != str(n_keys ** 2):
            return f"pairs checked: {_field(stdout, 'pairs checked')}"
        if any(l.startswith("  ") and "noncentral" in l for l in stdout.splitlines()):
            return "commutator differs from the bracket outside the central strata"
        return None

    return check


def check_version(code, stdout):
    if code != 0 or not stdout.startswith("hvalgebra ") or len(stdout.splitlines()) != 1:
        return f"exit {code}, output {stdout[:60]!r}"
    return None


VERSION = Command("version", ("--version",), check_version)


# -- the workloads --------------------------------------------------------------


def _ungraded_lower_bound(algebra: str, outbound: int, interior: int) -> int:
    """Dimension of the classified family on the interior, a lower bound for
    any windowed solve: inner(1) (nonzero once interior >= 1) plus, on the
    quotient only, romega({k: 1}) for every offset whose outputs stay inside
    the bound on interior pairs."""
    inner = 1 if interior >= 1 else 0
    if algebra == "lie-hv":
        return inner
    return inner + 2 * (outbound - 2 * interior) + 1


def build(name: str, seed: int, workdir: str, smoke: bool = False) -> Workload:
    """The command list and input files of one workload for one seed.

    ``workdir`` is the directory (relative to the checkout root) the map
    files are written to; commands name the files by that relative path.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    size = SIZES["smoke" if smoke else "full"]
    rng = random.Random(f"perfbench:{name}:{seed}")
    work = Workload(name, [])
    add = work.commands.append

    if name == "solve-graded":
        w, ob, n_int = size["graded"]
        for algebra, dim in (("lie-w00", 2), ("lie-hv", 1)):
            add(Command(
                f"graded-{algebra}",
                ("solve", "biderivations", "--algebra", algebra, "--degree", "0",
                 "--window", str(w), "--outbound", str(ob), "--interior", str(n_int),
                 "--jobs", "2"),
                check_dimension(dim),
            ))

    elif name == "solve-ungraded":
        w, ob, n_int = size["ungraded"]
        for algebra in ("lie-w00", "lie-hv"):
            add(Command(
                f"ungraded-{algebra}",
                ("solve", "biderivations", "--algebra", algebra,
                 "--window", str(w), "--outbound", str(ob), "--interior", str(n_int),
                 "--jobs", "2"),
                check_dimension(_ungraded_lower_bound(algebra, ob, n_int), at_least=True),
            ))
        w, n_int = size["commuting_solve"]
        # identity plus four central values (I(0), C1, C2, C3) per interior key
        add(Command(
            "solve-commuting",
            ("solve", "commuting", "--window", str(w), "--interior", str(n_int), "--jobs", "2"),
            check_dimension(1 + 4 * 2 * (2 * n_int + 1)),
        ))

    elif name == "check-exhaustive":
        omega = _romega(rng)
        inner = _draw_gauss(rng)
        x, outer = _derivation(rng)
        phi_coeff, phi_table = _commuting_map(rng)
        f_path = f"{workdir}/f.bimap"
        p_path = f"{workdir}/p.bimap"
        d_path = f"{workdir}/d.map"
        phi_path = f"{workdir}/phi.map"
        work.files = {
            f_path: f"@inner {gauss_text(inner)}\n{_romega_text(omega)}\n",
            p_path: _romega_text(omega) + "\n",
            d_path: f"@inner {_element_text(x)}\n"
            + "".join(f"@{tag} {gauss_text(v)}\n" for tag, v in zip(("d1", "d2", "d3"), outer)),
            phi_path: f"@id {gauss_text(phi_coeff)}\n"
            + "".join(f"@central {k} -> {gauss_text(v)}*{t}\n" for k, (t, v) in phi_table.items()),
        }
        w = size["biderivation"]
        keys = 4 * w + 2  # L(-w..w) and I(-w..w)
        # inner + offset family: a biderivation of the quotient, and on the
        # full bracket a failure confined to the central coordinates
        add(Command(
            "biderivation-lie-w00",
            ("check", "biderivation", "--map", f_path, "--product", "lie-w00",
             "--window", str(w), "--jobs", "1"),
            check_report(True, 2 * keys ** 3),
        ))
        add(Command(
            "biderivation-lie-hv",
            ("check", "biderivation", "--map", f_path, "--product", "lie-hv",
             "--window", str(w), "--jobs", "1"),
            check_report(False, 2 * (keys + 3) ** 3, central_only=True),
        ))
        # no nonzero offset pattern is a commutative post-Lie product
        w = size["postlie"]
        keys = 4 * w + 5
        add(Command(
            "postlie",
            ("check", "postlie", "--product", p_path, "--window", str(w), "--jobs", "1"),
            check_report(False, keys * (keys - 1) // 2 + 2 * keys ** 3),
        ))
        w = size["derivation"]
        add(Command(
            "derivation",
            ("check", "derivation", "--map", d_path, "--product", "lie-w00",
             "--window", str(w), "--jobs", "1"),
            check_report(True, (4 * w + 2) ** 2),
        ))
        w = size["commuting"]
        keys = 4 * w + 5
        add(Command(
            "commuting",
            ("check", "commuting", "--map", phi_path, "--window", str(w), "--jobs", "1"),
            check_report(True, keys * (keys + 1) // 2),
        ))
        w = size["decompose"]
        add(Command(
            "decompose",
            ("decompose", "--map", d_path, "--window", str(w), "--jobs", "1"),
            check_decomposition(x, outer),
        ))

    else:  # leftsym-frac
        alpha, beta, eps = rng.choice(LEFTSYM_POOL)
        params = ("--epsilon", gauss_text(eps), "--alpha", gauss_text(alpha),
                  "--beta", gauss_text(beta))
        w, ob, n_int = size["leftsym_solve"]
        add(Command(
            "leftsym-quotient-solve",
            ("solve", "biderivations", "--algebra", "leftsym-quotient", "--degree", "0",
             "--window", str(w), "--outbound", str(ob), "--interior", str(n_int))
            + params + ("--jobs", "1"),
            check_dimension(0),
        ))
        w = size["leftsym_report"]
        add(Command(
            "leftsym-report",
            ("report", "leftsym", "--window", str(w)) + params + ("--jobs", "1"),
            check_leftsym_report(4 * w + 5),
        ))
    return work
