"""The command-line surface, driven in-process through main(argv)."""

import subprocess
import sys
import threading

import pytest

from hvalgebra import cli
from hvalgebra.cli import main
from hvalgebra.core import C1, Element, L
from hvalgebra.linmaps import CheckReport, Counterexample


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_prints_the_value_alone(capsys):
    code, out, err = run(capsys, "eval", "[L(2), L(-2)]")
    assert code == 0
    assert out == "4*L(0) + 1/2*C1\n"
    assert err.startswith("elapsed:")
    code, out, _ = run(capsys, "eval", "[L(2), L(-2)]", "--product", "lie-w00")
    assert code == 0
    assert out == "4*L(0)\n"


@pytest.mark.parametrize(
    "product, full",
    [("lie-hv", True), ("lie-w00", False), ("leftsym", True), ("leftsym-quotient", False)],
)
@pytest.mark.parametrize("epsilon", [(), ("--epsilon", "2/7")], ids=["bracket", "with-epsilon"])
def test_eval_algebra_follows_the_product(capsys, product, full, epsilon):
    """--product alone picks the full algebra or its quotient, for the
    bracket and for 'o' alike; --epsilon only supplies the parameters."""
    code, out, _ = run(capsys, "eval", "[L(2), L(-2)]", "--product", product, *epsilon)
    assert code == 0
    assert out == ("4*L(0) + 1/2*C1\n" if full else "4*L(0)\n")
    if epsilon:
        code, out, _ = run(capsys, "eval", "L(2) o L(-2)", "--product", product, *epsilon)
        assert code == 0
        assert out == ("6/7*L(0) - 2/7*C1\n" if full else "6/7*L(0)\n")


def test_eval_dot_product_needs_epsilon(capsys):
    code, out, _ = run(
        capsys, "eval", "L(1) o L(1)", "--epsilon", "(1+1i)"
    )
    assert code == 0
    assert out == "(-8/13+1/13i)*L(2)\n"
    code, _, err = run(capsys, "eval", "L(1) o L(1)")
    assert code == 2
    assert "error:" in err and "--epsilon" in err


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "eval", "L(1) +")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(capsys, "eval", "1/0*L(0)")
    assert code == 2


@pytest.mark.parametrize(
    "expr, extra",
    [
        ("[" * 250 + "L(0)" + ", L(1)]" * 250, ()),
        (" o ".join(["L(1)"] * 1500), ("--epsilon", "(1+i)")),
    ],
    ids=["nested-brackets", "o-chain"],
)
def test_eval_refuses_too_deep_expressions(expr, extra):
    # a separate process, so the stack depth is the command's own
    proc = subprocess.run(
        [sys.executable, "-m", "hvalgebra.cli", "eval", expr, *extra],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: expression nested more than")


def test_duplicate_map_entries_exit_2(tmp_path, capsys):
    path = tmp_path / "dup.map"
    path.write_text("L(1) -> I(1)\nL(1) -> I(2)\n")
    code, _, err = run(
        capsys, "check", "derivation", "--map", str(path), "--window", "2"
    )
    assert code == 2
    assert "line 2: duplicate entry for L(1)" in err


def test_usage_errors_exit_nonzero(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "check", "biderivation", "--window", "2")[0] == 2


def test_check_biderivation_pass_and_fail(tmp_path, capsys):
    path = tmp_path / "sym.bimap"
    path.write_text("@romega { 0: 1 }\n")
    code, out, _ = run(
        capsys, "check", "biderivation", "--map", str(path),
        "--product", "lie-w00", "--window", "3",
    )
    assert code == 0
    assert out.startswith("hvalgebra ")
    assert f"command: check biderivation --map {path}" in out
    assert "status: pass" in out
    assert "symmetry: symmetric" in out

    code, out, _ = run(
        capsys, "check", "biderivation", "--map", str(path),
        "--product", "lie-hv", "--window", "2",
    )
    assert code == 1
    assert "status: fail" in out
    assert (
        "counterexample: (L(-2), L(0), L(2)) [first-slot] residual = 2*C2" in out
    )


def test_check_derivation_and_commuting(tmp_path, capsys):
    deriv = tmp_path / "outer.map"
    deriv.write_text("@d3 1\n")
    code, out, _ = run(
        capsys, "check", "derivation", "--map", str(deriv),
        "--product", "lie-w00", "--window", "3",
    )
    assert code == 0 and "status: pass" in out

    comm = tmp_path / "comm.map"
    comm.write_text("@id 2\n@central L(1) -> C1\n")
    code, out, _ = run(
        capsys, "check", "commuting", "--map", str(comm), "--window", "2"
    )
    assert code == 0 and "status: pass" in out
    code, out, _ = run(
        capsys, "check", "commuting", "--map", str(deriv), "--window", "2"
    )
    assert code == 1 and "status: fail" in out


def test_check_postlie_inline(capsys):
    code, out, _ = run(
        capsys, "check", "postlie", "--product", "@romega {}", "--window", "1"
    )
    assert code == 0 and "status: pass" in out
    code, out, _ = run(
        capsys, "check", "postlie", "--product", "@romega { 0: 1 }", "--window", "2"
    )
    assert code == 1
    assert "[lie-action]" in out


def test_solve_biderivations_dimensions(capsys):
    base = (
        "solve", "biderivations", "--window", "2", "--outbound", "4",
        "--degree", "0", "--interior", "1",
    )
    code, out, _ = run(capsys, *base, "--algebra", "lie-w00")
    assert code == 0
    assert "dimension: 2" in out
    code, out, _ = run(capsys, *base, "--algebra", "lie-hv")
    assert code == 0
    assert "dimension: 1" in out


def test_solve_commuting_dimensions(capsys):
    code, out, _ = run(capsys, "solve", "commuting", "--window", "2")
    assert code == 0 and "dimension: 53" in out
    code, out, _ = run(
        capsys, "solve", "commuting", "--window", "2", "--interior", "1"
    )
    assert code == 0 and "dimension: 25" in out


def test_solve_validates_bounds(capsys):
    code, _, err = run(
        capsys, "solve", "biderivations", "--window", "2", "--outbound", "3"
    )
    assert code == 2
    assert "twice the window radius" in err


def test_solve_commuting_validates_the_interior(capsys):
    code, out, err = run(
        capsys, "solve", "commuting", "--window", "3", "--interior", "5"
    )
    assert code == 2 and out == ""
    assert "interior radius must stay below the window radius" in err


def test_solves_reject_a_negative_interior(capsys):
    graded = ("solve", "biderivations", "--algebra", "lie-w00", "--window", "2",
              "--outbound", "4", "--degree", "0")
    for argv in (("solve", "commuting", "--window", "2"), graded):
        code, out, err = run(capsys, *argv, "--interior", "-1")
        assert code == 2 and out == ""
        assert "interior radius must be at least 0" in err
    code, out, _ = run(capsys, *graded, "--interior", "0")
    assert code == 0
    assert "dimension: 1" in out and "f(L(0),L(0))" in out


def test_jobs_flag_starts_no_threads(tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    deriv = tmp_path / "outer.map"
    deriv.write_text("@d3 1\n")
    code, out, _ = run(
        capsys, "check", "derivation", "--map", str(deriv),
        "--product", "lie-w00", "--window", "2", "--jobs", "2",
    )
    assert code == 0 and "status: pass" in out


def test_jobs_must_be_positive(capsys):
    for jobs in ("0", "-3"):
        code, _, err = run(
            capsys, "solve", "commuting", "--window", "2", "--jobs", jobs
        )
        assert code == 2
        assert "--jobs: must be at least 1" in err


def test_report_leftsym_always_succeeds(capsys):
    code, out, _ = run(
        capsys, "report", "leftsym", "--epsilon", "(1+1i)", "--window", "2"
    )
    assert code == 0
    assert "left-symmetric identity, noncentral strata: pass" in out
    assert "left-symmetric identity, all strata: pass" in out
    assert "pairs checked: 169" in out
    assert "pairs with nonzero residual: 12" in out
    assert "(L(1), I(-1)): C2 2" in out
    assert "(I(1), I(-1)): C3 -2" in out
    code, _, err = run(capsys, "report", "leftsym", "--window", "2")
    assert code == 2 and "--epsilon" in err


def test_report_leftsym_evaluates_the_identity_once(capsys, monkeypatch):
    calls = []
    original = cli.is_left_symmetric

    def counted(product, window):
        calls.append(window)
        return original(product, window)

    monkeypatch.setattr(cli, "is_left_symmetric", counted)
    code, out, _ = run(
        capsys, "report", "leftsym", "--epsilon", "(1+i)", "--window", "1"
    )
    assert code == 0
    assert "noncentral strata: pass (729 checked, 0 skipped)" in out
    assert len(calls) == 1


@pytest.mark.parametrize(
    "residual, noncentral",
    [(Element({C1: 1}), "pass"), (Element({L(0): 1, C1: 1}), "fail")],
    ids=["central-only", "noncentral"],
)
def test_report_leftsym_noncentral_verdict_reads_the_residuals(
    capsys, monkeypatch, residual, noncentral
):
    case = Counterexample((L(1), L(-1), L(0)), "left-symmetric", residual)
    report = CheckReport(729, 0, (case,))
    monkeypatch.setattr(cli, "is_left_symmetric", lambda product, window: report)
    code, out, _ = run(
        capsys, "report", "leftsym", "--epsilon", "(1+i)", "--window", "1"
    )
    assert code == 0
    assert (
        f"left-symmetric identity, noncentral strata: {noncentral} "
        "(729 checked, 0 skipped)\n"
        "left-symmetric identity, all strata: fail (1 nonzero residuals)\n"
    ) in out


def test_report_leftsym_prints_nothing_when_it_fails(capsys):
    # eps = -1/3 would make 1 + eps*(m+n) vanish at m + n = 3, inside
    # window 1; it is refused before any product is built
    code, out, err = run(
        capsys, "report", "leftsym", "--window", "1", "--epsilon=-1/3"
    )
    assert code == 2
    assert out == ""
    assert "epsilon -1/3 is not admissible" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "L(1) o L(1)", "--epsilon", "1"),
        ("eval", "L(0) o L(1)", "--epsilon=-1"),
        ("eval", "[L(1), L(-1)]", "--epsilon=-i", "--product", "leftsym-quotient"),
        ("check", "derivation", "--map", "unread.map", "--window", "1",
         "--product", "leftsym", "--epsilon", "1/3"),
    ],
    ids=["inverse-integer", "negative", "negative-imaginary", "check-before-reading"],
)
def test_inadmissible_epsilon_exits_2_and_states_the_rule(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "is not admissible: it needs Re > 0 with 1/epsilon not an integer" in err


def test_decompose(tmp_path, capsys):
    shift = tmp_path / "shift.map"
    lines = [f"L({n}) -> I({n})" for n in range(-2, 3)]
    lines += [f"I({n}) -> 0" for n in range(-2, 3)]
    shift.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "decompose", "--map", str(shift), "--window", "3")
    assert code == 0
    assert "status: decomposed" in out
    assert "ad(0) + (0)*d1 + (-1)*d2 + (1)*d3" in out

    ident = tmp_path / "ident.map"
    lines = [f"L({n}) -> L({n})" for n in range(-2, 3)]
    lines += [f"I({n}) -> 0" for n in range(-2, 3)]
    ident.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "decompose", "--map", str(ident), "--window", "3")
    assert code == 0
    assert "status: no-solution" in out

    partial = tmp_path / "partial.map"
    partial.write_text("L(0) -> I(0)\n")
    code, _, err = run(capsys, "decompose", "--map", str(partial), "--window", "3")
    assert code == 3
    assert "error:" in err


def test_missing_map_file_exits_2(capsys):
    code, _, err = run(
        capsys, "check", "commuting", "--map", "/nonexistent.map", "--window", "2"
    )
    assert code == 2
    assert "cannot read" in err


def test_output_is_byte_identical_across_jobs(tmp_path, capsys):
    path = tmp_path / "f.bimap"
    path.write_text("@romega { 0: 1 }\n@inner 2\n")
    outs = []
    for jobs in ("1", "3"):
        code, out, _ = run(
            capsys, "check", "biderivation", "--map", str(path),
            "--product", "lie-hv", "--window", "2", "--jobs", jobs,
            "--format", "machine",
        )
        assert code == 1
        # strip the echoed command line, which names the jobs flag
        outs.append("\n".join(out.splitlines()[2:]))
    assert outs[0] == outs[1]
    solve_outs = []
    for jobs in ("1", "2"):
        code, out, _ = run(
            capsys, "solve", "biderivations", "--algebra", "lie-w00",
            "--window", "2", "--outbound", "4", "--jobs", jobs,
        )
        assert code == 0
        solve_outs.append("\n".join(out.splitlines()[2:]))
    assert solve_outs[0] == solve_outs[1]


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("hvalgebra ")


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "hvalgebra.cli", "eval", "[I(3), I(-3)]"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3*C3\n"
