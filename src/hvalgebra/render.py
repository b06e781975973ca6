"""Deterministic text renderings of reports and solution spaces.

Everything here is a pure function of its input, so repeated runs
produce byte-identical output.
"""

from __future__ import annotations

from .linalg import SolutionSpace
from .linmaps import CheckReport


def render_check_report(report: CheckReport, fmt: str = "text") -> str:
    status = "pass" if report.passed else "fail"
    if fmt == "machine":
        lines = [f"status={status}", f"checked={report.checked}", f"skipped={report.skipped}"]
        for case in report.counterexamples:
            lines.append(f"counterexample\t{case.equation}\t{case.inputs}\t{case.residual}")
        return "\n".join(lines)
    lines = [
        f"status: {status}",
        f"checked: {report.checked}",
        f"skipped: {report.skipped}",
    ]
    for case in report.counterexamples:
        lines.append(f"counterexample: {case}")
    return "\n".join(lines)


def render_solution_space(space: SolutionSpace, fmt: str = "text") -> str:
    registry = space.registry
    if fmt == "machine":
        lines = [f"dimension={space.dimension}"]
        for i, vector in enumerate(space.basis):
            for vid in sorted(vector):
                lines.append(f"v{i}\t{registry.render(vid)}\t{vector[vid]}")
        return "\n".join(lines)
    lines = [f"dimension: {space.dimension}"]
    for i, vector in enumerate(space.basis):
        lines.append(f"vector {i}:")
        for vid in sorted(vector):
            lines.append(f"  {registry.render(vid)} = {vector[vid]}")
    return "\n".join(lines)


def render_strata_report(residuals, fmt: str = "text") -> str:
    """Render the commutator-vs-bracket comparison, stratum by stratum."""
    total = len(residuals)
    bad = [r for r in residuals if not r.is_zero()]
    if fmt == "machine":
        lines = [f"pairs={total}", f"nonzero={len(bad)}"]
        for r in bad:
            a, b = r.pair
            lines.append(
                f"residual\t({a},{b})\tnoncentral={r.noncentral}"
                f"\tC1={r.c1}\tC2={r.c2}\tC3={r.c3}"
            )
        return "\n".join(lines)
    lines = [f"pairs checked: {total}", f"pairs with nonzero residual: {len(bad)}"]
    for r in bad:
        a, b = r.pair
        parts = []
        if r.noncentral:
            parts.append(f"noncentral {r.noncentral}")
        if r.c1:
            parts.append(f"C1 {r.c1}")
        if r.c2:
            parts.append(f"C2 {r.c2}")
        if r.c3:
            parts.append(f"C3 {r.c3}")
        lines.append(f"  ({a}, {b}): " + "; ".join(parts))
    return "\n".join(lines)
