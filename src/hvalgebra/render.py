"""Deterministic text renderings of reports and solution spaces.

Everything here is a pure function of its input, so repeated runs
produce byte-identical output.
"""

from __future__ import annotations

from .core import C1, C2, C3
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


def _render_label(label) -> str:
    """A solver unknown ``(tag, *argument keys, output key)`` as
    ``tag(a,b) : out``."""
    tag, *args, out = label
    return f"{tag}({','.join(map(str, args))}) : {out}"


def render_solution_space(space: SolutionSpace, fmt: str = "text") -> str:
    label_of = space.registry.label_of
    if fmt == "machine":
        lines = [f"dimension={space.dimension}"]
        for i, vector in enumerate(space.basis):
            for vid in sorted(vector):
                lines.append(f"v{i}\t{_render_label(label_of(vid))}\t{vector[vid]}")
        return "\n".join(lines)
    lines = [f"dimension: {space.dimension}"]
    for i, vector in enumerate(space.basis):
        lines.append(f"vector {i}:")
        for vid in sorted(vector):
            lines.append(f"  {_render_label(label_of(vid))} = {vector[vid]}")
    return "\n".join(lines)


def render_strata_report(residuals, fmt: str = "text") -> str:
    """Render ``((a, b), residual)`` commutator-vs-bracket pairs, stratum
    by stratum."""
    total = len(residuals)
    bad = [(pair, r) for pair, r in residuals if r]
    if fmt == "machine":
        lines = [f"pairs={total}", f"nonzero={len(bad)}"]
        for (a, b), r in bad:
            lines.append(
                f"residual\t({a},{b})\tnoncentral={r.noncentral()}"
                f"\tC1={r[C1]}\tC2={r[C2]}\tC3={r[C3]}"
            )
        return "\n".join(lines)
    lines = [f"pairs checked: {total}", f"pairs with nonzero residual: {len(bad)}"]
    for (a, b), r in bad:
        parts = []
        if r.noncentral():
            parts.append(f"noncentral {r.noncentral()}")
        parts.extend(f"{key} {r[key]}" for key in (C1, C2, C3) if r[key])
        lines.append(f"  ({a}, {b}): " + "; ".join(parts))
    return "\n".join(lines)
