"""Byte-identity gate: solver reports must not change by a single byte.

Each command runs in-process through main(argv).  The two header lines
(version and echoed command) are dropped, and the sha256 of the rest of
stdout, final newline included, is compared with a recorded digest.
"""

import hashlib

import pytest

from hvalgebra.cli import main

DECOMPOSE_MAP = "@inner 2*L(1) - I(2) + 1/2*L(-1)\n@d1 3\n@d2 -1/2\n@d3 i\n"

GOLDEN = [
    (
        ("solve", "biderivations", "--algebra", "lie-w00", "--window", "2",
         "--outbound", "4", "--degree", "0"),
        "f8cf7ee30e050cf9e67d1db6a0faa045da2bd724d96192056806e24e2dc0a90e",
    ),
    (
        # ungraded, so the per-coordinate admission filter runs
        ("solve", "biderivations", "--algebra", "lie-hv", "--window", "2",
         "--outbound", "4"),
        "f4ed3a33a4989e6d5da629eb409a3fa35d9da95a00d3c07abeaa59e078f26b7f",
    ),
    (
        ("solve", "biderivations", "--algebra", "lie-w00", "--window", "2",
         "--outbound", "4", "--interior", "1"),
        "390709cceb0be4f7c66ed0123ddaa07f72a6b528127ddf6c722a8c948f06e183",
    ),
    (
        ("solve", "commuting", "--window", "2"),
        "82eef74416fcf4bf4ef6aa26de327b7a48fd974fa8f47fae485a26da08c83754",
    ),
    (
        ("decompose", "--window", "4", "--map", "{map}"),
        "d9a4a1cef69cf8054597c6df552337dd2861e7fac9724d8a9483f0c37b802619",
    ),
]


@pytest.mark.parametrize(
    "argv, digest",
    GOLDEN,
    ids=["graded", "ungraded", "interior", "commuting", "decompose"],
)
def test_report_digest(argv, digest, tmp_path, capsys):
    path = tmp_path / "d.map"
    path.write_text(DECOMPOSE_MAP)
    assert main([arg.format(map=path) for arg in argv]) == 0
    out = capsys.readouterr().out
    body = out.split("\n", 2)[2]
    assert hashlib.sha256(body.encode("utf-8")).hexdigest() == digest
