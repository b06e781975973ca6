"""Byte-identity gate: solver and checker reports must not change by a
single byte.

Each command runs in-process through main(argv).  The two header lines
(version and echoed command) are dropped, and the sha256 of the rest of
stdout, final newline included, is compared with a recorded digest.  The
checker entries fail on purpose, so their counterexample lists (and
their order) are pinned too.
"""

import hashlib

import pytest

from hvalgebra.cli import main

DECOMPOSE_MAP = "@inner 2*L(1) - I(2) + 1/2*L(-1)\n@d1 3\n@d2 -1/2\n@d3 i\n"

# map files written to tmp_path, by the name each command refers to them by
MAPS = {
    "decompose": DECOMPOSE_MAP,
    "bider": "@romega { 0: 1 }\n@inner 2\n",
    "deriv": "@d2 1\n@inner L(1)\n",
    "comm": "@id 2\n@inner L(1)\n",
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
]


@pytest.mark.parametrize(
    "argv, digest, code",
    GOLDEN,
    ids=["graded", "ungraded", "interior", "commuting", "decompose",
         "check-biderivation", "check-postlie", "check-derivation",
         "check-commuting", "report-leftsym"],
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
