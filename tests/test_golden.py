"""Golden outputs: sha256 of small fixed-seed CLI runs.

A refactor that claims byte-identical outputs has to keep every hash here.
A change that moves an output on purpose updates the hash and says why.
The hashes were taken with numpy 2.4 and scipy 1.17 on x86-64; another
build of the numerical libraries may move the last printed digits.
"""

import hashlib
import json
import re

import pytest

from levylibor import setup_to_dict
from levylibor.cli import main

from helpers import REGULAR_LOADINGS, regular_setup

# 4100 paths: one full batch and a few paths of a second one.
RUN = ["--seed", "11", "--paths", "4100"]

GOLDEN = {
    "compare": (
        ["compare", *RUN, "--surface-out", "{tmp}/surf"],
        ("out.csv", "surf_frozen.dat", "surf_taylor.dat"),
        ("1d6ffe90e0438e0accf8a13c3f086ae4b8817128ef333996fbc3c22bfd86e7b5",
         "c1046657f85eb53e2b7a1216ace185fee0ae630a0fa0178ef9e67962ea1bba08",
         "24b19baa6944d230088137ecab20a87c334aa4912a6b1a50d800feb4f872cdc9"),
    ),
    "compare-full-taylor": (
        ["compare", *RUN, "--schemes", "full,taylor"], ("out.csv",),
        ("42aae418a5fe3f0bdffe4f07168667dc88fe1d18a1f7c08471a3d67f0b67d9a8",),
    ),
    "caplets-full": (
        ["price-caplets", *RUN, "--scheme", "full"], ("out.csv",),
        ("d9faccdd664b8eac15637d14cd096b069dea741f8246186dbf66e298452f3320",),
    ),
    "caplets-frozen": (
        ["price-caplets", *RUN, "--scheme", "frozen"], ("out.csv",),
        ("da010373ec36fa3087aec1ff0984f78590991aae8c802426198f396cfd787acb",),
    ),
    "caplets-taylor": (
        ["price-caplets", *RUN, "--scheme", "taylor"], ("out.csv",),
        ("be83587ce4f21fa04c29433a3586a49e8cbdad92164b79685d2cff3c5297ac40",),
    ),
    "swaptions": (
        ["price-swaptions", *RUN], ("out.csv",),
        ("95a70890317a3fa6def583dc6ed8849fd77e997b958d36d99a4ef3f1090ad0cb",),
    ),
}


def _digests(tmp_path, argv, files):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    return tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                 for f in files)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_output_is_byte_identical(name, tmp_path, capsys):
    argv, files, expected = GOLDEN[name]
    assert _digests(tmp_path, argv, files) == expected


# The drift DP off the bundled setup: ten rates, some loadings negative.
REGULAR = (
    ["price-caplets", "--scheme", "full", "--paths", "2100", "--seed", "11",
     "--setup", "{tmp}/setup.json"],
    "2ef45665262d7b5c67827ccd62a4e1c88846f20fc0e7c8538a00d7fac9bf9d99",
)


def test_regular_setup_is_byte_identical(tmp_path, capsys):
    argv, expected = REGULAR
    raw = setup_to_dict(regular_setup(REGULAR_LOADINGS[1]))
    (tmp_path / "setup.json").write_text(json.dumps(raw))
    assert _digests(tmp_path, argv, ("out.csv",)) == (expected,)


# The whole acceptance run at 0.005 of its path counts, with its files.
REPRODUCE = (
    ["reproduce-paper", "--paths-scale", "0.005", "--seed", "7"],
    ("comparison.csv", "iv_surface_frozen.dat", "iv_surface_taylor.dat"),
    ("85928863d732106983e7280501d82359132088bf64794ade4a9d570473f323c2",
     "287c832ef8c7b64c5c2202e56141533dbfa3d154887f1efb551910c9b468773f",
     "8e8e339fecfd7def5d2f96e35643ed4e5cd3bf40c1b6cddbc0dbf93a3d38707b"),
    # stdout with the output directory as {out} and runtimes as (X s
    "ac4e788b76c66bae8d72bddf1177d1fd2b6f97127a380770c4259183a84a8b99",
)


def test_reproduce_paper_is_byte_identical(tmp_path, capsys):
    argv, files, expected, stdout = REPRODUCE
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out.replace(str(tmp_path), "{out}")
    out = re.sub(r"\(\d+\.\d s", "(X s", out)
    assert hashlib.sha256(out.encode()).hexdigest() == stdout
    assert tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                 for f in files) == expected
