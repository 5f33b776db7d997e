"""Golden outputs: sha256 of small fixed-seed CLI runs.

A refactor that claims byte-identical outputs has to keep every hash here.
A change that moves an output on purpose updates the hash and says why.
The hashes were taken with numpy 2.4 and scipy 1.17 on x86-64; another
build of the numerical libraries may move the last printed digits.
"""

import hashlib

import pytest

from levylibor.cli import main

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
