"""Golden outputs: SHA-256 of CLI files at one seed.

These pin the random-stream format and every reduction built on it, byte
for byte.  A deliberate change of output bytes updates the hashes in the
same change that bumps ``wallcurve.stats.FORMAT_VERSION``; any other
change must leave them as they are.
"""

import hashlib

import pytest

from wallcurve.cli import main
from wallcurve.stats import FORMAT_VERSION

SEED = "11"
SMALL_VERIFY = ("--n", "1000", "--replicates", "500")

GOLDEN = {
    "walk": (
        ("walk", "--steps", "10000"),
        "da6b9483748e438a4b05bef70870256c1b19de4d609b0e832aa6bbe19f6b8b22",
    ),
    "curve-occupation": (
        ("curve", "--estimator", "occupation"),
        "714c711333282ac3443c9e0775f0bf11440310e1883c100f9175fcbf0380e226",
    ),
    "curve-band": (
        ("curve", "--estimator", "band"),
        "0681171f783b057d698792c1aed247f8bc5c948d7109dbc94fe5bf4d7fca623b",
    ),
    # The two extremes of the band at n = 10**4: narrower than one lattice
    # step (0.01), and wider than the whole path, so every segment meets it.
    "curve-band-narrow": (
        ("curve", "--estimator", "band", "--eps", "0.005"),
        "f567273deef8ee15c853d96fb32ff390d54323293b6bffb74e2cc7499e355b8a",
    ),
    "curve-band-wide": (
        ("curve", "--estimator", "band", "--eps", "5"),
        "5f4c5efcd94858b5f8f0a86345d5924a8ab2c49a8f72baba8698424ec709158f",
    ),
    "profile-band": (
        ("profile", "--estimator", "band"),
        "2a3735e8cca7b74173400d3dab26f85cedcfd972e3b641624a3394a0811e1971",
    ),
    "profile-occupation": (
        ("profile", "--estimator", "occupation"),
        "0b78dd97d3aa24fc1ddc105b2771e7225fe77ad40eeb9ec53f461fcbfa28da11",
    ),
    "walk-json": (
        ("walk", "--steps", "1000", "--format", "json"),
        "959b6713f08c6786958491209db5f09d2e57ed99dfbcfd29462996c9b0dbcdbe",
    ),
    "curve-json": (
        ("curve", "--format", "json"),
        "b767622cbf8f8c8022d71e56722c9da9a7c5e577cd92bc32c893b92c9c0c8aed",
    ),
    "profile-json": (
        ("profile", "--format", "json"),
        "ff316508246fc012550c9447d82bd9c8e8b4bf60e0cbab67a1eb4847d3e95c37",
    ),
    "verify-density": (
        ("verify", "density", *SMALL_VERIFY),
        "a2910442de6a0a82dba9da5013b2340b787de30e452caf68d0f4477c19d4eab9",
    ),
    "verify-reversal": (
        ("verify", "reversal", *SMALL_VERIFY),
        "440d29ac21d3e4176470b9535c55fcb031a0b3ee5e274d509735d7aa143f9e8a",
    ),
    "verify-levy": (
        ("verify", "levy", *SMALL_VERIFY),
        "12e0d515bc150dafb3ddf506b3054d78a0e5f2a76f3330c64e299ee0461d4cfc",
    ),
    "verify-signed": (
        ("verify", "signed", *SMALL_VERIFY),
        "cfe098032feaba2f31dc4005693f4d7ead4d6e0eb5dfa00e13f279a4cdace816",
    ),
    "verify-knight": (
        ("verify", "knight", *SMALL_VERIFY),
        "6edae263349530a51bb055f30810ec0dc23d5dfffc1cf96d5803ab0fd2c73861",
    ),
    # 200000 steps stream through three chunks, the last one partial.
    "verify-coverage": (
        ("verify", "coverage", "--n", "10000", "--budget", "200000"),
        "7cac3a46d3005c36c71ce21079e10b66ab7d7b1377b74ea858b38b8e74d9418b",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden_hash(tmp_path, name):
    # The hashes above were recorded at this format version.
    assert FORMAT_VERSION == 2
    argv, digest = GOLDEN[name]
    out = tmp_path / name
    main([*argv, "--seed", SEED, "-o", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
