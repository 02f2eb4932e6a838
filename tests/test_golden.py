"""Golden outputs: SHA-256 of CLI files at one seed.

These pin the random-stream format and every reduction built on it, byte
for byte.  A deliberate change of output bytes updates the hashes in the
same change that bumps ``wallcurve.stats.FORMAT_VERSION``; any other
change must leave them as they are.
"""

import hashlib
from pathlib import Path

import pytest

import wallcurve
from wallcurve.cli import main
from wallcurve.stats import FORMAT_VERSION

SEED = "11"
SMALL_VERIFY = ("--n", "1000", "--replicates", "500")

GOLDEN = {
    "walk": (
        ("walk", "--steps", "10000"),
        "bc31fe65a908f410d650c974b12aaf53a775f6f288b39e3710a303acd4a3b107",
    ),
    "curve-occupation": (
        ("curve", "--estimator", "occupation"),
        "d207091eb28255331ee6e3785bab643537d12750c825a872505b140e7a2615f1",
    ),
    "curve-band": (
        ("curve", "--estimator", "band"),
        "604055e649337c0f55750697b5fd63373b560dc091f7ef6f2e8777b73be1ee3b",
    ),
    # The two extremes of the band at n = 10**4: narrower than one lattice
    # step (0.01), and wider than the whole path, so every segment meets it.
    "curve-band-narrow": (
        ("curve", "--estimator", "band", "--eps", "0.005"),
        "3b012c03101ece0cda8eedd49cd62a9066859b96f96cdc0e86b8a3a5f59f2f0b",
    ),
    "curve-band-wide": (
        ("curve", "--estimator", "band", "--eps", "5"),
        "e682fc3b2d14c6cbae656b1b333f8a47f72a6013ff836dafcbe084b027f84708",
    ),
    "profile-band": (
        ("profile", "--estimator", "band"),
        "f8f5ababce1c9907fff3a9c4a324779322e1498fd00132222681d1a1889d8419",
    ),
    "profile-occupation": (
        ("profile", "--estimator", "occupation"),
        "4244e76821fd821f1eee0098bfa3a4f44eea2abd33abf89a66d936bd70a7ae31",
    ),
    "walk-json": (
        ("walk", "--steps", "1000", "--format", "json"),
        "949174f1cb347340cf4711f3416e44a567d9c9abc4b5094119a1b0b0a0e04470",
    ),
    "curve-json": (
        ("curve", "--format", "json"),
        "4ea11cc207722972c79bb8ecc27081f8060cad3bc4729cb0cda3add8d57c42ca",
    ),
    "profile-json": (
        ("profile", "--format", "json"),
        "e8d038d0376af9f95b9c366418fea869f129193ce1eb59a17d5b0365f0f5b7ca",
    ),
    "verify-density": (
        ("verify", "density", *SMALL_VERIFY),
        "3e092668f9fa340a2a8eb6626ed17bb03be7b5a1bc00b12fd63cfa1a8d729734",
    ),
    "verify-reversal": (
        ("verify", "reversal", *SMALL_VERIFY),
        "cd468515ec03ed35e1bc2e3329ba4f6a6c9431f5603676e1cec0d4364e2ff9c4",
    ),
    "verify-levy": (
        ("verify", "levy", *SMALL_VERIFY),
        "a2ad2634ca2833affec5ea3ca3da5e063be8450789151b5982a71964b6c91cf7",
    ),
    "verify-signed": (
        ("verify", "signed", *SMALL_VERIFY),
        "e07e1c3c8eb346dec1ea7a2061d90495fe43edfb982e33fb7cac4e9b500f4698",
    ),
    "verify-knight": (
        ("verify", "knight", *SMALL_VERIFY),
        "a237704dbfb166d3f217feee8841ba22e1c6c804f30299a38f7fb11b1566968f",
    ),
    # 200000 steps stream through four 65536-step blocks, the last one
    # partial, and leave the grid uncovered, so all of them are walked.
    "verify-coverage": (
        ("verify", "coverage", "--n", "10000", "--budget", "200000"),
        "5f7366f30d3af9a076276962be47d260e2094bd64f503dd5c7341013f6cdfd54",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden_hash(tmp_path, name):
    # The hashes above were recorded at this format version.
    assert FORMAT_VERSION == 6
    argv, digest = GOLDEN[name]
    out = tmp_path / name
    main([*argv, "--seed", SEED, "-o", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert wallcurve.__version__ == tomllib.load(f)["project"]["version"]
