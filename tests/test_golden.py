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
        "da6b9483748e438a4b05bef70870256c1b19de4d609b0e832aa6bbe19f6b8b22",
    ),
    "curve-occupation": (
        ("curve", "--estimator", "occupation"),
        "714c711333282ac3443c9e0775f0bf11440310e1883c100f9175fcbf0380e226",
    ),
    "curve-band": (
        ("curve", "--estimator", "band"),
        "204263b1595043ce60db8797cf462f28cd720b80a3ea22135f02eacf96860219",
    ),
    # The two extremes of the band at n = 10**4: narrower than one lattice
    # step (0.01), and wider than the whole path, so every segment meets it.
    "curve-band-narrow": (
        ("curve", "--estimator", "band", "--eps", "0.005"),
        "18969c690bf740dba5432f8e0703f69f4825c04d8e3cbfff71a05053dfc1efcc",
    ),
    "curve-band-wide": (
        ("curve", "--estimator", "band", "--eps", "5"),
        "d9f4737afca14dc32abfb01affa86405b076f48f702ea4c84d56213f5ca7075b",
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
        "d04c8697d58ad01289312dadf41934b3a5d01f166169c42b04202497c55c977b",
    ),
    "verify-reversal": (
        ("verify", "reversal", *SMALL_VERIFY),
        "a81cbdf1d1979f228bc93cc97bfd2ad5f737238db9ab6bc44e244a043869d465",
    ),
    "verify-levy": (
        ("verify", "levy", *SMALL_VERIFY),
        "cef1d6825aedf54c9cf2e1e898fd6743ccc274aec1db300af441aaab768bc4d6",
    ),
    "verify-signed": (
        ("verify", "signed", *SMALL_VERIFY),
        "82d82fa04c64e32de52291127f9581dfbebf4399a45bc56c95b4507ef6593a45",
    ),
    "verify-knight": (
        ("verify", "knight", *SMALL_VERIFY),
        "402cfb4d844886475f3b1de331d76033869fff97e2614c31403ba570a1deca09",
    ),
    # 200000 steps stream through four 65536-step blocks, the last one
    # partial, and leave the grid uncovered, so all of them are walked.
    "verify-coverage": (
        ("verify", "coverage", "--n", "10000", "--budget", "200000"),
        "b2f035659611186e1b94e296b26356a9216945b83b04d1c43a51773c49639a92",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden_hash(tmp_path, name):
    # The hashes above were recorded at this format version.
    assert FORMAT_VERSION == 5
    argv, digest = GOLDEN[name]
    out = tmp_path / name
    main([*argv, "--seed", SEED, "-o", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert wallcurve.__version__ == tomllib.load(f)["project"]["version"]
