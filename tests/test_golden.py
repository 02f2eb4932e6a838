"""Golden outputs: SHA-256 of CLI files at one seed.

These pin the random-stream format and every reduction built on it, byte
for byte.  A deliberate change of stream format updates the hashes in the
same change that bumps the stream version; any other change must leave
them as they are.
"""

import hashlib

import pytest

from wallcurve.cli import main

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
        "f8cc00defb951f130fa4257f60dc2f3fb24e4c9d7d4f64750240299faf15f1f6",
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
        "08531914d2586439d957e921cfde0ffc4b514f5b52ae64934dad179c46c184b3",
    ),
    "verify-density": (
        ("verify", "density", *SMALL_VERIFY),
        "0c8d5bdd168b9cea4ed51a318ce2888bd623f0213c2940808e0d6d20ea03d287",
    ),
    "verify-reversal": (
        ("verify", "reversal", *SMALL_VERIFY),
        "1494ec92ca110ddcb9a096dc81eaf0608f9f2729cb4c0e5aa481a4b413e64b68",
    ),
    "verify-levy": (
        ("verify", "levy", *SMALL_VERIFY),
        "ee19221ae7b7e50da6182391dba768a6d387577df8811944002f54330faaab69",
    ),
    "verify-signed": (
        ("verify", "signed", *SMALL_VERIFY),
        "433036782a516ee0605048273afbbf408c487441d9a19c0f4b32741eab3286cb",
    ),
    "verify-knight": (
        ("verify", "knight", *SMALL_VERIFY),
        "ee202903472d84ea2ffd13660b7d70f4a1254a2b702894c93f7891359fc92be5",
    ),
    # 200000 steps stream through three chunks, the last one partial.
    "verify-coverage": (
        ("verify", "coverage", "--n", "10000", "--budget", "200000"),
        "fd6b50520220343be432fab1183390668d47f8c322f4169db9b53627e69dbec3",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden_hash(tmp_path, name):
    argv, digest = GOLDEN[name]
    out = tmp_path / name
    main([*argv, "--seed", SEED, "-o", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
