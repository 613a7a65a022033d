"""Byte-for-byte golden of the command-line front end.

Each key is an argv that ``cli.main`` runs in process; its value is one sha256
over the exit code, stdout, stderr and, for ``--out`` runs, every sweep file
(or its absence).  The ``<OUT>`` prefix stands for a path in a temporary
directory and is written back as ``<OUT>`` in stdout before hashing.  An entry
is recorded once and never re-recorded: a change that adds an output adds an
entry.  The digests hold at the default tolerance, so the module is skipped
when ``EQ_EPS`` is set.
"""

import hashlib
import os
from pathlib import Path

import pytest

from equirobust.cli import main

pytestmark = pytest.mark.skipif("EQ_EPS" in os.environ, reason="digests hold at the default tolerance")

GOLDEN = {
    # analyze
    "analyze --builtin square":
        "709dfb95868242c64b15db474a45487db1c6848f30d1f41b2ee656d8276a1450",
    "analyze --builtin ngon:7 --ref 0.01,0.02":
        "dbb8cfa390a454afbfdcf32e0c64c668cbe3c98ae8ed990779d85a3e2dd5fd60",
    "analyze --builtin cube":
        "a4a7a7854a2809e2c49f2817d0024f877f580a1125176922534fa6c7b9728bbc",
    "analyze --builtin icosa":
        "208d81375f000e859a3589200e7fcaaa67be72d44dfe0f321328a8f1bde96c43",
    "analyze --builtin ellipsoid:1:2:3":
        "be063b223ab3eba131c888a2d40d88e3e1c014f13d386bc8d9f360f09d2c49d4",
    "analyze --builtin ellipsoid:1:1:2":
        "18d372e0eb387e53875b5c7d2d67e433dc7d33298fd5c2398d2c5154ab7812bc",
    "analyze --builtin rect:0:1":
        "8ba81f9b82d5ea8c07d2a4161305d5190de204bb831330175aebcdcfc5365fb6",
    "analyze --builtin ngon:x":
        "def6c51e31edd3d8342b1ebaa6a18429f1160d4f56f5f945e4d2d99a4f4ad618",
    "analyze --builtin cylcut:1":
        "93d849d95321f24fa64672c255b4cf236e896aa9a6076b83989b91e685ece454",
    "analyze --builtin square --ref 1,2,3":
        "b4f4f34f2848da4300d6e66c53b4d798dbeebe7b99644d0aa378750ef114cd50",
    "analyze --builtin cube --format csv":
        "30a9ee8bad3f8a8d4c8614a238626b72b8fe6c9f8d0ae780ff00f706b5de6dd6",
    "analyze --builtin ellipsoid:1:2:3 --ref 0,0,0":
        "0d59554a7350656ac3d8037f4851fc208f17bb7fd0b22dfae92d7bba111672bb",
    # robust
    "robust --builtin square --kind in":
        "a34bf9f66ba8f14a8cb9ea2e1d61cc96d8987be8e6b317bcc179028e5f211bd5",
    "robust --builtin square --kind in --samples 64":
        "676a7715314929f13d3b4afdffd85d3703f03a14545f7b49bdd79068a1793299",
    "robust --builtin ngon:7 --kind in --ref 0.01,0.02 --rays-only":
        "a64281e05e5da1dc915b24f337c3755cb4a93032c46adb2f16c50f24840c3d97",
    "robust --builtin cube --kind in":
        "39a1c3f8d2b5fde93bdc231d7fafff082991bc1a7914b063e2587efe71a302ed",
    "robust --builtin cylcut:1:3 --kind in --samples 256":
        "af587ed423fecf66d6589b0d8077f94a656fc531d9e05cab3af3d0a33d5d8d25",
    "robust --builtin tetra --kind in --rays-only":
        "8db7bc1bee9932061ecb86af3c2df82611b295eb7ec6363df618f508d32cf8df",
    "robust --builtin ngon:7 --kind ex":
        "1ee7a007febd16113b39615bbcef6efebd4915a3fc181aafd72c1f6f68d58e57",
    "robust --builtin square --kind full-line":
        "88ffb787b52241957d6a6ff0fe3c3660461207bb8d06fac17339d145d56e6a84",
    "robust --builtin ngon:64 --kind full-line":
        "56ff5b6069c03cfac27933d4af9b2b2f7d66e7a2d394ad4921b631f73a0fe259",
    "robust --builtin cube --kind partial-s --seed 5":
        "4024e6d5f6e3fa2235cdf258892fed7d092612b6e903ff5efc7b268e8a32dde0",
    "robust --builtin octa --kind partial-u --seed 2":
        "feae46d520bdce948047602c4c29a62a8c24ecda19b377588acf334551f3fa63",
    "robust --builtin tetra --kind partial-any --seed 1":
        "c18374577cc2aa733d21c776456b0104d201452494c47bc48cecb61227a0e4cc",
    "robust --builtin cylcut:1:3 --kind partial-any --seed 5 --grid-theta 24 --grid-offset 10":
        "05e8eb50ab4e0810fbd65a3c4a82dd16f413bc0c283990b071cd87b806237662",
    "robust --builtin cube --kind ex":
        "60f9b7d5de00131b51514d701cdcdb4f508252d5fd8d5b48c2b9a3772b36d97a",
    "robust --builtin cube --kind partial-any":
        "a5245e39a6602927283e7bd3a43f050c4f8d09a5e4419128907f16d4100073f7",
    "robust --builtin square --kind full-line --tol 0":
        "6533f51c37f865f1070e5fe29a6daa85830ac4af174cd2caf631014be49bed68",
    "robust --builtin cube --kind partial-any --seed -1":
        "6f95c393877c65419fafb052852db86c0035a7d6d9fcbf6b6820fd31b3d3b542",
    "robust --builtin square --kind in --format svg":
        "d2bb29d110e9ad06da3e8ae90b5275e9c873e4b3f16b9cefe8410d3c139de71f",
    # sweep
    "sweep --builtin square --samples 200 --seed 1":
        "e880694d45f4eb2f1dda0e8e4a86e8ae280777c0f15c577517750324b452894c",
    "sweep --builtin square --samples 200 --seed 1 --format json":
        "2008d615d69eaaa82ad18e4538a21519946e03b85717294e29fa16fcaadae6ce",
    "sweep --builtin square --samples 200 --seed 1 --format svg":
        "e9119d0ff6ae5beb9a1a1f60c7c7b02ef78cb2458bd5a8608e93b956eef1e45b",
    "sweep --builtin square --samples 200 --seed 1 --out <OUT>":
        "d5e24a0e1afb380b5d89260a998c7199397b9bb55c61f0fff892217a5cf52687",
    "sweep --builtin ngon:64 --samples 100 --seed 2 --bins 7":
        "63784f30cb4acf6546621ef03d09f787d5129f51c76a639d974f8cb482e9988d",
    "sweep --builtin ngon:64 --samples 100 --seed 2 --bins 7 --format json":
        "5e3d47b801795dc934b02129070cd2d4cd665afd05ebd97079170b971896164e",
    "sweep --builtin ngon:64 --samples 100 --seed 2 --bins 7 --format svg":
        "5e3d47b801795dc934b02129070cd2d4cd665afd05ebd97079170b971896164e",
    "sweep --builtin ngon:64 --samples 100 --seed 2 --bins 7 --format svg --out <OUT>":
        "810962890c57129bcc7a1e6230e97a632ce39e79c321d0265099abf3356785de",
    "sweep --builtin ngon:9 --samples 300 --seed 4 --format json":
        "240d1342a91327cf4bfc8ebb0b7ded1b43f92561a2ce4f4c1b777c24d7d3bdfe",
    "sweep --builtin ngon:9 --samples 300 --seed 4 --format svg":
        "240d1342a91327cf4bfc8ebb0b7ded1b43f92561a2ce4f4c1b777c24d7d3bdfe",
    "sweep --builtin ngon:9 --samples 300 --seed 4 --out <OUT>":
        "f9aeafbd6bee5a86baa4cc6e9e902341a72e0afcee1bee788699451e13b2d937",
    "sweep --builtin square --samples 10 --seed 1 --bins 0":
        "c9288030164e0eda2a9fc87cda3c2a5affcce517a70154352fc95892390f73c8",
    "sweep --builtin square --samples 10 --seed -1":
        "6f95c393877c65419fafb052852db86c0035a7d6d9fcbf6b6820fd31b3d3b542",
    "sweep --builtin cube --samples 5 --seed 1":
        "65861e59ef1c40f69ea13059daa3f85e86a1c2c5f686c40e9dd2a993027cb0e5",
    "sweep --builtin rect:1:2 --samples 300 --seed 4 --bins 9 --format json --out <OUT>":
        "08159ce81cb48d7e9bcb36a896e785a2deeec411e0fb2259d477294e3fc16091",
    # fixtures
    "fixtures":
        "342579349a01c3fe6bd76677d4dc99bf02a71114b0449e1ad21bb07039d61b38",
}


def _digest(argv: str, tmp_path, capsys) -> str:
    prefix = str(tmp_path / "run")
    code = main(argv.replace("<OUT>", prefix).split())
    captured = capsys.readouterr()
    h = hashlib.sha256()
    for part in (str(code), captured.out.replace(prefix, "<OUT>"), captured.err):
        h.update(f"{len(part)}:{part}".encode())
    if "<OUT>" in argv:
        for suffix in (".samples.csv", ".summary.csv", ".svg"):
            path = Path(prefix + suffix)
            text = path.read_text(encoding="utf-8") if path.exists() else "<missing>"
            h.update(f"{suffix}:{len(text)}:{text}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_cli_bytes(argv, tmp_path, capsys):
    assert _digest(argv, tmp_path, capsys) == GOLDEN[argv]
