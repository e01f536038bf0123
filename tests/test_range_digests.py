"""Numerator and scaled ranges print byte-identical output across a pinned sweep.

Each digest is sha256 over, for every format in turn, the line
"<format> <exit code>" followed by the command's stdout and stderr.  The
digests were taken from the per-n path, which computed a fresh power of
phi at every n, by running this same sweep.  The sweep covers a range that
starts at n <= p1 + p2, a repeated statistic (s2 == s1), a sparse set, a set
with an element of lo or more, short ranges far from n = 1 (2*lo > hi + 1),
and scaled ranges that stop at a degenerate n (exit 2).
"""

import contextlib
import hashlib
import io

import pytest

from treemoments.cli import main

FORMATS = ("text", "csv", "json")

DIGESTS = {
    "numerator -S 0,1,2 -n 1..20 --s1 0 --s2 1 --p 2,2":
        "d2b84ad7c44d915b9397670af17221fa2bbbce2c00c97ab78afb4339758db418",
    "numerator -S 0,1,2,3 -n 2..30 --s1 1 --s2 1 --p 2,1":
        "61da496cd54c40c56f3975518bcdb380c1f5de2b9c5f5de67650aaa81dea2040",
    "numerator -S 0,2,3,5,7 -n 1..40 --s1 2 --s2 5 --p 2,1":
        "627eac146dc220a1526a982dbfbed86e64d5f6e38fc4d76320986c3ebdc22bb9",
    "numerator -S 0,1,12 -n 1..40 --s1 12 --p 3":
        "01cead01f558b21c78cb9e0cd060643e94d3c60f0b5bbc01080d11f9299605b6",
    "numerator -S 0,1,12 -n 1..30 --s1 0 --s2 12 --p 1,2":
        "8e5f4c64213f5b47def09b2be1b7cd2627e967baca259ee5689b099eda53e9ac",
    "numerator -S 0,1,2 -n 30..40 --s1 0 --p 2":
        "4e3bbfcda2c012489a4e366e861f95a981645e56141165a6a1ba306a0338a4b5",
    "numerator -S 0,1,2,3 -n 1..60 --s1 3 --s2 0 --p 0,0":
        "23595d0c64975601a8bda0b11072a06f6925ced53e47eef81452916d5ebabfd0",
    "scaled -S 0,1,2 -n 3..30 --s1 0 --s2 1 --p 2,2":
        "7abb9c12fa4d7c8010490551706ef1721b174b4d61e85ecd8e439cf28469c90a",
    "scaled -S 0,1,2,3 -n 3..30 --s1 1 --s2 1 --p 3,1":
        "9ee7772b362f3ca0be91dedf40f96c7c1b747b7aa2ee4c88db46765b65f9b845",
    "scaled -S 0,2,3,5,7 -n 8..40 --s1 0 --s2 2 --p 2,1":
        "f943c6f332fd888767c859c6031b11c70e26fbeaee7dabd301c473d383d0da63",
    "scaled -S 0,1,2,12 -n 3..40 --s1 0 --p 3":
        "b93109fe7fa411d05b97b6d472226660b41663f789afe4bc1bc4d6fd7ebcb954",
    "scaled -S 0,1,2 -n 40..50 --s1 0 --p 4":
        "24c06e05cfcadf5f30f60ae622f9a323b46637a6ed0d99513d1f7bd0e2ca0074",
    "scaled -S 0,2 -n 3..20 --s1 0 --p 2":
        "5f754e2ba49e42f94d83916f68356004c49b9f2e551ec0b44aad7ad9747bc462",
}


def sweep_digest(command):
    digest = hashlib.sha256()
    for fmt in FORMATS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command.split(), "--format", fmt])
        digest.update(f"{fmt} {code}\n{out.getvalue()}{err.getvalue()}".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_range_stdout_is_pinned(command):
    assert sweep_digest(command) == DIGESTS[command]
