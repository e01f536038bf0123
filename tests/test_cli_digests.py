"""Moment commands print byte-identical output across the pinned sweep.

Each digest is sha256 over, for every format and digit count in turn, the
line "<format> <digits> <exit code>" followed by the command's stdout.  The
digests were taken from the Fraction implementation that MomentGrid
replaced (see CHANGES.md), by running this same sweep.  The sweep includes
the degenerate child set {0,2} (no trees at even n, zero variance at odd n)
and n = 1, which print "-" cells or exit 2.
"""

import contextlib
import hashlib
import io

import pytest

from treemoments.cli import main

PAIRS = {"0,1,2": (0, 1), "0,1,2,3": (1, 3), "0,2": (0, 2), "0,1,5": (1, 5), "0,2,3": (2, 3)}
FORMATS = ("text", "csv", "json")
DIGITS = (0, 1, 5, 30, 80)
COMMANDS = {
    "moments": "moments -S {s} -n {n} --s1 {a} --s2 {b} --max-p 3,3",
    "normal-compare": "normal-compare -S {s} -n {n} --s1 {a} --s2 {b} --max-p 3,3",
    "scaled": "scaled -S {s} -n {n} --s1 {a} --s2 {b} --p 3,2",
}

DIGESTS = {
    ("moments", "0,1,2", 1):
        "5e8b6fc3c668ffb8deb7103bd8d60b87b948a7c31c672103ce84d9128ec97195",
    ("moments", "0,1,2", 2):
        "6549cb7fb3312ba7db19a587e5b09b6c17a9e5305e7ec96a65b29ffeee8e10fa",
    ("moments", "0,1,2", 5):
        "fa9ebe801da94e86d21c9bf0ddb347754e3660546a51b7266e70ca6b765bfcd0",
    ("moments", "0,1,2", 13):
        "2dc922001ac0ad76787e922f2047e45af9c19a81b6073660bbf7c2b8f356b466",
    ("moments", "0,1,2", 61):
        "8a93c8de6a81cb126d2dc476523863ae9c887fc1fae542b2a876e49e8efbea3e",
    ("moments", "0,1,2,3", 1):
        "c94a107c1bfcd7a03877f4408c018e5e1b0c6046bdb0e3df06fd706787a6d8a9",
    ("moments", "0,1,2,3", 2):
        "5e8b6fc3c668ffb8deb7103bd8d60b87b948a7c31c672103ce84d9128ec97195",
    ("moments", "0,1,2,3", 5):
        "ca984b587ebaa6b52f5e7802128827cf544c3e5b2c523d9df08834e02c799aba",
    ("moments", "0,1,2,3", 13):
        "09b139220efcc7156484cb23586a9977a4371d1f63a8e32b6b9d919f86a2bec6",
    ("moments", "0,1,2,3", 61):
        "67cd49c75380f0b3bb6daeb05a4c5a0dd3d45d2efa503fb1267d08fa3aba0efe",
    ("moments", "0,2", 1):
        "5e8b6fc3c668ffb8deb7103bd8d60b87b948a7c31c672103ce84d9128ec97195",
    ("moments", "0,2", 2):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("moments", "0,2", 5):
        "6afe405df5526f8d788c1dbaf7d8bcddf1f3900d6e0e742f2ebc860bd018dc0d",
    ("moments", "0,2", 13):
        "e4765fc45b1ee753cfb936c529ed60b57ae83182165a3dc8282f9d84d5d9566e",
    ("moments", "0,2", 61):
        "ba14c3e858044f35b72a0fc9b3d00309b73ecc3b225f5979c3d33793e7e8e11f",
    ("moments", "0,1,5", 1):
        "c94a107c1bfcd7a03877f4408c018e5e1b0c6046bdb0e3df06fd706787a6d8a9",
    ("moments", "0,1,5", 2):
        "5e8b6fc3c668ffb8deb7103bd8d60b87b948a7c31c672103ce84d9128ec97195",
    ("moments", "0,1,5", 5):
        "c3843e787660826603deea1e8ed0be003f87e09f39e15c50fac6363642328076",
    ("moments", "0,1,5", 13):
        "34f0711ac6880d0b823fdf5873df975b06f0153c27e53656eb1e22af37671839",
    ("moments", "0,1,5", 61):
        "6abf525a8e9c998b8f1bd3aa8828116ce7fbc8486eb0d3505c34799ebb1d0923",
    ("moments", "0,2,3", 1):
        "c94a107c1bfcd7a03877f4408c018e5e1b0c6046bdb0e3df06fd706787a6d8a9",
    ("moments", "0,2,3", 2):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("moments", "0,2,3", 5):
        "97b339357fe807167f0e050f3059fe333e7c82edbda1306e74f57a78f0621861",
    ("moments", "0,2,3", 13):
        "ec171aa112119e5322ac06fe2ec7f51c026027e6d698fa1e2531138a88185d2c",
    ("moments", "0,2,3", 61):
        "fff296c07631860daf8db6678d52fdf879e2f855932585703c86b7df7f4f7510",
    ("normal-compare", "0,1,2", 1):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("normal-compare", "0,1,2", 2):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("normal-compare", "0,1,2", 5):
        "a9dc77e45a3efd5d6da8526ea111cffc7c685e2825dbe077ea881271514fe6ae",
    ("normal-compare", "0,1,2", 13):
        "506ac97702c613ab1e05068ce936c8a864f9cb7caca9c88553835dab4074fd57",
    ("normal-compare", "0,1,2", 61):
        "24afc6220502483676bd08acf799aa2aeb10732e9a49476ebbe78afe697f8ecd",
    ("normal-compare", "0,1,2,3", 1):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("normal-compare", "0,1,2,3", 2):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("normal-compare", "0,1,2,3", 5):
        "bf635cbc79e8e8a296f4ee288e856cc05c43a6cb16d037ccfd1f199fb261457d",
    ("normal-compare", "0,1,2,3", 13):
        "dc58239ff2a7e98d4e9c882f4272989c8a9a428709225ec211312712cf557dbb",
    ("normal-compare", "0,1,2,3", 61):
        "62f04b1a5b033e797cdc59c512dc893cb927d80075b68bc4048c21c5bab7252d",
    ("normal-compare", "0,2", 1):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("normal-compare", "0,2", 2):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("normal-compare", "0,2", 5):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("normal-compare", "0,2", 13):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("normal-compare", "0,2", 61):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("normal-compare", "0,1,5", 1):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("normal-compare", "0,1,5", 2):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("normal-compare", "0,1,5", 5):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("normal-compare", "0,1,5", 13):
        "4ea1e8b970697e3ea12b7f90a25bf8c0417808d048ead720452bd0c7c47337b7",
    ("normal-compare", "0,1,5", 61):
        "0bac959e5051bed0e55659394fd9da5fa49f019aa7e75914825fb2eb937fd23d",
    ("normal-compare", "0,2,3", 1):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("normal-compare", "0,2,3", 2):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("normal-compare", "0,2,3", 5):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("normal-compare", "0,2,3", 13):
        "f5128c16a450f574c77ae8e1e7a16ae28b48bb9dc7ce39c48d92c30582d13633",
    ("normal-compare", "0,2,3", 61):
        "f43f34302c523e6201789b9995d237f6740544fadf33ced16aae2bdd1806ea3c",
    ("scaled", "0,1,2", 1):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("scaled", "0,1,2", 2):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("scaled", "0,1,2", 5):
        "b997f715b48d2020602a5eece034e89f09010e307b2c2f426daee0a10876a8c8",
    ("scaled", "0,1,2", 13):
        "4dc6973421080c821c407d6c9c8399db00a7c26523e836c0306c7055652d1151",
    ("scaled", "0,1,2", 61):
        "86783259abe61db1d3def1a42f78f9333513005232efaf2769c9e7f88bebef4f",
    ("scaled", "0,1,2,3", 1):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("scaled", "0,1,2,3", 2):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("scaled", "0,1,2,3", 5):
        "a8dc9af2c4cc1a1fc39d082d295fd48c22b85839fb7a38682394b76058ecd654",
    ("scaled", "0,1,2,3", 13):
        "9663574f84d396232970107dfc6441d0bc8cd05a8d247c5b3d47bf9d7a65aab0",
    ("scaled", "0,1,2,3", 61):
        "494218cd334bd98c123eff502f5fc3456e40f2b8292f7351e3eabb1a760d045f",
    ("scaled", "0,2", 1):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("scaled", "0,2", 2):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("scaled", "0,2", 5):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("scaled", "0,2", 13):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("scaled", "0,2", 61):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("scaled", "0,1,5", 1):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("scaled", "0,1,5", 2):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("scaled", "0,1,5", 5):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("scaled", "0,1,5", 13):
        "a7ad31f34b0988ae497bf537d8f8ee4dab9708cfa52480267211a5bd6a8ee660",
    ("scaled", "0,1,5", 61):
        "31881b171440596cf9d5d12f12a3ebc117f001a2583be402d07600ea5a16ecf2",
    ("scaled", "0,2,3", 1):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("scaled", "0,2,3", 2):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("scaled", "0,2,3", 5):
        "e921f246cf4d98bb7d53f6f2b76d079041e1ca770196f1a33dea2d6ee3ac14e5",
    ("scaled", "0,2,3", 13):
        "b4a8cd215f370e5b523a6238b5f481f1b4fa15210f915a43e23f6bbbaaa19ecb",
    ("scaled", "0,2,3", 61):
        "d4f8b9484b6c535de740cfb70f5c2cdac60dd3604b33bb7890416000120ca565",
}


@pytest.mark.parametrize("command, child_set, n", sorted(DIGESTS))
def test_stdout_and_exit_codes_are_pinned(command, child_set, n):
    a, b = PAIRS[child_set]
    digest = hashlib.sha256()
    for fmt in FORMATS:
        for digits in DIGITS:
            argv = COMMANDS[command].format(s=child_set, n=n, a=a, b=b).split()
            argv += ["--format", fmt, "--digits", str(digits)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            digest.update(f"{fmt} {digits} {code}\n{out.getvalue()}".encode())
    assert digest.hexdigest() == DIGESTS[(command, child_set, n)]


# stdout sha256 of inputs around the power kernel's leaps over whole blocks
# below min_deg, taken before the leaps existed.  Leaps run in `count` at
# {0,1,2} n=5000, {0,2} n=12001, {0,1,2,3} n=8000 and {0,1} n=3000 and in
# both `numerator` pins; {0,2} n=3001 and the `moments` pin hold too few bits
# to leap, and {0,1,5} has deg(phi) 5, so those three pin the per-step loop.
BLOCKED_DIGESTS = {
    "count -S 0,1,2 -n 5000":
        "8509b2014d19cf014834a375d0d10a7aac16358a1e807c985182ba7aea7d1aa5",
    "count -S 0,1,5 -n 4001":
        "df85899f920a2f801f33d1ed5273d597405cddecc31daf17b996e3fae9249be3",
    "count -S 0,2 -n 3001":
        "b176028f5c4f72868a2e537d21295d29fce1444193dac18950d47c1d1369b58c",
    "numerator -S 0,1,2 -n 3000 --s1 0 --s2 1 --p 3,3":
        "a73bbf02c845d63d526f094dc8dd51e32892d8d9035047d14b19bf24bcaed4b1",
    "moments -S 0,1,2,3 -n 1500 --s1 1 --s2 3 --max-p 2,2":
        "098a238b14fa6f607bd3d4b2eb5694bd6ab64ec92f0217323a07aaed39c7eabf",
    "count -S 0,2 -n 12001":
        "9b087f2185326129bcd230b326e1829b3c626e5a1fe921754f1b69ae4cb10115",
    "count -S 0,1,2,3 -n 8000":
        "a243c36ec175ac87afd74b4c1bbaa318100eb285a830c70911334ccf523f0e48",
    "count -S 0,1 -n 3000":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "numerator -S 0,1,2,3 -n 9000 --s1 1 --s2 3 --p 1,1":
        "17ccd09eb6e0cff4fef5264ba25ece33c57a38045ec8e134dc172db08b0436a0",
}


@pytest.mark.parametrize("command", sorted(BLOCKED_DIGESTS))
def test_blocked_power_kernel_output_is_pinned(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == BLOCKED_DIGESTS[command]
