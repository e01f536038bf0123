"""`sample` prints byte-identical trees across the pinned sweep.

Each digest is sha256 over, for every format and seed in turn, the line
"<format> <seed> <exit code>" followed by the command's stdout.  The sweep
covers the cycle lemma at |S| <= 2, where {0} has a tree only at n = 1 and
{0,2} only at odd n, and both exit 2 elsewhere; at |S| = 3; at |S| = 4, where
{0,2,4,6} has trees only at odd n and exits 2 at even n; and the recursive
method (|S| >= 5), where {0,2,4,6,8} does the same.  The digests pin the
exact sequence of rng draws, not only the distribution, so a change to how a
choice is drawn shows here.
"""

import contextlib
import hashlib
import io

import pytest

from treemoments.cli import main

FORMATS = ("text", "csv", "json")
SEEDS = (1, 20261018)
COMMAND = "sample -S {s} -n {n} --count 4 --seed {seed} --format {fmt}"

DIGESTS = {
    ("0", 1):
        "f6c4ecf44aaab1e93fba6330b8a04d65b5bd61fdd0f0e6370bd0bfa86e6b0aca",
    ("0", 2):
        "31c03b40caa260aca08297bb9ed26f5d4bf87def05bd69f427e11e8d753363e6",
    ("0", 5):
        "31c03b40caa260aca08297bb9ed26f5d4bf87def05bd69f427e11e8d753363e6",
    ("0", 17):
        "31c03b40caa260aca08297bb9ed26f5d4bf87def05bd69f427e11e8d753363e6",
    ("0", 60):
        "31c03b40caa260aca08297bb9ed26f5d4bf87def05bd69f427e11e8d753363e6",
    ("0", 299):
        "31c03b40caa260aca08297bb9ed26f5d4bf87def05bd69f427e11e8d753363e6",
    ("0,1", 1):
        "f6c4ecf44aaab1e93fba6330b8a04d65b5bd61fdd0f0e6370bd0bfa86e6b0aca",
    ("0,1", 2):
        "a2e56863f48ece71d02bf60534520ff6af8265ac9916378ad926e91ea505dac3",
    ("0,1", 5):
        "f574b04b63ffc72bc785e77f59eed6cd4d474ff249b29c227e7663a87c7cee3b",
    ("0,1", 17):
        "d9616877702ce1116f09476ce9f3338e990752fa90c46a83eba32ccaf972a814",
    ("0,1", 60):
        "07983a898b31349011fd87d70c7b952bc02d1b1fb11d956f0db65457dce3bfd6",
    ("0,1", 299):
        "5d85e303dcf8c96a89175c6edfa06ebd096c39aedabaa044a8a599c77f8024ee",
    ("0,2", 1):
        "f6c4ecf44aaab1e93fba6330b8a04d65b5bd61fdd0f0e6370bd0bfa86e6b0aca",
    ("0,2", 2):
        "31c03b40caa260aca08297bb9ed26f5d4bf87def05bd69f427e11e8d753363e6",
    ("0,2", 5):
        "466b5dc864ada66e9bd0fca8545e5fef8b4506ab36f848e14d4e81e7c9dc66a8",
    ("0,2", 17):
        "06355c0157359a4172015c6d72494ca75b46c1c16989c1d683828e0ca8ddd4d7",
    ("0,2", 60):
        "31c03b40caa260aca08297bb9ed26f5d4bf87def05bd69f427e11e8d753363e6",
    ("0,2", 299):
        "39a3881609ca14684eba209bcb43d0f67068a18f4ed46aea99ab1bfb6a670ba1",
    ("0,1,2", 1):
        "f6c4ecf44aaab1e93fba6330b8a04d65b5bd61fdd0f0e6370bd0bfa86e6b0aca",
    ("0,1,2", 2):
        "a2e56863f48ece71d02bf60534520ff6af8265ac9916378ad926e91ea505dac3",
    ("0,1,2", 5):
        "8a6c85ef5953c8274d252eb682eb69a138402f5be2b21acc117aa85613fc3b45",
    ("0,1,2", 17):
        "4122031b801249e681c9810d33860038a1c6b5a72a18ab39901ef837f4ea54da",
    ("0,1,2", 60):
        "afffbb30a5937dd247e9f1084a4355162a8f8238b2f27d194e24658b7ef1fe9a",
    ("0,1,2", 299):
        "a2e363d3c99d9f4dc491ccbf88d3b6598d3cb803901d8f9d2461f20ee7be451e",
    ("0,1,2,3", 1):
        "f6c4ecf44aaab1e93fba6330b8a04d65b5bd61fdd0f0e6370bd0bfa86e6b0aca",
    ("0,1,2,3", 2):
        "a2e56863f48ece71d02bf60534520ff6af8265ac9916378ad926e91ea505dac3",
    ("0,1,2,3", 5):
        "d817eb0a046129deeb24fadf7c7a3c0d1f9004dd5c7c0eb304bb11661c9671fc",
    ("0,1,2,3", 17):
        "e9dafb431e9cd89285595be017048007134cc61d03af47c2e15b06e678dcdaaa",
    ("0,1,2,3", 60):
        "64f8e6a50163a418101ea64083c822df0a2e9a719aa4a01fb82d646ae6e4e130",
    ("0,1,2,3", 299):
        "be20d09b85a3e6cb50f782b5c8ae182f80b97d6c09a0e28d0b98463bc421cca2",
    ("0,1,2,5", 1):
        "f6c4ecf44aaab1e93fba6330b8a04d65b5bd61fdd0f0e6370bd0bfa86e6b0aca",
    ("0,1,2,5", 2):
        "a2e56863f48ece71d02bf60534520ff6af8265ac9916378ad926e91ea505dac3",
    ("0,1,2,5", 5):
        "8a6c85ef5953c8274d252eb682eb69a138402f5be2b21acc117aa85613fc3b45",
    ("0,1,2,5", 17):
        "5ddd5426eb603bb14f3843a7a7315f1585912cc06bc1d0b7069579958f700333",
    ("0,1,2,5", 60):
        "34855c5890ef29a6cee460d46e6be75ea99f7dbae60b223071d658a7f63a823c",
    ("0,1,2,5", 299):
        "3d2dfb7208420e3d64752449d99e000ea4f4c736d00a4c54dd9f10e2fe42feaf",
    ("0,2,3,5", 1):
        "f6c4ecf44aaab1e93fba6330b8a04d65b5bd61fdd0f0e6370bd0bfa86e6b0aca",
    ("0,2,3,5", 2):
        "31c03b40caa260aca08297bb9ed26f5d4bf87def05bd69f427e11e8d753363e6",
    ("0,2,3,5", 5):
        "466b5dc864ada66e9bd0fca8545e5fef8b4506ab36f848e14d4e81e7c9dc66a8",
    ("0,2,3,5", 17):
        "c44a40caf302b5507704ba3ab52500bc9ebc587543c2986fd0babfc64acc2669",
    ("0,2,3,5", 60):
        "fada23fe81b3390b0cc589a883766fde7211ac9ee2cdbf10f84ad705a86a0686",
    ("0,2,3,5", 299):
        "b22dd9f4ca1eb26064d2565a9eaaa63b9979387dbf2701bda7de10afd7cc7e4f",
    ("0,2,4,6", 1):
        "f6c4ecf44aaab1e93fba6330b8a04d65b5bd61fdd0f0e6370bd0bfa86e6b0aca",
    ("0,2,4,6", 2):
        "31c03b40caa260aca08297bb9ed26f5d4bf87def05bd69f427e11e8d753363e6",
    ("0,2,4,6", 5):
        "254c77a604c2407855fe7c2ac4eff79281213dc80a0092c4692c4d4392a2856c",
    ("0,2,4,6", 17):
        "c2630ceed62d067c4ae22ef55e649011dbcb4428de262af265330670be749c72",
    ("0,2,4,6", 60):
        "31c03b40caa260aca08297bb9ed26f5d4bf87def05bd69f427e11e8d753363e6",
    ("0,2,4,6", 299):
        "d6d9ff2dc235b25d257fc9aa5be53fff2e6fbd31d1b72cc043f9e41925486ac4",
    ("0,1,2,3,4", 1):
        "f6c4ecf44aaab1e93fba6330b8a04d65b5bd61fdd0f0e6370bd0bfa86e6b0aca",
    ("0,1,2,3,4", 2):
        "a2e56863f48ece71d02bf60534520ff6af8265ac9916378ad926e91ea505dac3",
    ("0,1,2,3,4", 5):
        "255d96e76d440065e4220cb63f0046186c6d4a58bb411e2f2d37619de78beb84",
    ("0,1,2,3,4", 17):
        "94c5f7e218e11e01bb1a82ea8741af4cd71baa4b461cb4d78d58029bcddaf884",
    ("0,1,2,3,4", 60):
        "1e1dc34d73a41abba68c6304f2ee429446a2d63223c67efeeb8f37a3bb3b92c9",
    ("0,1,2,3,4", 299):
        "80543eb989d502e2635737bebd0812ae06f9d16ccec8d35dc10cefd4cd44f280",
    ("0,2,3,5,7", 1):
        "f6c4ecf44aaab1e93fba6330b8a04d65b5bd61fdd0f0e6370bd0bfa86e6b0aca",
    ("0,2,3,5,7", 2):
        "31c03b40caa260aca08297bb9ed26f5d4bf87def05bd69f427e11e8d753363e6",
    ("0,2,3,5,7", 5):
        "ffe226a37480c1c6f2f17b19e1f810b4b55cee6b8042ee2da56851b15ad1b9f4",
    ("0,2,3,5,7", 17):
        "d34d81cfd3a8b62025d5a56d3d3b1004fc850fae40f2f5678a5d2b4650d66db0",
    ("0,2,3,5,7", 60):
        "abf3596df149f63cf60d941b912f86d20792f80470900d976dcf092cbc47c8c3",
    ("0,2,3,5,7", 299):
        "549a333d50c552be5dded4fbbff1b6046eaf45afaa76c314328f6b1efd323a38",
    ("0,2,4,6,8", 1):
        "f6c4ecf44aaab1e93fba6330b8a04d65b5bd61fdd0f0e6370bd0bfa86e6b0aca",
    ("0,2,4,6,8", 2):
        "31c03b40caa260aca08297bb9ed26f5d4bf87def05bd69f427e11e8d753363e6",
    ("0,2,4,6,8", 5):
        "5c676a6b279581ad7477f4aac506edb32c2e072323a92845916bf9f9e946cf93",
    ("0,2,4,6,8", 17):
        "cd52e86562a296c5873f5cd7f586a555b70a9974e13bfbc335f67913aafb09f3",
    ("0,2,4,6,8", 60):
        "31c03b40caa260aca08297bb9ed26f5d4bf87def05bd69f427e11e8d753363e6",
    ("0,2,4,6,8", 299):
        "8ce698991173b235b3c9d8bf4fff923225e2503c22f289cddbdac8528df30eb5",
    ("0,1,2,3,4,5", 1):
        "f6c4ecf44aaab1e93fba6330b8a04d65b5bd61fdd0f0e6370bd0bfa86e6b0aca",
    ("0,1,2,3,4,5", 2):
        "a2e56863f48ece71d02bf60534520ff6af8265ac9916378ad926e91ea505dac3",
    ("0,1,2,3,4,5", 5):
        "255d96e76d440065e4220cb63f0046186c6d4a58bb411e2f2d37619de78beb84",
    ("0,1,2,3,4,5", 17):
        "46615348d4fade6440289b352f998203d56a72345cb729000820954a1339fd57",
    ("0,1,2,3,4,5", 60):
        "ab091102cfddb88b83ad72cb210cadeb613b2c51abe1e974c71cb6dead2a871d",
    ("0,1,2,3,4,5", 299):
        "e9fb57b6ea6e8c054ae2cf0e1c0306e10d9c868e375478beb513ee26dcb632fb",
}


@pytest.mark.parametrize("child_set, n", sorted(DIGESTS))
def test_sample_stdout_is_pinned(child_set, n):
    digest = hashlib.sha256()
    for fmt in FORMATS:
        for seed in SEEDS:
            argv = COMMAND.format(s=child_set, n=n, seed=seed, fmt=fmt).split()
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            digest.update(f"{fmt} {seed} {code}\n{out.getvalue()}".encode())
    assert digest.hexdigest() == DIGESTS[(child_set, n)]


# sha256 of the text stdout alone, at the sizes perfbench's large-sample
# workload draws at: {0,1,2,3} at n = 800 keeps every 67th row of a run
# (stride above 1), so pick rebuilds rows between checkpoints.
LARGE_DIGESTS = {
    "sample -S 0,1,2 -n 2000 --count 3 --seed 1":
        "61dd4092d0170426f080d475d2ee057361c421bdeec7006962c7f2dd16164125",
    "sample -S 0,1,2,3 -n 800 --count 3 --seed 4":
        "b3e1178116ee511372154fbd5aab0a26d4510e1d516d4953ad2d0b20025da394",
    "sample -S 0,1,5 -n 1201 --count 3 --seed 0":
        "55cb7271408e9f5fbda701cdf0bb9a0a7aa6f520285a453838422162f0863683",
    # many runs whose first rows come from the run before
    "sample -S 0,2,3,5 -n 901 --count 3 --seed 2":
        "17f602498fec5e752cf4f2cb8fb9d60c8840571113a94996b57a7d2dc9f5d159",
    # a shuffle whose first block of one word width holds a single i
    "sample -S 0,1,2 -n 1024 --count 3 --seed 5":
        "6ae3ca0d515ea82c5c35dba05b5fdc6fbfca7497b745f95ca84cd86c00729587",
    "sample -S 0,1,2,3 -n 2048 --count 2 --seed 3":
        "37901b4fb19dbfc00689f2c53154ede8cc97cfdc657e5f212847e9d77094fe4a",
}


@pytest.mark.parametrize("command", sorted(LARGE_DIGESTS))
def test_large_sample_stdout_is_pinned(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == LARGE_DIGESTS[command]
