"""Golden output digests of the toy experiments and of the headline run.

With a fixed seed the CLI output is meant to stay byte-identical as the
code changes.  The determinism tests compare two runs of the same code;
these digests pin the bytes themselves: SHA-256 of the check lines on
stdout followed by the CSV written with --no-timestamp.  The toy digests
use default settings, for every toy experiment; the headline digest is
vacuum-divergence at K=4 on the cutoff-40, 2-panel, order-6 grid, and three
more pin it at m = 0, 0.1 and 10 on smaller grids.  They
were recorded with the numpy and scipy versions below; other versions may
round differently, so the tests are skipped there.  A failing assertion
names the digest it got, ready to be copied in after a deliberate
re-record.
"""

import hashlib

import numpy as np
import pytest
import scipy

from fockcharge import cli

RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

SEEDS = (0, 1, 2, 2024)

DIGESTS = {
    "car-check": (
        "fd7c7cc9542d444039552f7147dccb131ef6c18c104f465c6833ccc8699e5a45",  # seed 0
        "e5439db0b156adec0faaac67d1b83c96303d3c440d93b8f0e7a91069b9e900ea",  # seed 1
        "bd91299eaa4485182c2ed43e42d8703b729e3cc9fe4c05c9dca1b63d50229d11",  # seed 2
        "f3214e49babaa4d59a738ac15ea957fbb1adfd5303db9f0d16e7a21cb1516eb6",  # seed 2024
    ),
    "spectrum": (
        "8843e01962e773c326c59d3c79b7302ed565a3c28aed258884f9ca27f13b0c1a",  # seed 0
        "0d45e32ccff0a9839869b9eb8527ccf1b309ef220b982ed61171033257598660",  # seed 1
        "389219a1af0939d557c7a100e81da5cc9e9a2a919fd795d9bede4e9fb6144fa8",  # seed 2
        "a3173c8887be6ae100b89820298a45c06d71e67f19786d62cff928e612d8b51f",  # seed 2024
    ),
    "additivity": (
        "95e7ae516c3b9c9dfe1c0632f7dda6a60afccc48102a8a4d108b3c8acce0b9f3",  # seed 0
        "5536052b7bf6206159da27f6322b2bd565df01833d5fda1d05470ea12b74768c",  # seed 1
        "7486256ff47f36cb4151d6708214072a94d637cdc2952da81d736784aa80bc91",  # seed 2
        "80466a2b161df2df8aa741b7557d1a73aceeacffba86dfe73e9737fb369e6061",  # seed 2024
    ),
    "cbasis": (
        "33b51626134ac37b2789c7eeb5fbc6ec2e6084d98eef21a16e197c1193d89e06",  # seed 0
        "ed4110438f716db2027309d2f3ec9d734728eeb677788218476628da6968bb66",  # seed 1
        "458b422dbbbe9418b38d9ddad0a81c83fa65880255a42b42e2d2095dcdc67e26",  # seed 2
        "c1e221d1fad0c8012ef4f515930eb26f6bd798f8595cbbf84b8c8abd42af515b",  # seed 2024
    ),
    "qtilde": (
        "8fe38837ff35454f62c85dfcbd37e022f0b9aef6f39fd9a7aab939788a3dc456",  # seed 0
        "1799cf40f3ed9f816fdfc1b3eac172d69be6dbbec625a19f9ba55e5d946e1c36",  # seed 1
        "0c14817d07f888629af70929f3ef826ae18105b8cba50a3cfdcda2318917e355",  # seed 2
        "d34d2a370ceee1f51f9d2c18c6620389b346c88d95c95b24ab8caccb1942d907",  # seed 2024
    ),
    "weighted": (
        "918061834553304dd387630c0b95277fba8bbc1c8ef9d7836bd0dfea58380d84",  # seed 0
        "5a05f36cfe6a90146ea2083a54b82bce9dfcbcc0263d3eab03d6b022f05290df",  # seed 1
        "73f6b17d9b5977af81942bb04c29a322661925dceeec277e8b62d7162189f539",  # seed 2
        "73f6b17d9b5977af81942bb04c29a322661925dceeec277e8b62d7162189f539",  # seed 2024
    ),
    "total-charge": (
        "9a39fbf46ccc81021df1aa634a462fcecabfb81fcd3985ec13449baa9f6991f1",  # seed 0
        "095677ed57b76b0d4850a74f0fb3049b8c31b3243b68b322ecbb755d00049ecd",  # seed 1
        "f7c043630dcd16327335e35e8384e5a386e8f525b34d14c3374b93bc1726bb1d",  # seed 2
        "22e0bb04877e00362dcb2e76778504afc3894211de7ba81e7dfff03fc562647a",  # seed 2024
    ),
    "aligned": (
        "88dd86fb2de1ae0fa72fce6f856d9ed104a7ebb9344baddf49619fb7d8b214b0",  # seed 0
        "d21e7e9a803f1f1a55a6071aba179d09931b19f7af6b2a967d58fc2e1e813b75",  # seed 1
        "8545767091c6d1d6e4d33650f56341a2763084000623850806a28534627d9651",  # seed 2
        "0a1351424271aa7eec07dc68853fe0ec9bd25b66a4f2d0aec46e7d8ae580d704",  # seed 2024
    ),
    "bessel-check": (
        "935e0150d01b6c61def214fff6e19e912ffc62ce26a14752765436b56aabe2cb",  # seed 0
        "935e0150d01b6c61def214fff6e19e912ffc62ce26a14752765436b56aabe2cb",  # seed 1
        "935e0150d01b6c61def214fff6e19e912ffc62ce26a14752765436b56aabe2cb",  # seed 2
        "935e0150d01b6c61def214fff6e19e912ffc62ce26a14752765436b56aabe2cb",  # seed 2024
    ),
    "decomposition": (
        "d87624fe6e443c29f85c354627188c803dbccf5f76e4980e5617b04d835d45cc",  # seed 0
        "f851e38b1f4b93497b3ca388c184727810e91514eda3e9cb8c8f20c619acb2d8",  # seed 1
        "20ced7983b3b484739024a38cf6c2c891b8f30d892c8bf471f7e67b0ce44f523",  # seed 2
        "c9c1137b2056028690f948be10ee94df770973fe6ae6672226ce4d8fd21f934e",  # seed 2024
    ),
    "oracle-equivalence": (
        "ea4c6d51b85631e60fb99cb252b8f42ebfe959015c530ed0bb3620cb98a84aec",  # seed 0
        "8cb851fb7cb19d56eee51fe933ce7c22030c8581b459854ff209e6bc18193034",  # seed 1
        "f9e1f2fba9f814f91247223311052c2d0d5680f420501c1a105f129c1ee3c377",  # seed 2
        "e17c233c8633491d3c355b15484ae1dfec966724efe2c7dd641e255055b1fc4e",  # seed 2024
    ),
}


HEADLINE_ARGV = ["vacuum-divergence", "--m", "1", "--shells", "4", "--cutoff", "40",
                 "--panels", "2", "--order", "6", "--no-timestamp"]
HEADLINE_DIGEST = "17dd17aaa26f1f92cb41398f6ad87b1ea2436e183b8670d1099278775e659fe2"

# vacuum-divergence at the ends of the mass range and on small, non-default
# grids: m = 0 drops the mass term, m = 10 weights it most
SMALL_GRID_DIGESTS = {
    ("--m", "0", "--shells", "3", "--cutoff", "20", "--panels", "1", "--order", "4"):
        "c6a163e27cf5b4a3a3dc744b3087ac4a14508fa8a8f51b4f589db9f939ee1d8e",
    ("--m", "0.1", "--shells", "2", "--cutoff", "12", "--panels", "1", "--order", "4"):
        "31a304acc072e7307ee24f5a60d63ce841fd4254f4315405f69c2b267d7cd103",
    ("--m", "10", "--shells", "5", "--cutoff", "20"):
        "e9488e5cc996cd401ed80d2833fb27802d3036c594511cd2755371cf5f41921b",
}

recorded_versions_only = pytest.mark.skipif(
    (np.__version__, scipy.__version__) != (RECORDED_WITH["numpy"], RECORDED_WITH["scipy"]),
    reason=f"digests recorded with numpy {RECORDED_WITH['numpy']} and scipy "
           f"{RECORDED_WITH['scipy']}; floating-point bytes may differ under "
           f"numpy {np.__version__} / scipy {scipy.__version__}")


def output_digest(argv, path, capsys):
    """SHA-256 of the check lines and the CSV of one successful run."""
    code = cli.main(argv + ["--output", str(path)])
    stdout = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(stdout.encode() + path.read_bytes()).hexdigest()


@recorded_versions_only
@pytest.mark.parametrize("experiment", sorted(DIGESTS))
def test_toy_output_bytes_match_golden_digests(experiment, tmp_path, capsys):
    for seed, expected in zip(SEEDS, DIGESTS[experiment]):
        digest = output_digest([experiment, "--seed", str(seed), "--no-timestamp"],
                               tmp_path / "out.csv", capsys)
        assert digest == expected, f"{experiment} at seed {seed}: got {digest}"


@recorded_versions_only
def test_headline_output_bytes_match_golden_digest(tmp_path, capsys):
    digest = output_digest(HEADLINE_ARGV, tmp_path / "headline.csv", capsys)
    assert digest == HEADLINE_DIGEST, f"vacuum-divergence at K=4: got {digest}"


@recorded_versions_only
@pytest.mark.parametrize("args", sorted(SMALL_GRID_DIGESTS), ids=lambda a: f"m={a[1]}")
def test_small_grid_output_bytes_match_golden_digests(args, tmp_path, capsys):
    argv = ["vacuum-divergence", *args, "--no-timestamp"]
    digest = output_digest(argv, tmp_path / "small.csv", capsys)
    assert digest == SMALL_GRID_DIGESTS[args], f"{' '.join(args)}: got {digest}"
