"""Pinned outputs: the sha256 of stdout for the invocations a refactor promises to keep.

A change that alters one of these outputs on purpose re-records its digest here and
says why in CHANGES.md, so every output change is a visible diff.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from bilatdual.cli import main
from bilatdual.verify import DEFAULT_SEED

DIGESTS = {
    "verify --suite all --n 1":
        "ae7989de92806f65385520114ee6635ea9696df7f1970329b94d8d7063ab9be1",
    "verify --suite all --n 2":
        "fd63b73f884e01b455f706531f3013064a2078bb30ac4e2bb4743f0f826f283a",
    "verify --suite all --n 3":
        "a9d9d1e5ba282992e540124dda2757f409edbb02d299fd5075f5d392ec9749e1",
    "verify --suite all --n 4":
        "8775745df666517d363144c1d5aa69e65085bd3f5f4a142a31365ed891212196",
    "verify --suite all --n 5":
        "2ace445bb4f33bcfb75365285a42b008d85a1fec49a96b4bcaf681642bc923ae",
    "verify --suite all --n 8":
        "15e7415f18c3f8ebd62d26ff9dfb6fdf2e1c43663a68920fed2a65fb38bd8af2",
    "verify --suite duality --n 3":
        "25542d63153251456ce2066fa9bf5df529592aff12edca81957ef24661c72961",
    "verify --suite axioms --n 3":
        "85d181a569f9acd38a87ba550d292beb9c8f748e3f7dcb3800d83e93b7c024de",
    "verify --suite functors --n 3":
        "dad929bccc4f179e160b6a928169c83c34ae4185a90bdfc9126e6a888e22b967",
    "verify --suite translation --n 3":
        "5cb5a91890a072704506b5a95f38a8fe63cd92c4dc18ae3ea9c1dc4555dec7c0",
    "verify --suite piggyback --n 3":
        "6657f4ad8c7f69046a9d427ce7a40aac8aee4294974fb5829e38cba7b5eae555",
    "verify --suite tables --n 3":
        "a96259afea90690011067051832294f8f19e52279d0dc8345e43af4404333e89",
    "verify --suite axioms --n 4":
        "3fe5d74692f3b81985b914cef2aab51257b412baa7e17872333853192d524d5b",
    "verify --suite all --n 2 --format structured":
        "2f080d28945ba1b82ecb7320223d579cf5ef4e0d7f554b1dc61ef26675aa4f0b",
    "verify --suite all --n 2 --seed 5":
        "c828d206951c7fc9459a94ccabe25738d7a786a506c0455eacb5cb9369fa7330",
    "build alter-ego --n 1":
        "c27d6b773cab684b4b9a78e70d247e0c1a3e8d2bfc18193872ea760d4264773c",
    "build alter-ego --n 1 --dot":
        "4b294137fc762734e9c46dba56280d0664a015102ee87e503350cd1c4aa96150",
    "build alter-ego --n 2":
        "ff143baabf82ebbdb5cec9c8e70de06ee5a63a6c12318909f2e1b1bf5a68a858",
    "build alter-ego --n 2 --dot":
        "9a36dcb11c906dc6fb31d80f6f64933e60c0e784850880cbde360a0a3ad13e2e",
    "build alter-ego --n 3":
        "538605ac685b5315d97755cce665f914baeaf4e194c8bb6a7ba84494226b8e88",
    "build alter-ego --n 3 --dot":
        "bbf6370bd160464c540bff0bf491bcdc9a4ad710c5a726f4cef7895e0c050f9b",
    "build dual --n 1":
        "8b18533f89a2f20d82508804099d01aa5ff0a2e33ed516e5c7ec7e1ac66dff4e",
    "build dual --n 1 --dot":
        "ede0aa2361c0a163405fabfc7c0b0f869922f3191e643ac00d6be907d0c48e35",
    "build dual --n 2":
        "d47f970f3cd281f4df7869e424973ff5d617f3cf52bc26d3d1ddab4cd2f32e81",
    "build dual --n 2 --dot":
        "a85d7abb3f7f13a3c6c1616ace50a49d6e060dbef17b8aea184d26b3bce9c8fd",
    "build dual --n 3":
        "029c8e5f44e1aee8a377d564223df93eaaeb3776620b61b282cfefcb0b79a196",
    "build dual --n 3 --dot":
        "4a6de57590817db97b433979f85bebf85d1e8d88120edf77d79f145049dfff97",
    "build priestley --n 1":
        "13908129be9bb4a6517622419f651cd560751cc0c4c3d2475927a8293e01b096",
    "build priestley --n 1 --dot":
        "ea7a8f335839ff7013535cbf6bf265bfa7b90a9c08414fcc95e4e632597e6ed0",
    "build priestley --n 2":
        "597c3690a78184a5261cf3f45e09266b00e8164d5785617af9da1d50920cd462",
    "build priestley --n 2 --dot":
        "fd16fad7f0ea84faa23aaad16d8deeff1e2fd8dad6a103e3cacf28d5075fdcb7",
    "build priestley --n 3":
        "a804dbf876af49e811b78eb9cfbf5887d6e8da3f34cf0aa2c28efd36214d4848",
    "build priestley --n 3 --dot":
        "e135c8632ccc2c1d90ee28d7dcd45faa62d86b9a1d540a88cedc67d566142016",
    "build carrier-space --n 1":
        "2749692cac2ea22e2c33af731aa220e8a3e38335cb5471eb1d6f74f4799e1415",
    "build carrier-space --n 1 --dot":
        "d260a499bf3e3234b79c4fce356a33e9f79cd7263ced8f687a68433cd7610907",
    "build carrier-space --n 2":
        "3870d0be33b8c52479721fc109a8ca6cd17377160e169b5089ddac7577be8eeb",
    "build carrier-space --n 2 --dot":
        "ae79e672c413c51bb7c4332b6357760b10c0c7a09d64d7be9ccf4d738751875f",
    "build carrier-space --n 3":
        "3611d964c8151bc1f3975b8da46895f8165bcc9dab4e0131df09dedc2ed1bc0c",
    "build carrier-space --n 3 --dot":
        "804cf583f7dbc0e2f187a4e2b95db6a20eb751444e343d26f7d32bd9f4f3f847",
    "free-size --method all --n 1":
        "d307546bb621fd1cf51c49f5b31b1135e7ebc532122e74a55a675a0a037a38ed",
    "free-size --method all --n 2":
        "b7c416fe389feee64a7a47ca8056757290e4e6b84cbb5ce5dc8876feb4014840",
}


@pytest.mark.parametrize("invocation", DIGESTS)
def test_stdout_matches_its_pinned_digest(invocation, capsys):
    assert main(invocation.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[invocation]


def test_the_benchmark_pins_the_same_digests():
    """An invocation pinned here and in the benchmark's output checks has one digest in both."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    assert checks.DEFAULT_SEED == DEFAULT_SEED
    # the benchmark names the default seed, which the CLI leaves implicit
    bench = {argv.replace(f" --seed {DEFAULT_SEED}", ""): digest
             for argv, digest in checks.DIGESTS.items()}
    shared = bench.keys() & DIGESTS.keys()
    assert shared >= {"verify --suite all --n 2", "verify --suite axioms --n 4",
                      "free-size --method all --n 1", "free-size --method all --n 2"}
    assert {argv: bench[argv] for argv in shared} == {argv: DIGESTS[argv] for argv in shared}
