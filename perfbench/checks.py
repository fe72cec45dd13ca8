"""Output checks for the benchmark's CLI invocations.

Every invocation must exit with its expected code and pass a semantic check
that holds at every verify seed. Invocations listed in DIGESTS must also
reproduce the recorded stdout byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import re

DEFAULT_SEED = 20260809

# sha256 of stdout, recorded from the commit that introduced the benchmark.
DIGESTS = {
    "verify --suite all --n 2 --seed 20260809":
        "fd63b73f884e01b455f706531f3013064a2078bb30ac4e2bb4743f0f826f283a",
    "verify --suite axioms --n 4 --seed 20260809":
        "3fe5d74692f3b81985b914cef2aab51257b412baa7e17872333853192d524d5b",
    "free-size --method all --n 1":
        "d307546bb621fd1cf51c49f5b31b1135e7ebc532122e74a55a675a0a037a38ed",
    "free-size --method all --n 2":
        "b7c416fe389feee64a7a47ca8056757290e4e6b84cbb5ce5dc8876feb4014840",
    "free-size --method downsets --n 3":
        "722180d28b1da0028000fdd042346560873e45c0eccb309812a9b8cf26f6a915",
    "free-size --method downsets --n 4":
        "20570ee698e24e8a5c898b893c12c39d89dade60b7137872710e08cedf3ce5db",
    "free-size --method downsets --n 5":
        "d38f7a4757a85a8c8e203f5ca10f978730a7fdb5260dbe21c1b4c9eb2408a3ee",
    "free-size --method downsets --n 6":
        "50c2d829c8ff75b9375e6a88ac3ce9143e794c617c3dedc704390a8ec9beba70",
    "free-size --method downsets --n 7":
        "e6316d0a27ee1203dd9eca18bf972413c9cc87475ce004708c4de4c4cfe6fca1",
    "build dual --n 1 --in perfbench/_work/F1.json":
        "2bd8d3b4e9c4407ec2ba772751142a3b1e05f1dcd157ddd0ab5907a0399b0b89",
    "build carrier-space --n 1 --in perfbench/_work/F1.json":
        "0e0f033f93f99ea34743a50b549503718e5b680a06ee57e7f054fef413e555f3",
}

# sha256 of the interchange form of F_V1(1), the input of the build workload.
F1_SHA256 = "9eebbce8e5f0b541934120a0c0a60d2a9904f1bf68d8b9f42337b0dd6fa63946"

def closed_form(n: int) -> tuple[int, int, int]:
    """(top-avoiding, top-meeting, total) down-set counts of P(M~n): 266 at n=1, 1434 at n=2."""
    f4 = n**6 + 10 * n**5 + 41 * n**4 + 96 * n**3 + 148 * n**2 + 148 * n + 144
    g4 = n**6 + 10 * n**5 + 43 * n**4 + 108 * n**3 + 166 * n**2 + 148 * n
    return f4 // 4, g4 // 4, (f4 + g4) // 4


def _check_verify(argv: list[str], out: str) -> str | None:
    suite, n, seed = _flag(argv, "--suite"), _flag(argv, "--n"), _flag(argv, "--seed")
    lines = out.splitlines()
    if not lines or lines[0] != f"suite {suite} (n={n}, seed={seed})":
        return "verify: unexpected header"
    if lines[-1] != "overall: pass":
        return "verify: overall is not pass"
    failing = [line for line in lines if line.startswith("  FAIL")]
    if failing:
        return f"verify: {failing[0].strip()}"
    return None


_FREE_LINE = re.compile(r"n=(\d+)  f=(\d+)  g=(\d+)  total=(\d+)"
                        r"(?:  counted=(\d+)/(\d+)/(\d+))?(?:  generated=(\d+))?  (\S+)$")


def _check_free_size(argv: list[str], out: str) -> str | None:
    n, method = int(_flag(argv, "--n")), _flag(argv, "--method")
    lines = out.splitlines()
    if len(lines) != 1:
        return "free-size: expected one line and no notes"
    m = _FREE_LINE.match(lines[0])
    if not m:
        return "free-size: unparsable line"
    got_n, f, g, total, cf, cg, ct, generated, verdict = m.groups()
    want = closed_form(n)
    if int(got_n) != n or (int(f), int(g), int(total)) != want:
        return f"free-size: formula row {f}/{g}/{total} is not the closed form {want}"
    if method in ("downsets", "all"):
        if ct is None or (int(cf), int(cg), int(ct)) != want:
            return f"free-size: counted {cf}/{cg}/{ct} is not {want}"
    if method in ("generate", "all"):
        if generated is None or int(generated) != want[2]:
            return f"free-size: generated={generated} is not {want[2]}"
    if verdict != "agree":
        return f"free-size: verdict {verdict}"
    return None


def _check_build(argv: list[str], out: str) -> str | None:
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return "build: stdout is not JSON"
    kind = argv[1]
    if kind == "dual":
        sizes = [len(s) for s in doc.get("sorts", [])]
        if sizes != [4, 6]:
            return f"build dual: sort sizes {sizes} are not [4, 6]"
    elif kind == "carrier-space":
        points = doc.get("elements", [])
        if len(points) != 20:
            return f"build carrier-space: {len(points)} points, not 20"
        if not all([i, i] in doc.get("leq_pairs", []) for i in range(20)):
            return "build carrier-space: order is not reflexive"
    return None


_SEMANTIC = {"verify": _check_verify, "free-size": _check_free_size, "build": _check_build}


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def check_output(argv: list[str], returncode: int | None, out: str,
                 expected_code: int = 0) -> str | None:
    """None when the invocation's exit code and stdout are right, else the reason."""
    if returncode != expected_code:
        return f"exit code {returncode}, expected {expected_code}"
    reason = _SEMANTIC[argv[0]](argv, out)
    if reason:
        return reason
    want = DIGESTS.get(" ".join(argv))
    if want is not None and hashlib.sha256(out.encode()).hexdigest() != want:
        return "stdout differs from the recorded digest"
    return None
