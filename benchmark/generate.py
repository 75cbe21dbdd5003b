"""Seeded inputs for the cli-suite workload.

Everything here is plain text generation with the standard library: the
program under test only ever sees the files :func:`write_cli_inputs`
writes.  The same seed always gives the same files.

The seed is folded onto ``CLI_VARIANTS`` variants so that the digest of
every artifact the suite produces can be recorded once (in
``expected.json``) and checked on every run.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

#: Number of distinct cli-suite input sets; a seed selects ``seed % CLI_VARIANTS``.
CLI_VARIANTS = 16

#: The set families of both cli-suite systems, each under its own tag.
SET_FAMILIES = ("cube", "hamming", "cylinders", "singletons", "patches")

#: Patch width per universe width: (5+1)**2 and (4+1)**2 patch vectors, so
#: the systems have 3,119 (n=10) and 802 (n=8) distinct programs.
PATCH_WIDTH = {10: 5, 8: 4}

#: Complete prefix codes with five codewords; a variant picks one.
_TAG_CODES = (
    ("0", "10", "110", "1110", "1111"),
    ("00", "01", "10", "110", "111"),
    ("0", "100", "101", "110", "111"),
    ("00", "010", "011", "10", "11"),
    ("000", "001", "01", "10", "11"),
)


def variant_of(seed: int) -> int:
    return seed % CLI_VARIANTS


def descriptor_text(n: int, rng: random.Random) -> str:
    """A bernoulli data namespace plus the five set families under seeded tags."""
    tags = list(rng.choice(_TAG_CODES))
    rng.shuffle(tags)
    lines = [f"data\t.\t@family:bernoulli(n={n})"]
    for tag, family in sorted(zip(tags, SET_FAMILIES)):
        args = f"n={n},m={PATCH_WIDTH[n]}" if family == "patches" else f"n={n}"
        lines.append(f"set\t{tag}\t@family:{family}({args})")
    return "\n".join(lines) + "\n"


def random_string(rng: random.Random, n: int) -> str:
    return format(rng.randrange(1 << n), f"0{n}b")


def synth_target(n: int, k: int, rng: random.Random) -> list[int]:
    """A non-increasing curve on [0, k] with target[0] <= n and target[k] == k."""
    inner = sorted((rng.randint(k, n) for _ in range(k)), reverse=True)
    return inner + [k]


def synth_stream(
    target: list[int], n: int, rng: random.Random
) -> list[tuple[int, list[int]]]:
    """Adversary events that respect both budgets of ``synthesize``.

    A level-j event removes at most ``2**(target[j]-j)`` elements, and the
    levels' weights ``2**-j`` sum to at most 1.  Budget is kept in units of
    ``2**-k`` so the bookkeeping is exact.  Level 0 would spend the whole
    budget at once, so levels start at 1.
    """
    k = len(target) - 1
    budget = 1 << k
    events = []
    while True:
        affordable = [j for j in range(1, k + 1) if (1 << (k - j)) <= budget]
        if not affordable:
            return events
        j = rng.choice(affordable)
        budget -= 1 << (k - j)
        size = rng.randint(1, 1 << (target[j] - j))
        events.append((j, sorted(rng.sample(range(1 << n), size))))


def cover_records(
    x: int, n: int, card: int, count: int, k: int, k_cond: int, rng: random.Random
) -> list[tuple[int, int, list[int]]]:
    """Distinct same-shape records: every set has ``card`` members, x among them."""
    others = [v for v in range(1 << n) if v != x]
    seen: set[tuple[int, ...]] = set()
    records = []
    while len(records) < count:
        members = tuple(sorted([x] + rng.sample(others, card - 1)))
        if members in seen:
            continue
        seen.add(members)
        records.append((k, k_cond, list(members)))
    return records


def pmf_lines(n: int, size: int, rng: random.Random) -> tuple[list[str], str]:
    """A rational pmf on ``size`` random n-bit strings and a string it supports."""
    support = sorted(rng.sample(range(1 << n), size))
    weights = [rng.randint(1, 9) for _ in support]
    total = sum(weights)
    lines = [
        f"{format(v, f'0{n}b')}\t{Fraction(w, total)}" for v, w in zip(support, weights)
    ]
    return lines, format(rng.choice(support), f"0{n}b")


def fn_lines(arg_len: int, width: int, rng: random.Random) -> tuple[list[str], str]:
    """A lookup table total on lengths 0..arg_len with width-bit values."""
    lines = []
    image = []
    for length in range(arg_len + 1):
        for v in range(1 << length):
            arg = format(v, f"0{length}b") if length else "."
            value = random_string(rng, width)
            image.append(value)
            lines.append(f"{arg}\t{value}")
    return lines, rng.choice(image)


def _bits(values, n: int) -> str:
    return ",".join(format(v, f"0{n}b") for v in values)


def write_cli_inputs(seed: int, root: Path) -> list[list[str]]:
    """Write one variant's input files under ``root``; return the argv list.

    Each argv is one ``structlab`` invocation without its ``--out``; the
    caller gives every invocation its own output directory.
    """
    rng = random.Random(variant_of(seed))
    root.mkdir(parents=True, exist_ok=True)

    def put(name: str, lines) -> str:
        path = root / name
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        return str(path)

    sys10 = str(root / "n10.tsv")
    (root / "n10.tsv").write_text(descriptor_text(10, rng), encoding="utf-8")
    sys8 = str(root / "n8.tsv")
    (root / "n8.tsv").write_text(descriptor_text(8, rng), encoding="utf-8")

    x10 = random_string(rng, 10)
    x8 = random_string(rng, 8)
    search_seeds = rng.sample(range(1000), 3)

    target = synth_target(10, 5, rng)
    stream = put(
        "synth.txt",
        (f"step {j} {_bits(members, 10)}" for j, members in synth_stream(target, 10, rng)),
    )

    xc = rng.randrange(1 << 8)
    records = put(
        "records.txt",
        (
            f"record {k} {kc} {_bits(members, 8)}"
            for k, kc, members in cover_records(xc, 8, 8, 48, 6, 3, rng)
        ),
    )

    members = _bits(sorted(rng.sample(range(1 << 6), rng.randint(3, 24))), 6)
    pmf, x_pmf = pmf_lines(8, 40, rng)
    fn, x_fn = fn_lines(5, 6, rng)
    pmf_path = put("model.pmf", pmf)
    fn_path = put("model.fn", fn)

    argvs = [
        ["profile", "--system", sys10, "--format", "json"],
        ["audit", "--system", sys10],
    ]
    argvs += [["search", "--system", sys10, "--x", x10, "--seed", str(s)] for s in search_seeds]
    argvs += [
        ["search", "--system", sys10, "--x", x10, "--seed", str(search_seeds[0]),
         "--mode", "direct"],
        ["unistat", "--system", sys8, "--x", x8, "--k", "16"],
        ["snoop", "--system", sys8, "--x", x8],
        ["synth", "--target", ",".join(map(str, target)), "--stream", stream, "--n", "10"],
        ["cover", "--records", records, "--x", format(xc, "08b"), "--delta", "1"],
        ["convert", "--mode", "expand-pmf", "--members", members],
        ["convert", "--mode", "expand-fn", "--members", members],
        ["convert", "--mode", "restrict-pmf", "--pmf", pmf_path, "--x", x_pmf],
        ["convert", "--mode", "restrict-fn", "--fn", fn_path, "--x", x_fn],
        ["nonstoch", "--n", "12", "--alpha0", str(rng.randint(2, 10)),
         "--beta-level", str(rng.randint(1, 12)), "--seed", str(rng.randrange(1000))],
    ]
    return argvs
