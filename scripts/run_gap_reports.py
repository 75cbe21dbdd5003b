#!/usr/bin/env python3
"""Regenerate the measured-gap archive under reports/.

Runs the full battery — reverse fit gaps, half-block dominance gaps,
additivity defects, improvement slacks on the three family systems, plus
the planted-staircase verification — and writes deterministic JSON (no
timestamps, sorted keys), so a rerun on an unchanged tree is byte-identical.

Usage:
    python3 scripts/run_gap_reports.py [--out DIR]
        [--reverse-strings N] [--universal-strings N]
        [--improvement-strings N] [--full]

The induced enumeration is built once per system and each search stream
once per seed (and checked only then), half-blocks answer size and
membership from their index range, and the additivity census walks each
(set, member) pair once, so the per-string cost is the profile and
search work.  On a 2-core host with Python 3.11 the default run took
about 0.75 s and ``--full`` about 22 s, nearly all of it on the 12-bit
system.

``--full`` disables string sampling everywhere (exhaustive sweeps).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from structlab.experiments import generate_gap_reports


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "reports"),
        help="output directory (default: reports/ at the repository root)",
    )
    parser.add_argument("--reverse-strings", type=int, default=192)
    parser.add_argument("--universal-strings", type=int, default=32)
    parser.add_argument("--improvement-strings", type=int, default=16)
    parser.add_argument(
        "--full",
        action="store_true",
        help="sweep every string instead of sampling (slow on 12-bit systems)",
    )
    args = parser.parse_args()

    result = generate_gap_reports(
        args.out,
        reverse_strings=None if args.full else args.reverse_strings,
        universal_strings=None if args.full else args.universal_strings,
        improvement_strings=None if args.full else args.improvement_strings,
    )
    for name in result["files"]:
        print(f"wrote {Path(result['out_dir']) / name}")
    for section, secs in sorted(result["seconds"].items()):
        print(f"  {section}: {secs:.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
