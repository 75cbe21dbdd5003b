#!/usr/bin/env python3
"""Regenerate the measured-gap archive under reports/.

Runs the full battery — reverse fit gaps, half-block dominance gaps,
additivity defects, improvement slacks on the three family systems, plus
the planted-staircase verification — and writes deterministic JSON (no
timestamps, sorted keys), so a rerun on an unchanged tree is byte-identical.

Usage:
    python3 scripts/run_gap_reports.py [--out DIR] [--full]

The sections sample the number of strings fixed in ``structlab.experiments``
(``SAMPLE_SIZES``); ``--full`` sweeps every string of every universe
instead.  The induced enumeration is built once per system, each system's
containing sets are filled for every string in one set-major pass, each
search stream is a seeded permutation of the system's program table
(only a stream built from an explicit order is checked) walked once for
all strings, half-blocks answer size and membership from their index
range, and the additivity census walks each (set, member) pair once, so
the per-string cost is the profile fold and the audit.  Each section
folds its samples into a running count, sum and pair of extremes instead
of keeping them, so memory does not grow with the number of strings, and
the archive is the same on Python 3.10 to 3.13.  On a shared 2-core host
with Python 3.11 the default run's sections took 0.20-0.26 s and
``--full`` 2.0-2.7 s end to end at 31 MB max RSS, nearly all of it on
the 12-bit system.
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
    parser.add_argument(
        "--full",
        action="store_true",
        help="sweep every string instead of sampling (slow on 12-bit systems)",
    )
    args = parser.parse_args()

    result = generate_gap_reports(args.out, full=args.full)
    for name in result["files"]:
        print(f"wrote {Path(result['out_dir']) / name}")
    for section, secs in sorted(result["seconds"].items()):
        print(f"  {section}: {secs:.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
