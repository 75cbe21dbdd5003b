#!/usr/bin/env python3
"""Record the output digests the benchmark checks against.

Writes ``benchmark/expected.json``: the profile-sweep signature digest and,
for every cli-suite variant, one artifact digest per command.  Run it from
the repository root only when outputs change on purpose::

    python3 benchmark/record_expected.py
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json
import shutil
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent), str(HERE)]

import generate
import workloads
from tracer import Tracer


def main() -> int:
    work = HERE / ".work" / "record"
    sweep = workloads.ProfileSweep(0, work)
    expected = {
        "profile-sweep": {
            "signature_sha256": workloads.signature_digest(
                sweep.run(sweep.setup(), None)
            )
        },
        "cli-suite": {},
    }
    null = Tracer(())
    try:
        for variant in range(generate.CLI_VARIANTS):
            suite = workloads.CliSuite(variant, work)
            argvs = suite.setup()
            codes = suite.run(argvs, null)
            if any(codes):
                print(f"variant {variant}: exit codes {codes}", file=sys.stderr)
                return 1
            expected["cli-suite"][str(variant)] = [
                workloads.artifact_digest(suite.out / str(i)) for i in range(len(argvs))
            ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
