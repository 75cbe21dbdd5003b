"""The three benchmark workloads and their untimed output checks.

Each workload has ``setup()`` (timed as ``setup_s``: building what the
pass consumes), ``run(state, tracer)`` (timed as ``wall_s``: one pass to
an exact answer) and ``check(state, output, checks)`` (untimed).  Every
pass sets up afresh, so no pass inherits a cache from the one before.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from pathlib import Path

from structlab import cli, descsys, experiments, structfn

import generate

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: literal + cube + hamming + singletons at n = 12: 4,110 set programs,
#: sum of |S| = 12,288.
SWEEP_SYSTEM = """\
data  0    @family:literal(n=12)
set   0    @family:cube(n=12)
set   10   @family:hamming(n=12)
set   111  @family:singletons(n=12)
"""

#: Strings per run whose profiles are recomputed by the brute-force oracles.
ORACLE_SAMPLE = 3


class Checks:
    """Counts of output checks attempted and failed, with the failures named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def signature_digest(results) -> str:
    """sha256 over ``repr(signature())`` of every profile, in string order."""
    h = hashlib.sha256()
    for v, prof in sorted(results, key=lambda r: r[0]):
        h.update(f"{v}:{prof.signature()!r}\n".encode())
    return h.hexdigest()


def artifact_digest(out: Path) -> str:
    """sha256 over an output directory's files, minus ``manifest.json``
    (which echoes input paths)."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name == "manifest.json":
            continue
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# profile-sweep
# ---------------------------------------------------------------------------


class ProfileSweep:
    """``structfn.profile`` on all 4,096 strings of a freshly built n=12 system."""

    name = "profile-sweep"

    def __init__(self, seed: int, work: Path):
        rng = random.Random(seed)
        self.order = list(range(1 << 12))
        rng.shuffle(self.order)
        self.oracle_strings = rng.sample(self.order, ORACLE_SAMPLE)
        self.oracle_done = False

    def setup(self):
        return descsys.build_system(SWEEP_SYSTEM)

    def run(self, system, tracer):
        return [(v, structfn.profile(system, v)) for v in self.order]

    def check(self, system, results, checks: Checks) -> None:
        checks.expect(len(results) == 1 << 12, "profile-sweep: one profile per string")
        expected = load_expected()[self.name]["signature_sha256"]
        checks.expect(signature_digest(results) == expected, "profile-sweep: signature digest")
        if self.oracle_done:
            return
        self.oracle_done = True
        by_value = dict(results)
        for v in self.oracle_strings:
            checks.expect(
                oracle_agrees(system, v, by_value[v]), f"profile-sweep: oracle at {v}"
            )


def oracle_agrees(system, v: int, prof) -> bool:
    """Compare one profile with the brute-force recomputation in tests/oracles.py."""
    from tests import oracles

    h_rows, lam_rows, beta_rows = oracles.oracle_profile_arrays(system, v, prof.alpha_max)

    def picks(rows, key):
        return [None if r is None else (r[key], r["witness"]) for r in rows]

    def ours(rows, key):
        return [None if r is None else (key(r), r.witness_program) for r in rows]

    # oracle_c_sub scans every (set, member) pair against every data program,
    # far too slow at n = 12; the slack is the profile's own c_sub.
    suff = oracles.oracle_mss(system, v, lam_rows, prof.c_sub)
    return (
        prof.K_x == oracles.oracle_K_data(system, v)
        and picks(h_rows, "card") == ours(prof.h_rows, lambda r: r.cardinality)
        and picks(lam_rows, "lambda_key") == ours(prof.lambda_rows, lambda r: r.lambda_key)
        and picks(beta_rows, "delta_key") == ours(prof.beta_rows, lambda r: r.delta_key)
        and list(prof.critical_alphas) == oracles.oracle_critical_alphas(lam_rows)
        and (None if prof.sufficiency is None else prof.sufficiency.alpha) == suff
        and [(p.K_S, p.delta_key, p.lambda_key) for p in prof.pareto]
        == oracles.oracle_pareto_triples(system, v)
    )


# ---------------------------------------------------------------------------
# gap-battery
# ---------------------------------------------------------------------------


class GapBattery:
    """``experiments.generate_gap_reports`` with default parameters."""

    name = "gap-battery"

    def __init__(self, seed: int, work: Path):
        self.out = work / "gaps"
        self.reports = ROOT / "reports"
        self.sections: dict[str, list[float]] = {}

    def setup(self):
        return experiments.build_report_family_systems()

    def run(self, systems, tracer):
        out = _fresh(self.out)
        return experiments.generate_gap_reports(out, systems=systems)

    def check(self, systems, result, checks: Checks) -> None:
        for name, secs in result["seconds"].items():
            self.sections.setdefault(name, []).append(secs)
        written = sorted(p.name for p in self.out.iterdir())
        archived = sorted(p.name for p in self.reports.iterdir())
        checks.expect(written == archived, "gap-battery: same file names as reports/")
        for name in archived:
            ours = self.out / name
            checks.expect(
                ours.is_file() and ours.read_bytes() == (self.reports / name).read_bytes(),
                f"gap-battery: {name} byte-identical",
            )


# ---------------------------------------------------------------------------
# cli-suite
# ---------------------------------------------------------------------------


class CliSuite:
    """In-process ``structlab.cli.main`` over seeded input files."""

    name = "cli-suite"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.inputs = work / "cli-in"
        self.out = work / "cli-out"
        self.bytes_written = 0

    def setup(self):
        return generate.write_cli_inputs(self.seed, _fresh(self.inputs))

    def run(self, argvs, tracer):
        _fresh(self.out)
        codes = []
        for i, argv in enumerate(argvs):
            with tracer.span(f"cli.{argv[0]}"):
                try:
                    codes.append(cli.main(argv + ["--out", str(self.out / str(i))]))
                except SystemExit as exc:  # argparse refusal
                    codes.append(exc.code)
        return codes

    def check(self, argvs, codes, checks: Checks) -> None:
        self.bytes_written = sum(
            p.stat().st_size for p in self.out.rglob("*") if p.is_file()
        )
        expected = load_expected()[self.name][str(generate.variant_of(self.seed))]
        checks.expect(len(expected) == len(argvs), "cli-suite: one recorded digest per command")
        for i, (argv, code) in enumerate(zip(argvs, codes)):
            checks.expect(code == 0, f"cli-suite: {argv[0]} #{i} exit code {code}")
            digest = artifact_digest(self.out / str(i))
            checks.expect(
                i < len(expected) and digest == expected[i],
                f"cli-suite: {argv[0]} #{i} artifact digest",
            )


WORKLOADS = {w.name: w for w in (ProfileSweep, GapBattery, CliSuite)}
