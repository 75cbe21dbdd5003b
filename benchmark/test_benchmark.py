"""Self-tests of the benchmark: generator validity, tracing and its arithmetic.

Run from the repository root with ``python3 -m pytest benchmark``.
"""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calibrate  # noqa: E402
import generate  # noqa: E402
import layers  # noqa: E402
from tracer import Target, Tracer, self_times, summarize  # noqa: E402


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_synth_stream_respects_both_budgets():
    for seed in range(50):
        rng = random.Random(seed)
        target = generate.synth_target(10, 5, rng)
        assert len(target) == 6 and target[-1] == 5 and target[0] <= 10
        assert all(a >= b for a, b in zip(target, target[1:]))
        events = generate.synth_stream(target, 10, rng)
        assert events
        assert sum(Fraction(1, 2**j) for j, _ in events) <= 1
        for level, members in events:
            assert 0 <= level < len(target)
            assert 1 <= len(members) <= 2 ** (target[level] - level)
            assert len(set(members)) == len(members)
            assert all(0 <= v < 1 << 10 for v in members)


def test_cover_records_share_one_shape_and_contain_x():
    rng = random.Random(7)
    records = generate.cover_records(19, 8, 8, 48, 6, 3, rng)
    assert len(records) == 48
    shapes = {(k, math.ceil(math.log2(len(m))), kc) for k, kc, m in records}
    assert shapes == {(6, 3, 3)}
    assert all(19 in m for _, _, m in records)
    assert len({tuple(m) for _, _, m in records}) == 48


def test_cli_inputs_depend_only_on_the_seed(tmp_path):
    first = generate.write_cli_inputs(3, tmp_path / "a")
    generate.write_cli_inputs(3 + generate.CLI_VARIANTS, tmp_path / "b")
    other = generate.write_cli_inputs(4, tmp_path / "c")

    def files(root):
        return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert files(tmp_path / "a") != files(tmp_path / "c")
    assert [a[0] for a in first] == [a[0] for a in other]


def test_descriptor_tags_are_a_complete_prefix_code():
    for code in generate._TAG_CODES:
        assert len(code) == len(generate.SET_FAMILIES)
        assert sum(2.0 ** -len(t) for t in code) == 1
        assert not any(a != b and b.startswith(a) for a in code for b in code)


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["child", 1.0, 5.0, 0],
        ["grandchild", 2.0, 3.0, 1],
        ["child", 6.0, 7.0, 0],
    ]
    assert self_times(spans) == [5.0, 3.0, 1.0, 1.0]


def test_self_time_merges_overlapping_and_clips_stray_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", -1.0, 2.0, 0],
        ["b", 1.0, 3.0, 0],
        ["c", 9.0, 12.0, 0],
    ]
    assert self_times(spans)[0] == 10.0 - 3.0 - 1.0


# ---------------------------------------------------------------------------
# host-speed meter
# ---------------------------------------------------------------------------


def test_meter_scales_each_stretch_by_its_slower_tick_and_skips_ticks():
    nominal = calibrate.NOMINAL_S
    meter = calibrate.Meter()
    # ticks of nominal, twice nominal and nominal length
    for start, length in ((0.0, nominal), (1.0, 2 * nominal), (3.0, nominal)):
        meter.ticks.append((start, start + length))
    meter.stopped()
    first, second = 1.0 - nominal, 3.0 - (1.0 + 2 * nominal)
    assert math.isclose(meter.seconds(0.0, 3.0, scaled=False), first + second)
    assert math.isclose(meter.seconds(0.0, 3.0), (first + second) / 2)
    assert math.isclose(meter.seconds(0.5, 0.75), 0.125)
    assert meter.clock(-1.0) == 0.0
    assert meter.clock(1.0 + nominal) == meter.clock(1.0)  # a tick takes no time
    assert meter.clock(9.0) == meter.clock(3.0)


def test_meter_ticks_while_on_and_restores_the_signal():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Meter() as meter:
        start = time.perf_counter()
        while time.perf_counter() - start < 10 * calibrate.INTERVAL_S:
            pass
        end = time.perf_counter()
    assert len(meter.ticks) >= 3
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < meter.seconds(start, end, scaled=False) < end - start


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_tracer_rebinds_every_import_and_restores_them(tmp_path):
    from structlab import descsys, experiments, structfn, unistat

    original = structfn.profile
    fixa = descsys.load_system(HERE.parent / "fixtures" / "fixa.tsv")
    tracer = Tracer(
        [
            Target("structlab.structfn", "profile"),
            Target("structlab.descsys", "DescriptionSystem.entries_containing",
                   layers._system_and_value),
            Target("structlab.descsys", "DescriptionSystem.c_sub"),
        ]
    ).install()
    try:
        assert structfn.profile is not original
        assert experiments.profile is structfn.profile is unistat.profile
        with tracer.span("outer"):
            experiments.verify_nonstoch(experiments.make_nonstoch_system(4, 2, 2))
            structfn.profile(fixa, "00")
            structfn.profile(fixa, "00")
    finally:
        tracer.remove()
    assert structfn.profile is original and experiments.profile is original
    assert isinstance(descsys.DescriptionSystem.__dict__["c_sub"], property)

    table = summarize(tracer)
    assert table["structfn.profile"]["calls"] == 3
    assert table["descsys.DescriptionSystem.entries_containing"]["calls"] == 3
    # two distinct (system, x) pairs over three calls
    assert table["descsys.DescriptionSystem.entries_containing"]["distinct_ratio"] == 2 / 3
    outer = table["outer"]
    assert 0 <= outer["self_s"] <= outer["total_s"]
    # each membership lookup is made inside a profile call
    parents = {tracer.spans[s[3]][0] for s in tracer.spans if "entries" in s[0]}
    assert parents == {"structfn.profile"}


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ---------------------------------------------------------------------------


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.catalogue()
    from run import end_to_end

    reported = end_to_end({"setup_s": [1.0], "wall_s": [1.0], "profile_s": [1e-3]})
    assert [m["name"] for m in spec["end_to_end"]] == list(reported)
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in reported.values()]
