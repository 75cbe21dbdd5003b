"""The traced layers and the per-layer metrics read from their spans.

``codec`` and ``rational`` are leaf helpers called millions of times, so
they are not wrapped; their time lands in their callers' ``self_s``.
"""

from __future__ import annotations

import statistics

from tracer import Target, summarize

#: The one target untraced runs keep, to time ``structfn.profile`` calls.
PROFILE = Target("structlab.structfn", "profile")


def _system_and_value(system, x):
    return system, system._value(x)


TARGETS = (
    Target("structlab.descsys", "build_system"),
    Target("structlab.descsys", "expand_family"),
    Target("structlab.descsys", "DescriptionSystem.entries_containing", _system_and_value),
    Target("structlab.descsys", "DescriptionSystem.c_sub"),
    Target("structlab.descsys", "enumeration_stream", lambda system, seed: (system, seed)),
    PROFILE,
    Target("structlab.search", "anytime_search"),
    Target("structlab.search", "improvement_audit"),
    Target("structlab.search", "mdl_guarantee_holds"),
    Target("structlab.unistat", "induced_data_D", lambda system: system),
    Target("structlab.unistat", "EnumeratedD.section"),
    Target("structlab.unistat", "build_index"),
    Target("structlab.unistat", "build_Sli"),
    Target("structlab.unistat", "sli_dominance_report"),
    Target("structlab.unistat", "universal_family_report"),
    Target("structlab.unistat", "induced_Dk"),
    Target("structlab.unistat", "muchnik_lambda"),
    Target("structlab.experiments", "reverse_fit_gap_report"),
    Target("structlab.experiments", "universal_gap_report"),
    Target("structlab.experiments", "additivity_defect_report"),
    Target("structlab.experiments", "improvement_slack_report"),
    Target("structlab.experiments", "make_nonstoch_system"),
    Target("structlab.experiments", "verify_nonstoch"),
    Target("structlab.predict", "codebook_from_sets"),
    Target("structlab.predict", "snooping_curve"),
    Target("structlab.synth", "synthesize"),
    Target("structlab.synth", "cover_family"),
    Target("structlab.modelclasses", "expand_set"),
    Target("structlab.modelclasses", "restrict_to_set"),
    Target("structlab.cli", "main"),
)

CLI_COMMANDS = (
    "profile", "search", "synth", "cover", "unistat", "snoop", "convert", "audit", "nonstoch",
)
GAP_SECTIONS = ("cylinders-6", "hamming-12", "patches-8", "nonstoch")


def catalogue() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    rows = []
    for t in TARGETS:
        rows.append((f"{t.span_name}.calls", "count", "lower"))
        rows.append((f"{t.span_name}.self_s", "s", "lower"))
        if t.key is not None:
            rows.append((f"{t.span_name}.distinct_ratio", "ratio", "higher"))
    rows += [(f"cli.{c}.total_s", "s", "lower") for c in CLI_COMMANDS]
    rows.append(("cli.bytes_written", "bytes", "lower"))
    rows += [(f"experiments.section_s.{s}", "s", "lower") for s in GAP_SECTIONS]
    rows += [
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("checks.error_rate", "ratio", "lower"),
    ]
    return rows


def per_layer(tracer, samples, workload, checks) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    The spans are on the meter's nominal clock, like the untraced passes in
    ``samples``: the overhead is the traced pass's wall time minus their
    median.  The gap battery's per-system section seconds are as the battery
    measured them in the untraced passes (host time, ticks included), and
    the medians of those.
    """
    table = summarize(tracer)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "distinct_ratio": 0.0}
    values = {}
    for t in TARGETS:
        row = table.get(t.span_name, empty)
        values[f"{t.span_name}.calls"] = row["calls"]
        values[f"{t.span_name}.self_s"] = row["self_s"]
        if t.key is not None:
            values[f"{t.span_name}.distinct_ratio"] = row["distinct_ratio"]
    for c in CLI_COMMANDS:
        values[f"cli.{c}.total_s"] = table.get(f"cli.{c}", empty)["total_s"]
    values["cli.bytes_written"] = getattr(workload, "bytes_written", 0)
    sections = getattr(workload, "sections", {})
    untraced_passes = len(samples["wall_s"])
    for s in GAP_SECTIONS:
        values[f"experiments.section_s.{s}"] = (
            statistics.median(sections[s][:untraced_passes]) if s in sections else 0.0
        )
    untraced = statistics.median(samples["wall_s"])
    traced = table["bench.pass"]["total_s"]
    values["trace.untraced_wall_s"] = untraced
    values["trace.traced_wall_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    values["trace.spans"] = len(tracer.spans)
    values["checks.error_rate"] = checks.failed / checks.attempted
    units = {name: unit for name, unit, _ in catalogue()}
    return {name: (values[name], units[name]) for name, _, _ in catalogue()}
