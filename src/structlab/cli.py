"""Batch front door for the library: load inputs, run, write artifacts.

Every subcommand reads systems or fixtures from files, runs the exact
machinery, and writes deterministic artifacts into ``--out``: curves as CSV
(fixed header, LF endings), reports as JSON (sorted keys), and always a
``manifest.json`` echoing the run parameters, so identical invocations
produce byte-identical directories.  There is no interactive mode and no
plotting: the artifacts are plot *data* and machine-checkable reports.

Exit codes: 0 on success, 1 when the library refuses (a domain error,
reported as a JSON record on stderr), 2 on usage errors (bad flags,
unreadable files).
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from dataclasses import dataclass, field
from pathlib import Path

from .artifacts import number, write_json, write_text
from .codec import BitString, read_int, read_text, text_lines
from .descsys import (
    MAX_UNIVERSE_BITS,
    DescriptionSystem,
    FiniteSet,
    enumeration_stream,
    load_system,
)
from .errors import FixtureError, RefusalError, StructLabError
from .experiments import (
    additivity_defect_report,
    make_nonstoch_system,
    verify_nonstoch,
)
from .modelclasses import (
    expand_set,
    format_fn,
    format_pmf,
    parse_fn,
    parse_pmf,
    restrict_to_set,
)
from .predict import codebook_from_sets, snooping_curve
from .search import (
    anytime_search,
    check_audit_constant,
    improvement_audit,
    mdl_guarantee_holds,
    trace_jsonl_lines,
)
from .structfn import profile, profile_universe
from .synth import cover_family, parse_synth_stream, synthesize
from .unistat import (
    build_Sli,
    build_index,
    induced_data_D,
    induced_Dk,
    muchnik_lambda,
    reconstruct_from_prefix,
)

__all__ = ["RunManifest", "main"]


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

#: Subcommands that consume a program-enumeration stream and therefore
#: require an explicit seed for reproducibility.
STREAM_COMMANDS = frozenset({"search"})


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one run, echoed next to its artifacts."""

    command: str
    inputs: dict = field(default_factory=dict)
    x: "str | None" = None
    seed: "int | None" = None
    alpha_max: "int | None" = None
    out: str = "."
    format: "str | None" = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command in STREAM_COMMANDS and self.seed is None:
            raise StructLabError(
                f"the {self.command} command consumes an enumeration stream "
                "and needs an explicit seed"
            )
        if "c" in self.options:
            check_audit_constant(self.options["c"])


def _object_str(obj) -> str:
    if isinstance(obj, FiniteSet):
        return ",".join(str(b) for b in obj.bitstrings())
    return str(obj)


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def _parse_cover_records(text: str):
    """Parse claimed-model records, one ``record K K_COND MEMBERS`` line each."""
    records = []
    width = None
    for where, (_, k, k_cond, members) in text_lines(
        text, "record K K_COND MEMBERS", keyword="record"
    ):
        k, k_cond = read_int(k, "K", where), read_int(k_cond, "K_COND", where)
        if k < 0 or k_cond < 0:
            raise FixtureError(
                f"{where}: claimed complexities must be nonnegative, "
                f"got K={k}, K_COND={k_cond}"
            )
        s = FiniteSet.read(members, where, width)
        width = s.n
        records.append((s, k, k_cond))
    if not records:
        raise FixtureError("a record file names no records")
    return records


def _target_curve(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p != ""]
    except ValueError as exc:
        raise StructLabError(f"bad target curve {text!r}") from exc


def _check_budget(sys: DescriptionSystem, flag: str, value: "int | None") -> None:
    """Refuse a budget past the longest data or set program.

    Every curve is constant past it and ``induced_Dk`` only repeats whole
    rounds, so a larger value would buy nothing but unbounded work.
    """
    longest = max(map(len, [*sys.data_programs, *sys.set_programs]))
    if value is not None and value > longest:
        raise StructLabError(
            f"{flag} {value} exceeds the longest data or set program ({longest} bits)"
        )


def _full_cube(n: int) -> FiniteSet:
    if not 1 <= n <= MAX_UNIVERSE_BITS:
        raise StructLabError(
            f"universe width must be in [1, {MAX_UNIVERSE_BITS}], got {n}"
        )
    return FiniteSet(n, range(1 << n))


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------
#
# Each body yields its artifacts as (file name, payload) pairs: a ``.json``
# name is written through the artifact encoder, any other as text (a str, or
# an iterable of str chunks written in turn).


def _cmd_profile(args):
    sys = load_system(args.system)
    _check_budget(sys, "--alpha-max", args.alpha_max)
    if args.x is None:
        # Drawn lazily: each profile is written before the next is computed.
        profiles = profile_universe(sys, alpha_max=args.alpha_max)
    else:
        x = BitString(args.x)
        profiles = [(x, profile(sys, x, alpha_max=args.alpha_max))]
    if args.format == "csv":
        yield "profile.csv", _profile_csv(profiles)
        return
    yield "profile.json", {
        "profiles": (
            {
                "x": x,
                "K_x": prof.K_x,
                "alpha_max": prof.alpha_max,
                "c_sub": prof.c_sub,
                "h": prof.h_values(),
                "lambda": prof.lambda_values(),
                "beta": prof.beta_values(),
                "critical_alphas": prof.critical_alphas,
                "mss_alpha": None if prof.sufficiency is None else prof.sufficiency.alpha,
            }
            for x, prof in profiles
        )
    }


def _profile_csv(profiles):
    """The CSV text in chunks: the header, then one chunk per string."""
    yield "x,alpha,h,lambda,beta\n"
    for x, prof in profiles:
        curves = prof.h_values(), prof.lambda_values(), prof.beta_values()
        # A curve takes few distinct values, so each is shown once.
        shown = {v: number(v) for v in set().union(*curves)}
        x = str(x)
        yield "".join(
            f"{x},{a},{shown[h]},{shown[lam]},{shown[beta]}\n"
            for a, (h, lam, beta) in enumerate(zip(*curves))
        )


def _cmd_search(args):
    sys = load_system(args.system)
    alpha = args.alpha_max
    if alpha is None:
        alpha = sys.max_set_program_length()
    stream = enumeration_stream(sys, args.seed)
    trace = anytime_search(sys, args.x, alpha, stream, mode=args.mode)
    yield "trace.jsonl", "\n".join(trace_jsonl_lines(trace)) + "\n"
    final = trace.declarations[-1] if trace.declarations else None
    payload = {
        "x": trace.x,
        "alpha": trace.alpha,
        "mode": trace.mode,
        "seed": args.seed,
        "declaration_count": len(trace.declarations),
        "flagged_empty": trace.flagged_empty,
        "final_program": None if final is None else final.record.witness_program,
        "final_objective": None if final is None else final.objective,
        "final_objective_key": None if final is None else str(final.objective_key),
    }
    if args.mode == "mdl":
        payload["guarantee_ok"] = mdl_guarantee_holds(sys, trace)
        payload["improvement_audit"] = improvement_audit(sys, trace, c=args.c)
    yield "search.json", payload


def _cmd_synth(args):
    target = _target_curve(args.target)
    n = args.n if args.n is not None else (target[0] if target else 0)
    universe = _full_cube(n)
    events = parse_synth_stream(read_text(args.stream), width=n)
    yield "synth.json", synthesize(target, universe, events, n=n)


def _cmd_cover(args):
    records = _parse_cover_records(read_text(args.records))
    yield "cover.json", cover_family(records, args.x, delta=args.delta)


def _cmd_unistat(args):
    sys = load_system(args.system)
    _check_budget(sys, "--k", args.k)
    x = BitString(args.x)
    d = induced_data_D(sys)
    idx = build_index(d, x)
    payload = {
        "universe_n": sys.universe_n,
        "x": x,
        "K_x": sys.K_data(x),
        "pair_count": d.N_l,
        "width": d.width,
        "index": {"I": idx.I, "m": idx.m, "m_len": idx.m_len},
    }
    level = args.i if args.i is not None else idx.m_len
    if level is not None:
        try:
            block = build_Sli(d, level)
            payload["half_block"] = {
                "i": block.i,
                "prefix": block.prefix,
                "lo": block.lo,
                "hi": block.hi,
                "cardinality": block.cardinality,
                "members": [_object_str(o) for o in block.members],
                "contains_x": x in block,
            }
        except RefusalError as exc:
            payload["half_block"] = {"i": level, "refused": str(exc)}
    rec_level = args.i if args.i is not None else sys.K_data(x)
    rec = reconstruct_from_prefix(d, rec_level)
    payload["reconstruction"] = {
        "i": rec.i,
        "m": rec.m,
        "cutoff_count": rec.cutoff_count,
        "objects": sorted(_object_str(o) for o in rec.objects),
    }
    if args.k is not None:
        alpha0 = args.alpha0 if args.alpha0 is not None else args.k
        payload["muchnik"] = muchnik_lambda(induced_Dk(sys, args.k), x, args.k, alpha0)
    yield "unistat.json", payload


def _cmd_snoop(args):
    sys = load_system(args.system)
    _check_budget(sys, "--alpha-max", args.alpha_max)
    curve = snooping_curve(codebook_from_sets(sys), args.x, alpha_max=args.alpha_max)
    if args.format == "csv":
        yield "snoop.csv", curve.to_csv()
        return
    yield "snoop.json", {
        "x": curve.x,
        "alpha_max": curve.alpha_max,
        "rows": [
            {
                "alpha": row.alpha,
                "loss": row.loss,
                "product": row.product,
                "witness": row.witness,
            }
            for row in curve.rows
        ],
    }


def _cmd_convert(args):
    mode = args.mode
    if mode in ("expand-pmf", "expand-fn"):
        if args.members is None:
            raise StructLabError(f"{mode} needs --members")
        s = FiniteSet.read(args.members, "--members", args.n)
        if mode == "expand-pmf":
            model = expand_set(s, "pmf")
            yield "model.pmf", format_pmf(model)
            shape = {"support_length": model.n, "file": "model.pmf"}
        else:
            model = expand_set(s, "fn")
            yield "model.fn", format_fn(model)
            shape = {"arg_len": model.arg_len, "file": "model.fn"}
        yield "convert.json", {"mode": mode, "cardinality": s.cardinality, **shape}
        return
    if args.x is None:
        raise StructLabError(f"{mode} needs --x")
    if mode == "restrict-pmf":
        if args.pmf is None:
            raise StructLabError("restrict-pmf needs --pmf")
        model = parse_pmf(read_text(args.pmf), n=args.n)
    elif mode == "restrict-fn":
        if args.fn is None:
            raise StructLabError("restrict-fn needs --fn")
        model = parse_fn(read_text(args.fn), arg_len=args.n)
    else:  # pragma: no cover - argparse restricts choices
        raise StructLabError(f"unknown conversion {mode!r}")
    restriction = restrict_to_set(model, args.x)
    yield "set.txt", _object_str(restriction.set) + "\n"
    yield "convert.json", {**restriction.to_json_dict(), "mode": mode, "file": "set.txt"}


def _cmd_audit(args):
    sys = load_system(args.system)
    yield "audit.json", {
        "universe_n": sys.universe_n,
        "data_programs": len(sys.data_programs),
        "set_programs": len(sys.set_programs),
        "kraft": sys.kraft_sums(),
        "c_sub": sys.c_sub,
        "additivity": additivity_defect_report(sys),
    }


def _cmd_nonstoch(args):
    plan = make_nonstoch_system(args.n, args.alpha0, args.beta_level, seed=args.seed)
    yield "nonstoch.json", verify_nonstoch(plan)
    yield "system.tsv", plan.system.to_descriptor_text()


_HANDLERS = {
    "profile": _cmd_profile,
    "search": _cmd_search,
    "synth": _cmd_synth,
    "cover": _cmd_cover,
    "unistat": _cmd_unistat,
    "snoop": _cmd_snoop,
    "convert": _cmd_convert,
    "audit": _cmd_audit,
    "nonstoch": _cmd_nonstoch,
}


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="structlab",
        description="Exact two-part-code analysis over finite description systems.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, system=False, x=None, alpha_max=False, fmt=False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--out", required=True, help="output directory")
        if system:
            cmd.add_argument("--system", required=True, help="descriptor file")
        if x is not None:
            cmd.add_argument("--x", required=x, help="target bit string")
        if alpha_max:
            cmd.add_argument("--alpha-max", dest="alpha_max", type=int, default=None)
        if fmt:
            cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        return cmd

    add("profile", "h / lambda / beta curves", system=True, x=False, alpha_max=True, fmt=True)

    cmd = add("search", "anytime model search", system=True, x=True, alpha_max=True)
    cmd.add_argument("--seed", type=int, required=True, help="stream shuffle seed")
    cmd.add_argument("--mode", choices=("mdl", "ml", "direct"), default="mdl")
    cmd.add_argument("--c", type=float, default=1.0, help="improvement-audit constant")

    cmd = add("synth", "block-replacement curve synthesis")
    cmd.add_argument("--target", required=True, help="comma-separated target curve")
    cmd.add_argument("--stream", required=True, help="adversary event file")
    cmd.add_argument("--n", type=int, default=None, help="universe width")

    cmd = add("cover", "cover a family of claimed models", x=True)
    cmd.add_argument("--records", required=True, help="record file")
    cmd.add_argument("--delta", type=int, default=None)

    cmd = add("unistat", "enumeration statistics", system=True, x=True)
    cmd.add_argument("--i", type=int, default=None, help="half-block / reconstruction level")
    cmd.add_argument("--k", type=int, default=None, help="complexity budget for the truncated curve")
    cmd.add_argument("--alpha0", type=int, default=None, help="trust horizon for the truncated curve")

    add("snoop", "sequential prediction loss curves", system=True, x=True, alpha_max=True, fmt=True)

    cmd = add("convert", "translate between sets, pmfs and total functions")
    cmd.add_argument(
        "--mode",
        required=True,
        choices=("expand-pmf", "expand-fn", "restrict-pmf", "restrict-fn"),
    )
    cmd.add_argument("--members", default=None, help="comma-separated set members")
    cmd.add_argument("--pmf", default=None, help="probability fixture file")
    cmd.add_argument("--fn", default=None, help="function fixture file")
    cmd.add_argument("--x", default=None, help="target bit string")
    cmd.add_argument("--n", type=int, default=None, help="support / argument length")

    add("audit", "codebook bookkeeping and additivity defects", system=True)

    cmd = add("nonstoch", "synthesize a system with a planted non-typical string")
    cmd.add_argument("--n", type=int, required=True, help="universe width")
    cmd.add_argument("--alpha0", type=int, required=True, help="budget where beta drops")
    cmd.add_argument("--beta-level", dest="beta_level", type=int, required=True)
    cmd.add_argument("--seed", type=int, default=0)

    return p


def _manifest_from_args(args) -> RunManifest:
    inputs = {}
    for key in ("system", "stream", "records", "pmf", "fn"):
        value = getattr(args, key, None)
        if value is not None:
            inputs[key] = str(value)
    options = {}
    for key in ("mode", "c", "target", "n", "delta", "i", "k", "alpha0", "beta_level", "members"):
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    return RunManifest(
        command=args.command,
        inputs=inputs,
        x=getattr(args, "x", None),
        seed=getattr(args, "seed", None),
        alpha_max=getattr(args, "alpha_max", None),
        out=str(args.out),
        format=getattr(args, "format", None),
        options=options,
    )


def _error_record(command: str, exc: Exception) -> str:
    return json.dumps(
        {
            "command": command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        },
        sort_keys=True,
    )


def _artifacts(args):
    """The manifest echo first, so a refused run still archives it."""
    yield "manifest.json", _manifest_from_args(args)
    yield from _HANDLERS[args.command](args)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    try:
        for name, payload in _artifacts(args):
            path = Path(args.out) / name
            if path.suffix == ".json":
                write_json(path, payload, int_floats=True)
            else:
                write_text(path, payload)
    except StructLabError as exc:
        print(_error_record(command, exc), file=_sys.stderr)
        return 1
    except OSError as exc:
        print(_error_record(command, exc), file=_sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
