"""End-to-end runs of the batch front door."""

import functools
import json
import shutil
import time
import weakref
from pathlib import Path

import pytest

from structlab import cli, structfn
from structlab.cli import main
from structlab.descsys import MAX_UNIVERSE_BITS, FiniteSet, load_system

from .gensys import random_system
from .oracles import oracle_profile_artifact

GOLDEN = Path(__file__).resolve().parent / "golden"

#: One run per subcommand, format and mode.  Each runs in a scratch
#: directory holding ``fixa.tsv`` and ``golden/inputs/``, with relative
#: paths and ``--out out``, so the manifest is compared byte for byte too.
GOLDEN_CASES = {
    "profile-x-csv": ["profile", "--system", "fixa.tsv", "--x", "00"],
    "profile-csv": ["profile", "--system", "ham4.tsv"],
    "profile-json": ["profile", "--system", "ham4.tsv", "--format", "json"],
    "search-mdl": ["search", "--system", "cyl6.tsv", "--x", "001011", "--seed", "5"],
    "search-ml": [
        "search", "--system", "cyl6.tsv", "--x", "001011", "--seed", "5", "--mode", "ml",
    ],
    "search-direct": [
        "search", "--system", "cyl6.tsv", "--x", "001011", "--seed", "5",
        "--mode", "direct",
    ],
    "unistat-k": ["unistat", "--system", "ham4.tsv", "--x", "0110", "--k", "6"],
    "unistat": ["unistat", "--system", "fixa.tsv", "--x", "01"],
    "unistat-refused": ["unistat", "--system", "ham4.tsv", "--x", "0110", "--i", "1"],
    "snoop-csv": ["snoop", "--system", "fixa.tsv", "--x", "00"],
    "snoop-json": ["snoop", "--system", "ham4.tsv", "--x", "0110", "--format", "json"],
    "synth": ["synth", "--target", "3,2,2", "--stream", "synth.txt"],
    "cover": ["cover", "--records", "records.txt", "--x", "00", "--delta", "1"],
    "convert-expand-pmf": ["convert", "--mode", "expand-pmf", "--members", "000,011,101"],
    "convert-expand-fn": ["convert", "--mode", "expand-fn", "--members", "000,011,101"],
    "convert-restrict-pmf": [
        "convert", "--mode", "restrict-pmf", "--pmf", "model.pmf", "--x", "011",
    ],
    "convert-restrict-fn": [
        "convert", "--mode", "restrict-fn", "--fn", "model.fn", "--x", "010",
    ],
    "audit": ["audit", "--system", "ham4.tsv"],
    "nonstoch": ["nonstoch", "--n", "6", "--alpha0", "3", "--beta-level", "4"],
}


@pytest.fixture
def fixa_path(fixtures_dir):
    return str(fixtures_dir / "fixa.tsv")


def run(*argv):
    return main(list(argv))


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_cli_golden(case, fixtures_dir, tmp_path, monkeypatch):
    shutil.copytree(GOLDEN / "inputs", tmp_path, dirs_exist_ok=True)
    shutil.copy(fixtures_dir / "fixa.tsv", tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run(*GOLDEN_CASES[case], "--out", "out") == 0
    expected = GOLDEN / case
    names = sorted(p.name for p in expected.iterdir())
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == names
    for name in names:
        assert (tmp_path / "out" / name).read_bytes() == (expected / name).read_bytes(), name


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------


def test_profile_whole_universe_json(fixa_path, tmp_path):
    rc = run(
        "profile", "--system", fixa_path, "--format", "json", "--out", str(tmp_path)
    )
    assert rc == 0
    payload = json.loads((tmp_path / "profile.json").read_text())
    profiles = {p["x"]: p for p in payload["profiles"]}
    assert set(profiles) == {"00", "01", "10", "11"}
    assert profiles["00"]["h"] == ["inf", 2, 1, 0]
    assert profiles["00"]["lambda"] == ["inf", 3, 3, 3]
    assert profiles["00"]["beta"] == ["inf", 0, 0, 0]
    assert profiles["00"]["K_x"] == 1
    assert profiles["11"]["h"] == ["inf", 2, 2, 2]


def test_profile_reruns_are_byte_identical(fixa_path, tmp_path):
    args = ("profile", "--system", fixa_path, "--out", str(tmp_path))
    assert run(*args) == 0
    first = {
        p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()
    }
    assert run(*args) == 0
    second = {
        p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()
    }
    assert first == second
    assert set(first) == {"profile.csv", "manifest.json"}


#: Family systems at n = 8 with a shortcut below the cube's index code.
FAMILY_8 = """\
data  0    @family:bernoulli(n=8)
set   00   @family:cube(n=8)
set   01   @family:hamming(n=8)
set   100  @family:cylinders(n=8)
set   101  @family:patches(n=8,m=4)
set   110  @family:singletons(n=8)
cond  0    00000110@00
"""


@pytest.fixture
def family_8(tmp_path):
    path = tmp_path / "family8.tsv"
    path.write_text(FAMILY_8, encoding="utf-8")
    return str(path)


def test_whole_universe_csv_is_the_per_string_rows(family_8, tmp_path, monkeypatch):
    assert run("profile", "--system", family_8, "--out", str(tmp_path / "all")) == 0
    header, *rows = (tmp_path / "all" / "profile.csv").read_text().splitlines()
    # One parse serves the per-string runs; each x still takes the scan path.
    monkeypatch.setattr(cli, "load_system", functools.cache(load_system))
    per_string = []
    for v in range(1 << 8):
        out = tmp_path / f"x{v}"
        x = format(v, "08b")
        assert run("profile", "--system", family_8, "--x", x, "--out", str(out)) == 0
        head, *lines = (out / "profile.csv").read_text().splitlines()
        assert head == header
        per_string += lines
    assert rows == per_string


def test_whole_universe_profile_never_tests_set_membership(family_8, tmp_path, monkeypatch):
    calls = []
    contains = FiniteSet.__contains__

    def counted(self, x):
        calls.append(x)
        return contains(self, x)

    monkeypatch.setattr(FiniteSet, "__contains__", counted)
    for fmt in ("csv", "json"):
        args = ("profile", "--system", family_8, "--format", fmt)
        assert run(*args, "--out", str(tmp_path / fmt)) == 0
    assert calls == []
    # the per-string path scans the set entries, so the counter does count
    assert run(*args, "--x", "00000110", "--out", str(tmp_path / "x")) == 0
    assert calls


@pytest.mark.parametrize("seed", range(8))
def test_whole_universe_profile_is_the_oracle_bytes(seed, tmp_path):
    sys = random_system(seed, cheap_singletons=seed % 2 == 0)
    path = tmp_path / "system.tsv"
    path.write_text(sys.to_descriptor_text(), encoding="utf-8")
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        assert run("profile", "--system", str(path), "--format", fmt, "--out", str(out)) == 0
        text = (out / f"profile.{fmt}").read_text(encoding="utf-8")
        assert text == oracle_profile_artifact(sys, fmt)


def test_whole_universe_profile_keeps_one_profile_at_a_time(family_8, tmp_path, monkeypatch):
    refs, live = [], []
    compute = structfn.profile

    def counted(*args, **kwargs):
        live.append(sum(ref() is not None for ref in refs))
        prof = compute(*args, **kwargs)
        refs.append(weakref.ref(prof))
        return prof

    monkeypatch.setattr(structfn, "profile", counted)
    for fmt in ("csv", "json"):
        refs.clear()
        live.clear()
        args = ("profile", "--system", family_8, "--format", fmt)
        assert run(*args, "--out", str(tmp_path / fmt)) == 0
        # the previous profile is still being written when the next is drawn
        assert len(live) == 256 and max(live) == 1


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_seed_independent_final(fixa_path, tmp_path):
    finals = []
    for seed in (1, 2):
        out = tmp_path / f"s{seed}"
        rc = run(
            "search", "--system", fixa_path, "--x", "00",
            "--seed", str(seed), "--out", str(out),
        )
        assert rc == 0
        payload = json.loads((out / "search.json").read_text())
        assert payload["guarantee_ok"] is True
        assert payload["declaration_count"] >= 1
        finals.append(payload["final_objective"])
        lines = (out / "trace.jsonl").read_text().splitlines()
        assert len(lines) == payload["declaration_count"]
        assert all(json.loads(line)["program"] for line in lines)
    assert finals[0] == finals[1] == 3


@pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
def test_search_refuses_non_finite_c(c, fixa_path, tmp_path, capsys):
    out = tmp_path / "out"
    rc = run(
        "search", "--system", fixa_path, "--x", "00", "--seed", "1",
        f"--c={c}", "--out", str(out),
    )
    assert rc == 1
    record = json.loads(capsys.readouterr().err)
    assert record["command"] == "search"
    assert record["error"]["type"] == "StructLabError"
    assert "must be finite" in record["error"]["message"]
    # refused before the manifest echo is written
    assert not out.exists()


def test_search_huge_c_is_fast(fixa_path, tmp_path):
    start = time.perf_counter()
    rc = run(
        "search", "--system", fixa_path, "--x", "00", "--seed", "1",
        "--c", "1e9", "--out", str(tmp_path),
    )
    assert rc == 0
    assert time.perf_counter() - start < 1.0
    audit = json.loads((tmp_path / "search.json").read_text())["improvement_audit"]
    assert audit["c"] == 1000000000
    assert audit["qualifying_count"] == 0


def test_search_requires_seed(fixa_path, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("search", "--system", fixa_path, "--x", "00", "--out", str(tmp_path))
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# synth and cover
# ---------------------------------------------------------------------------


def test_synth_run(tmp_path):
    stream = tmp_path / "events.txt"
    stream.write_text("step 1 000,001\nstep 2 010\n")
    rc = run(
        "synth", "--target", "3,2,2", "--stream", str(stream),
        "--out", str(tmp_path / "out"),
    )
    assert rc == 0
    payload = json.loads((tmp_path / "out" / "synth.json").read_text())
    assert payload["target"] == [3, 2, 2]
    assert payload["replacement_bounds_ok"] is True
    assert payload["universe_size"] == 8


def test_cover_run(tmp_path):
    records = tmp_path / "records.txt"
    records.write_text(
        "record 2 1 00,01\nrecord 2 1 00,10\nrecord 2 1 00,11\n"
    )
    rc = run(
        "cover", "--records", str(records), "--x", "00", "--delta", "1",
        "--out", str(tmp_path / "out"),
    )
    assert rc == 0
    payload = json.loads((tmp_path / "out" / "cover.json").read_text())
    assert payload["covered"] is True
    assert payload["x"] == "00"


@pytest.mark.parametrize(
    "records, delta",
    [
        ("record 2 1 00,01\n", "-100000"),
        ("record 2 1 00,01\n", "1000000"),
        (f"record 2 {10**4000} 00,01\n", "1"),
    ],
    ids=["delta-low", "delta-high", "huge-k-cond"],
)
def test_cover_threshold_out_of_range_exits_one(records, delta, tmp_path, capsys):
    path = tmp_path / "records.txt"
    path.write_text(records)
    rc = run(
        "cover", "--records", str(path), "--x", "00", "--delta", delta,
        "--out", str(tmp_path / "out"),
    )
    assert rc == 1
    record = json.loads(capsys.readouterr().err)
    assert record["command"] == "cover"
    assert record["error"]["type"] == "StructLabError"
    assert "threshold exponent" in record["error"]["message"]


# ---------------------------------------------------------------------------
# unistat
# ---------------------------------------------------------------------------


def test_unistat_run(fixa_path, tmp_path):
    rc = run(
        "unistat", "--system", fixa_path, "--x", "00",
        "--k", "3", "--out", str(tmp_path),
    )
    assert rc == 0
    payload = json.loads((tmp_path / "unistat.json").read_text())
    assert payload["K_x"] == 1
    assert payload["pair_count"] == 4
    assert payload["index"] == {"I": 0, "m": "", "m_len": 0}
    block = payload["half_block"]
    assert block["i"] == 0
    assert block["cardinality"] == 4
    assert block["contains_x"] is True
    assert payload["reconstruction"]["objects"] == ["00"]
    assert "muchnik" in payload
    assert payload["muchnik"]["k"] == 3


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------


def test_convert_expand_and_restrict_round_trip(tmp_path):
    out1 = tmp_path / "expand"
    rc = run(
        "convert", "--mode", "expand-pmf", "--members", "00,01",
        "--out", str(out1),
    )
    assert rc == 0
    assert (out1 / "model.pmf").read_text() == "00\t1/2\n01\t1/2\n"

    out2 = tmp_path / "restrict"
    rc = run(
        "convert", "--mode", "restrict-pmf", "--pmf", str(out1 / "model.pmf"),
        "--x", "00", "--out", str(out2),
    )
    assert rc == 0
    assert (out2 / "set.txt").read_text() == "00,01\n"
    payload = json.loads((out2 / "convert.json").read_text())
    assert payload["holds"] is True


def test_convert_expand_fn(tmp_path):
    rc = run(
        "convert", "--mode", "expand-fn", "--members", "00,01,10",
        "--out", str(tmp_path),
    )
    assert rc == 0
    payload = json.loads((tmp_path / "convert.json").read_text())
    assert payload["arg_len"] == 2
    text = (tmp_path / "model.fn").read_text()
    assert "11\t00" in text


def test_convert_missing_input_is_domain_error(tmp_path, capsys):
    rc = run("convert", "--mode", "restrict-pmf", "--x", "00", "--out", str(tmp_path))
    assert rc == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "StructLabError"
    assert "--pmf" in record["error"]["message"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("0\t1e-5000\n1\t1\n", "malformed probability '1e-5000'"),
        ("0\t1e-1000000\n1\t1\n", "malformed probability '1e-1000000'"),
        ("0\t1e4300\n1\t1\n", "malformed probability '1e4300'"),
        ("0\t1e-4293\n1\t1\n", "sum to 1 exactly"),
    ],
)
def test_convert_refuses_too_long_probabilities_quickly(text, message, tmp_path, capsys):
    path = tmp_path / "model.pmf"
    path.write_text(text)
    start = time.perf_counter()
    rc = run(
        "convert", "--mode", "restrict-pmf", "--pmf", str(path), "--x", "0",
        "--out", str(tmp_path / "out"),
    )
    assert time.perf_counter() - start < 1
    assert rc == 1
    record = json.loads(capsys.readouterr().err)
    assert record["command"] == "convert"
    assert message in record["error"]["message"]


def test_convert_refuses_a_pmf_whose_total_is_too_long_to_show(tmp_path, capsys):
    # Each token has about 4,000 digits; their sum has more than MAX_DIGITS.
    path = tmp_path / "big.pmf"
    path.write_text(f"0\t1/{3**8300}\n1\t1/{7**4700}\n")
    assert path.stat().st_size == 7943
    rc = run(
        "convert", "--mode", "restrict-pmf", "--pmf", str(path), "--x", "0",
        "--out", str(tmp_path / "out"),
    )
    assert rc == 1
    record = json.loads(capsys.readouterr().err)
    assert record["command"] == "convert"
    assert record["error"]["type"] == "StructLabError"
    message = record["error"]["message"]
    assert "sum to 1 exactly, got about" in message
    assert len(message) < 200


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_kraft_and_additivity(fixa_path, tmp_path):
    rc = run("audit", "--system", fixa_path, "--out", str(tmp_path))
    assert rc == 0
    payload = json.loads((tmp_path / "audit.json").read_text())
    assert payload["kraft"]["set"] == "7/8"
    assert payload["kraft"]["data"] == 1
    assert payload["c_sub"] == 0
    assert payload["additivity"]["pair_count"] == 7
    assert payload["additivity"]["histogram"] == {"-2": 3, "-1": 2, "0": 2}


# ---------------------------------------------------------------------------
# nonstoch
# ---------------------------------------------------------------------------


def test_nonstoch_run(tmp_path):
    rc = run(
        "nonstoch", "--n", "6", "--alpha0", "3", "--beta-level", "4",
        "--out", str(tmp_path),
    )
    assert rc == 0
    payload = json.loads((tmp_path / "nonstoch.json").read_text())
    assert payload["ok"] is True
    assert payload["beta"] == ["inf", 4, 4, 0]
    reloaded = load_system(tmp_path / "system.tsv")
    assert reloaded.universe_n == 6


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["profile", "--x", "00"], "--alpha-max"),
        (["profile"], "--alpha-max"),
        (["snoop", "--x", "00"], "--alpha-max"),
        (["unistat", "--x", "00"], "--k"),
    ],
    ids=["profile-x", "profile", "snoop", "unistat"],
)
def test_budget_flags_stop_at_the_longest_program(argv, flag, fixa_path, tmp_path, capsys):
    # fixa's longest data and set programs are 3 bits long.
    argv = [argv[0], "--system", fixa_path, *argv[1:]]
    assert run(*argv, flag, "3", "--out", str(tmp_path / "edge")) == 0
    for value in ("4", str(10**9)):
        start = time.perf_counter()
        rc = run(*argv, flag, value, "--out", str(tmp_path / value))
        assert time.perf_counter() - start < 1.0
        assert rc == 1
        record = json.loads(capsys.readouterr().err)
        assert record["command"] == argv[0]
        assert record["error"]["type"] == "StructLabError"
        message = f"{flag} {value} exceeds the longest data or set program (3 bits)"
        assert record["error"]["message"] == message


def test_domain_error_exits_one(fixa_path, tmp_path, capsys):
    rc = run("profile", "--system", fixa_path, "--x", "0z", "--out", str(tmp_path))
    assert rc == 1
    record = json.loads(capsys.readouterr().err)
    assert record["command"] == "profile"
    assert record["error"]["type"] == "CodecError"
    # the manifest echo is still archived for the failed run
    assert (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize(
    "args", ["n=-1", "n=0", "n=17", "n=2,n=3"], ids=["neg", "zero", "wide", "dup"]
)
def test_bad_family_arguments_exit_one(args, tmp_path, capsys):
    system = tmp_path / "system.tsv"
    system.write_text(f"data\t0\t@family:literal({args})\nset\t0\t@family:cube(n=2)\n")
    rc = run("profile", "--system", str(system), "--out", str(tmp_path / "out"))
    assert rc == 1
    record = json.loads(capsys.readouterr().err)
    assert record["command"] == "profile"
    assert record["error"]["type"] == "DescriptorError"


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--target", "3,2,2", "--stream", "unread.txt"],
        ["nonstoch", "--alpha0", "3", "--beta-level", "1"],
    ],
    ids=["synth", "nonstoch"],
)
def test_too_wide_universe_exits_one(argv, tmp_path, capsys):
    rc = run(*argv, "--n", str(MAX_UNIVERSE_BITS + 1), "--out", str(tmp_path))
    assert rc == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "StructLabError"
    assert "universe width" in record["error"]["message"]


#: One bad input per file format; each file opens with a comment line and a
#: blank line, so its bad line is line 3 of the file.
BAD_LINE_3 = {
    "descriptor": (
        ["profile", "--system", "{}"], "blob\t0\t00\ndata\t0\t0\n",
        "DescriptorError", "line 3: unknown kind 'blob'",
    ),
    "synth-stream": (
        ["synth", "--target", "3,2,2", "--stream", "{}"], "step one 000\n",
        "FixtureError", "line 3: malformed level 'one'",
    ),
    "cover-records": (
        ["cover", "--records", "{}", "--x", "00"], "record 2 1 00,0x\n",
        "FixtureError", "line 3: malformed member '0x'",
    ),
    "pmf": (
        ["convert", "--mode", "restrict-pmf", "--pmf", "{}", "--x", "00"], "00\t1/0\n",
        "FixtureError", "line 3: malformed probability '1/0'",
    ),
    "fn": (
        ["convert", "--mode", "restrict-fn", "--fn", "{}", "--x", "0"], ".\t0\t1\n",
        "FixtureError", "line 3: expected 'argument value' (2 fields)",
    ),
}


@pytest.mark.parametrize("case", BAD_LINE_3)
def test_bad_input_line_is_named_by_its_file_line(case, tmp_path, capsys):
    argv, body, error, message = BAD_LINE_3[case]
    path = tmp_path / "input.txt"
    path.write_text(f"# {case}\n\n{body}")
    rc = run(*[a.format(path) for a in argv], "--out", str(tmp_path / "out"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    record = json.loads(err)
    assert record["command"] == argv[0]
    assert record["error"]["type"] == error
    assert record["error"]["message"].startswith(message)


def test_synth_level_past_the_target_is_named_by_its_line(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text("step 1 0000000001\nstep 7 0000000000\n")
    rc = run(
        "synth", "--target", "3,2,2", "--stream", str(stream), "--n", "10",
        "--out", str(tmp_path / "out"),
    )
    assert rc == 1
    record = json.loads(capsys.readouterr().err)
    assert record["command"] == "synth"
    assert record["error"] == {
        "type": "FixtureError", "message": "line 2: event level 7 outside [0, 2]",
    }


@pytest.mark.parametrize(
    "target, message",
    [
        ("3,5", "the target curve must be non-increasing"),
        ("3,2,1", "the target curve must end at its domain: target[2] = 1 != 2"),
        ("", "the target curve is empty"),
    ],
)
def test_a_bad_target_is_refused_before_the_stream_is_read(target, message, tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text("step 7 000\n")
    rc = run(
        "synth", "--target", target, "--stream", str(stream), "--n", "3",
        "--out", str(tmp_path / "out"),
    )
    assert rc == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == {"type": "StructLabError", "message": message}


@pytest.mark.parametrize("case", BAD_LINE_3)
def test_input_that_is_not_utf8_is_named_by_its_byte(case, tmp_path, capsys):
    argv, _, error, _ = BAD_LINE_3[case]
    path = tmp_path / "input.txt"
    path.write_bytes(b"# ok\ndata\t0\t\xff\xfe\n")
    rc = run(*[a.format(path) for a in argv], "--out", str(tmp_path / "out"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    record = json.loads(err)
    assert record["command"] == argv[0]
    assert record["error"]["type"] == error
    assert record["error"]["message"] == f"{path}: not UTF-8 at byte 12"


@pytest.mark.parametrize("claims", ["-5 -9", "-1 1", "2 -1"])
def test_cover_refuses_negative_claimed_complexities(claims, tmp_path, capsys):
    path = tmp_path / "records.txt"
    path.write_text(f"record 2 1 00,01\nrecord {claims} 00,10\n")
    rc = run("cover", "--records", str(path), "--x", "00", "--out", str(tmp_path / "out"))
    assert rc == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "FixtureError"
    assert record["error"]["message"].startswith(
        "line 2: claimed complexities must be nonnegative"
    )
    assert not (tmp_path / "out" / "cover.json").exists()


@pytest.mark.parametrize(
    "argv, error",
    [
        (["synth", "--target", "3,x", "--stream", "{}/s.txt", "--n", "3"],
         {"type": "StructLabError", "message": "bad target curve '3,x'"}),
        (["convert", "--mode", "expand-pmf"],
         {"type": "StructLabError", "message": "expand-pmf needs --members"}),
        (["convert", "--mode", "restrict-pmf", "--pmf", "{}/model.pmf"],
         {"type": "StructLabError", "message": "restrict-pmf needs --x"}),
        (["convert", "--mode", "restrict-fn", "--x", "01"],
         {"type": "StructLabError", "message": "restrict-fn needs --fn"}),
        (["cover", "--records", "{}/comments.txt", "--x", "00"],
         {"type": "FixtureError", "message": "a record file names no records"}),
    ],
    ids=["synth-target", "expand-pmf", "restrict-pmf", "restrict-fn", "cover-empty"],
)
def test_missing_or_malformed_arguments_exit_one(argv, error, tmp_path, capsys):
    (tmp_path / "comments.txt").write_text("# no records here\n")
    rc = run(*[a.format(tmp_path) for a in argv], "--out", str(tmp_path / "out"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"command": argv[0], "error": error}


def test_unreadable_input_exits_two(tmp_path, capsys):
    rc = run(
        "profile", "--system", str(tmp_path / "missing.tsv"),
        "--out", str(tmp_path),
    )
    assert rc == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "FileNotFoundError"


def test_unknown_command_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("frobnicate", "--out", str(tmp_path))
    assert exc.value.code == 2
