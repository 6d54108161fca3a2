"""Every config drawn from the CLI schema ends in a documented exit code.

Configs are drawn from ``cli._SCHEMA``: good values near each key's default
for some of the keys a mode reads, then up to two faults, each a reversed,
duplicated, out-of-range or mistyped value.  ``main()`` must return 0, 2, 3
or 4 and never write a traceback; a config that still holds a mistyped value
(a later fault on the same key may replace it) exits 2.
Grids stay at or below 2001 points, and ``fit`` and ``analyze`` read a real
.s2p file, so each run is short.

A second property draws the config file as bytes: a valid config with bytes
flipped, truncated, BOM-prefixed, or nested deeper than the JSON decoder
allows.  The same holds.  Output names are bare file names, resolved inside
--out-dir; any other name is a config error before anything is written.
"""

import codecs
import contextlib
import io
import json
import os
import pwd
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsskit import cli
from fsskit.errors import ConfigError

#: a value for each key that the schema requires or leaves unset by default
GIVEN = {
    ("circuit", "l_nh"): 2.85,
    ("output", "touchstone"): "r.s2p",
    ("sweep", "w_mm"): [0.6, 1.4],
    ("synthesize", "f_p_ghz"): 2.7,
    ("synthesize", "f_z_ghz"): 5.0,
    ("synthesize", "c1_pf"): 0.6,
    ("synthesize", "q_target"): 50.0,
    ("synthesize", "fbw_target"): 0.1,
    ("fit", "touchstone"): "S2P",
    ("fit", "free"): ["l_nh"],
    ("analyze", "touchstone"): "S2P",
}
#: keys whose two values are a range, so swapping them reverses it
PAIRS = [("grid", "f_start_ghz", "f_stop_ghz"), ("synthesize", "w_min_mm", "w_max_mm"),
         ("synthesize", "f_p_ghz", "f_z_ghz")]
#: one JSON value of each type, and the types each schema kind accepts
JSON_VALUES = {"number": 1.5, "string": "x", "bool": True, "null": None, "list": [1.0], "object": {"a": 1}}
ACCEPTS = {list: "list", dict: "object", bool: "bool", str: "string", Path: "string"}
FIT_BOXES = {  # each exits 2: the box or start is invalid before the file is read
    "reversed": {"bounds": {"l_nh": [5, 1]}},
    "start outside": {"initial": {"l_nh": 9}, "bounds": {"l_nh": [1, 5]}},
    "reactive box from 0": {"bounds": {"l_nh": [0, 5]}},
    "zero start, default box": {"free": ["r_ohm"], "initial": {"r_ohm": 0}},
}

SYNTH = {"f_p_ghz": 2.7, "f_z_ghz": 5.0, "c1_pf": 0.6}
RING = "invalid circuit block: L, L1 and C1 must be positive"
WIDTHS = "invalid synthesize block: width range must satisfy 0 < w_min <= w_max < period"
AT_PARSE = {  # each exits 2 with its error: parse rejects a value the run cannot use
    "negative ring L1": ({"mode": "sweep-w", "circuit": {"l1_nh": -1.0}, "sweep": {"w_mm": [1.0, 2.0]}}, RING),
    "zero ring C1": ({"mode": "sweep-w", "circuit": {"c1_pf": 0}, "sweep": {"w_mm": [1.0, 2.0]}}, RING),
    "negative Q target": ({"mode": "synthesize", "synthesize": {**SYNTH, "q_target": -1}},
                          "invalid synthesize block: quality-factor target must be positive"),
    "zero Q target": ({"mode": "synthesize", "synthesize": {**SYNTH, "q_target": 0}},
                      "invalid synthesize block: quality-factor target must be positive"),
    "negative FBW target": ({"mode": "synthesize", "synthesize": {**SYNTH, "fbw_target": -0.2}},
                            "invalid synthesize block: bandwidth target must be positive"),
    "reversed width range": ({"mode": "synthesize", "synthesize": {
        **SYNTH, "fbw_target": 0.1, "w_min_mm": 3.0, "w_max_mm": 0.3}}, WIDTHS),
    "width range beyond the cell": ({"mode": "synthesize", "synthesize": {
        **SYNTH, "fbw_target": 0.1, "w_max_mm": 20}}, WIDTHS),
    "targets whose L and L1 overflow": (
        {"mode": "synthesize", "synthesize": {"f_p_ghz": 1e-300, "f_z_ghz": 2e-300, "c1_pf": 0.6}},
        "invalid synthesize block: f_p = 1e-291 Hz, f_z = 2e-291 Hz and C1 = 6e-13 F put L or L1 outside "
        "the float range"),
    "targets whose L1 underflows": (
        {"mode": "synthesize", "synthesize": {"f_p_ghz": 1e200, "f_z_ghz": 2e200, "c1_pf": 1e-300,
                                              "q_target": 1e-300}},
        "invalid synthesize block: f_p = 1e+209 Hz, f_z = 2e+209 Hz and C1 = 1e-312 F put L or L1 outside "
        "the float range"),
    "grid points that collapse": (
        {"mode": "simulate", "circuit": {"l_nh": 2.85},
         "grid": {"f_start_ghz": 1.0, "f_stop_ghz": 1.0000000000000002, "n_points": 1000}},
        "invalid grid block: grid points must strictly increase; 1000 are too many for the span"),
}


def fit_box(case):
    fit = {"touchstone": "S2P", "free": ["l_nh"], **FIT_BOXES[case]}
    return {"mode": "fit", "circuit": {"l_nh": 2.85}, "fit": fit}, True


def at_parse(case):
    return AT_PARSE[case][0], True


def config_default(spec: tuple):
    """A schema row's default in config units: an SI number divided by its multiplier."""
    _, kind, default, _ = spec
    return default / kind if isinstance(kind, float) and isinstance(default, (int, float)) else default


def good(draw, block, key, doc, scale):
    """A valid value for the key: its default in config units times the block's
    ``scale``, or one near it."""
    kind, default = cli._SCHEMA[block][key][1], config_default(cli._SCHEMA[block][key])
    if block == "fit" and key in ("initial", "bounds"):  # around the circuit value, as the default box
        given = doc.get("circuit", {})
        circuit = {k: given.get(k, config_default(spec)) for k, spec in cli._SCHEMA["circuit"].items()}
        values = {name: circuit[name] for name in doc["fit"]["free"]}
        if key == "initial":
            return {name: v * scale for name, v in values.items()}
        return {name: [v / 4, v * 4] for name, v in values.items()}
    if (block, key) == ("fit", "free"):
        return draw(st.lists(st.sampled_from(sorted(cli._FIT_KEYS)), min_size=1, max_size=3, unique=True))
    if (block, key) == ("grid", "n_points"):
        return draw(st.integers(2, 2001))
    if (block, key) == ("incidence", "theta_deg"):
        return draw(st.lists(st.floats(0.0, 80.0), min_size=1, max_size=3))
    if (block, key) == ("incidence", "pol"):
        return draw(st.lists(st.sampled_from(["TE", "TM"]), min_size=1, max_size=2, unique=True))
    if (block, key) in GIVEN:
        return GIVEN[block, key]
    if kind is int:
        return draw(st.sampled_from([1, 2]))
    if isinstance(default, (int, float)) and not isinstance(default, bool) and default:
        return default * scale
    return default


def spoil(draw, kind, value, fault):
    """``value`` with one fault of the given kind."""
    if fault == "mistyped":
        accepted = ACCEPTS.get(kind, "number")
        return draw(st.sampled_from([v for t, v in JSON_VALUES.items() if t != accepted]))
    if fault == "out_of_range":
        bad = draw(st.sampled_from([0.0, -1.0, 1e6, cli.MAX_GRID_POINTS + 1]))
        if isinstance(value, dict):
            return {k: [bad, v[1]] if isinstance(v, list) else bad for k, v in value.items()}
        return [bad] if isinstance(value, list) else bad
    if isinstance(value, list):  # reversed or duplicated
        return value[::-1] if fault == "reversed" else value + value[:1]
    if isinstance(value, dict):
        return {k: v[::-1] if isinstance(v, list) else -v for k, v in value.items()}
    return -value if isinstance(value, (int, float)) and not isinstance(value, bool) else value


@st.composite
def configs(draw):
    """A config and whether it must exit 2."""
    mode = draw(st.sampled_from(cli.MODES))
    doc = {"mode": mode}
    for block, keys in cli._SCHEMA.items():
        # a block's optional keys come all or none, scaled alike, so a cell stays consistent
        optional, scale = draw(st.booleans()), draw(st.floats(0.8, 1.25))
        for key, (_, _, default, modes) in keys.items():
            if key in ("h1_mm", "mirrored") and doc.get("circuit", {}).get("order") != 2:
                continue  # read at order 2 only
            if mode in modes and (default is cli._REQUIRED or optional):
                doc.setdefault(block, {})[key] = good(draw, block, key, doc, scale)
    present = [(block, key) for block in cli._SCHEMA for key in doc.get(block, {})]
    mistyped = {}  # (block, key) -> whether the last fault on the key left it mistyped
    for fault in draw(st.lists(st.sampled_from(["reversed", "duplicated", "out_of_range", "mistyped",
                                                "swapped"]), max_size=2)):
        if fault == "swapped":
            block, a, b = draw(st.sampled_from(PAIRS))
            given = doc.get(block, {})
            if a in given and b in given:
                given[a], given[b] = given[b], given[a]
                mistyped[block, a], mistyped[block, b] = mistyped.get((block, b)), mistyped.get((block, a))
            continue
        block, key = draw(st.sampled_from(present))
        kind = cli._SCHEMA[block][key][1]
        doc[block][key] = spoil(draw, kind, doc[block][key], fault)
        mistyped[block, key] = fault == "mistyped"
    return doc, any(mistyped.values())


def run_main(workdir, raw: bytes) -> tuple[int, str]:
    """main()'s exit code and stderr on a config file of the given bytes; "S2P"
    names a real .s2p file.  The code is a documented one, with no traceback."""
    config = workdir / "run.json"
    config.write_bytes(raw.replace(b'"S2P"', json.dumps(str(workdir / "obs_te0deg.s2p")).encode()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--config", str(config), "--out-dir", str(workdir / "out")])
    assert "Traceback" not in err.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_COMPUTE, cli.EXIT_IO), err.getvalue()
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("exit_codes")
    doc = {"mode": "simulate", "circuit": {"order": 2, "l_nh": 2.85},
           "grid": {"n_points": 201}, "output": {"csv": "", "touchstone": "obs.s2p"}}
    cli.run(cli.parse_config(json.dumps(doc)), out_dir=out)
    return out


@settings(max_examples=120, deadline=None)
@given(configs())
@example(fit_box("reversed"))
@example(fit_box("start outside"))
@example(fit_box("reactive box from 0"))
@example(fit_box("zero start, default box"))
@example(at_parse("negative ring L1"))
@example(at_parse("zero ring C1"))
@example(at_parse("negative Q target"))
@example(at_parse("zero Q target"))
@example(at_parse("negative FBW target"))
@example(at_parse("reversed width range"))
@example(at_parse("width range beyond the cell"))
@example(at_parse("targets whose L and L1 overflow"))
@example(at_parse("targets whose L1 underflows"))
@example(at_parse("grid points that collapse"))
def test_every_config_exits_with_a_documented_code(workdir, case):
    doc, must_be_config_error = case
    code, err = run_main(workdir, json.dumps(doc).encode())
    if must_be_config_error:
        assert code == cli.EXIT_CONFIG, err


@pytest.mark.parametrize("case", sorted(AT_PARSE))
def test_values_the_run_cannot_use_fail_at_parse(case):
    doc, error = AT_PARSE[case]
    with pytest.raises(ConfigError) as info:
        cli.parse_config(json.dumps(doc))
    assert str(info.value) == error


# ---------------------------------------------------------------------------
# config files drawn as bytes

#: one valid config per mode, each with "mode" as its first key
VALID = [json.dumps(doc).encode() for doc in (
    {"mode": "simulate", "circuit": {"order": 2, "l_nh": 2.85}, "grid": {"n_points": 101},
     "output": {"csv": "r.csv", "touchstone": "r.s2p"}},
    {"mode": "sweep-w", "grid": {"n_points": 201}, "sweep": {"w_mm": [0.6, 1.4]},
     "output": {"metrics_csv": "m.csv"}},
    {"mode": "synthesize", "synthesize": {**SYNTH, "q_target": 50.0}},
    {"mode": "fit", "circuit": {"order": 2, "l_nh": 2.85}, "fit": {"touchstone": "S2P", "free": ["l_nh"]}},
    {"mode": "analyze", "analyze": {"touchstone": "S2P"}},
)]
#: deeper than the JSON decoder's recursion allows, and just inside it
DEPTHS = [2, 900, 990, 5000, 100_000]


@st.composite
def config_bytes(draw):
    """A valid config with bytes flipped, truncated, BOM-prefixed or deeply nested."""
    raw = draw(st.sampled_from(VALID))
    how = draw(st.sampled_from(["flipped", "truncated", "bom", "nested"]))
    if how == "flipped":  # anywhere, or in a number, where the config may still parse
        in_numbers = [i for i, b in enumerate(raw) if b in b"0123456789."]
        where = st.integers(0, len(raw) - 1) | st.sampled_from(in_numbers)
        for i in draw(st.lists(where, min_size=1, max_size=3)):
            byte = draw(st.integers(0, 255) | st.sampled_from(b"0123456789.-e/"))
            raw = raw[:i] + bytes([byte]) + raw[i + 1:]
    elif how == "truncated":
        raw = raw[:draw(st.integers(0, len(raw) - 1))]
    elif how == "bom":
        raw = codecs.BOM_UTF8 + raw
    else:
        depth = draw(st.sampled_from(DEPTHS))
        deep = b"[" * depth + b"]" * depth
        where = draw(st.sampled_from(["root", "unknown key", "mode"]))
        if where == "root":
            raw = b"[" * depth + raw + b"]" * depth
        elif where == "unknown key":
            raw = b'{"deep": ' + deep + b", " + raw[1:]
        else:  # the value of "mode", which an error message quotes
            raw = b'{"mode": ' + deep + raw[raw.index(b","):]
    return raw


@settings(max_examples=150, deadline=None)
@given(config_bytes())
@example(b'{"mode": "synthesize", \xff}')
@example(codecs.BOM_UTF8 + VALID[0])
@example(codecs.BOM_UTF8 + b'{"mode": "synthesize", \xff}')
@example(b"[" * 100_000 + b"]" * 100_000)
@example(VALID[4].replace(b"touchstone", b"touchst\\ne"))  # a key that decodes with a line break
def test_every_config_file_exits_with_a_documented_code(workdir, raw):
    code, err = run_main(workdir, raw)
    if code != cli.EXIT_OK:
        assert err.endswith("\n") and err.count("\n") == 1, err


def test_a_config_that_is_not_utf8_is_a_config_error(workdir):
    code, err = run_main(workdir, b'{"mode": "synthesize", "synthesize": {"c1_pf": 0.6\xe9}}')
    assert code == cli.EXIT_CONFIG
    assert err == "config error: config is not UTF-8: invalid continuation byte at byte offset 50\n"


def test_a_config_with_a_byte_order_mark_is_read(workdir):
    assert run_main(workdir, codecs.BOM_UTF8 + VALID[2]) == (cli.EXIT_OK, "")
    raw = b'{"mode": "synthesize", "synthesize": {"c1_pf": 0.6\xe9}}'
    code, err = run_main(workdir, codecs.BOM_UTF8 + raw)
    assert code == cli.EXIT_CONFIG
    # the offset counts from the start of the file, the mark's 3 bytes included
    assert err == "config error: config is not UTF-8: invalid continuation byte at byte offset 53\n"


@pytest.mark.parametrize("depth", [5000, 100_000])
def test_a_config_nested_too_deeply_is_a_config_error(workdir, depth):
    code, err = run_main(workdir, b'{"mode": "analyze", "x": ' + b"[" * depth + b"]" * depth + b"}")
    assert (code, err) == (cli.EXIT_CONFIG, "config error: config is nested too deeply to parse\n")


# ---------------------------------------------------------------------------
# output names: a bare file name, resolved inside --out-dir

OUTPUTS = {
    "csv": {"mode": "simulate", "circuit": {"l_nh": 2.85}, "grid": {"n_points": 11}},
    "touchstone": {"mode": "simulate", "circuit": {"l_nh": 2.85}, "grid": {"n_points": 11}},
    "metrics_csv": {"mode": "sweep-w", "grid": {"n_points": 201}, "sweep": {"w_mm": [1.4]}},
}


@pytest.mark.parametrize("name", ["sub/dir/t.s2p", "../up.txt", "..", ".", "sub/", "ABSOLUTE", "a\0b"])
@pytest.mark.parametrize("key", sorted(OUTPUTS))
def test_an_output_name_that_is_not_a_bare_file_name_is_a_config_error(key, name, tmp_path):
    if name == "ABSOLUTE":
        name = str(tmp_path / "outside.txt")
    code, err = run_main(tmp_path, json.dumps({**OUTPUTS[key], "output": {key: name}}).encode())
    assert code == cli.EXIT_CONFIG
    assert err == (f"config error: 'output.{key}' must be a bare file name inside the output "
                   f"directory, got {name!r}\n")
    assert [p.name for p in tmp_path.rglob("*")] == ["run.json"]


@pytest.mark.parametrize("key", sorted(OUTPUTS))
def test_a_bare_output_name_is_written_inside_the_out_dir(key, tmp_path):
    code, _ = run_main(tmp_path, json.dumps({**OUTPUTS[key], "output": {key: "x.txt"}}).encode())
    assert code == cli.EXIT_OK
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert written == (["response.csv", "x_te0deg.txt"] if key == "touchstone" else ["x.txt"])


@pytest.mark.parametrize("held", ["hard link", "read-only file"])
def test_an_artifact_is_a_new_file_whatever_held_its_name(held, tmp_path):
    out, other = tmp_path / "out", tmp_path / "other.txt"
    out.mkdir()
    other.write_bytes(b"old\n")
    if held == "hard link":
        os.link(other, out / "x.txt")
    else:
        other.rename(out / "x.txt")
        (out / "x.txt").chmod(0o444)
    code, _ = run_main(tmp_path, json.dumps({**OUTPUTS["csv"], "output": {"csv": "x.txt"}}).encode())
    assert code == cli.EXIT_OK
    stat = (out / "x.txt").stat()
    umask = os.umask(0)
    os.umask(umask)
    assert (stat.st_nlink, stat.st_mode & 0o777) == (1, 0o666 & ~umask)
    assert (out / "x.txt").read_bytes().startswith(b"f_ghz,s11_db_te0deg,")
    assert held == "read-only file" or other.read_bytes() == b"old\n"


def test_a_directory_at_an_artifact_name_is_an_io_error(tmp_path):
    (tmp_path / "out" / "x.txt").mkdir(parents=True)
    code, err = run_main(tmp_path, json.dumps({**OUTPUTS["csv"], "output": {"csv": "x.txt"}}).encode())
    assert code == cli.EXIT_IO
    assert err.startswith("io error: ")


#: main() in a child process.  Root writes into a read-only directory, so a
#: child started as root drops to the uid and gid given, after its imports
#: (argparse imports locale when main() builds its parser).
AS_USER = """
import locale, os, sys
from fsskit import cli
uid, gid = map(int, sys.argv[1:3])
if os.geteuid() == 0:
    os.setgroups([])
    os.setgid(gid)
    os.setuid(uid)
sys.exit(cli.main(sys.argv[3:]))
"""


def run_main_as_user(uid, gid, argv) -> subprocess.CompletedProcess:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", AS_USER, str(uid), str(gid), *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def unprivileged_ids() -> tuple[int, int]:
    """The current uid and gid, or under root those of 'nobody' if a child can drop to them."""
    if os.geteuid() != 0:
        return os.getuid(), os.getgid()
    try:
        nobody = pwd.getpwnam("nobody")
    except KeyError:
        pytest.skip("running as root, which writes into a read-only directory, with no 'nobody' user to drop to")
    probe = subprocess.run([sys.executable, "-c", "import os, sys; os.setgroups([]); "
                            "os.setgid(int(sys.argv[2])); os.setuid(int(sys.argv[1]))",
                            str(nobody.pw_uid), str(nobody.pw_gid)], capture_output=True, timeout=60)
    if probe.returncode != 0:
        pytest.skip("running as root, which writes into a read-only directory, without the right to change uid")
    return nobody.pw_uid, nobody.pw_gid


def test_a_file_in_a_read_only_out_dir_is_an_io_error():
    uid, gid = unprivileged_ids()
    # pytest's tmp_path may lie under a directory that only root can traverse
    work = Path(tempfile.mkdtemp())
    out = work / "out"
    try:
        work.chmod(0o755)
        config = work / "run.json"
        config.write_text(json.dumps({**OUTPUTS["csv"], "output": {"csv": "x.txt"}}))
        config.chmod(0o644)
        out.mkdir()
        (out / "x.txt").write_bytes(b"old\n")
        for path in (out, out / "x.txt"):
            os.chown(path, uid, gid)
        # uid could truncate x.txt in place; replacing it needs the directory
        out.chmod(0o555)
        child = run_main_as_user(uid, gid, ["--config", str(config), "--out-dir", str(out)])
        assert child.returncode == cli.EXIT_IO, child.stderr
        assert child.stderr.startswith("io error: ") and "Traceback" not in child.stderr
        # the artifact failed, not the config, which the child reads (an unreadable one exits 4 too)
        assert str(out / "x.txt") in child.stderr and str(config) not in child.stderr
        assert (out / "x.txt").read_bytes() == b"old\n"
    finally:
        if out.exists():
            out.chmod(0o755)
        shutil.rmtree(work)
