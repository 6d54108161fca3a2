"""README's "Library quick start" block runs as written and prints what its
last line, a comment, says it prints, and its "Defaults when omitted" table
states every default of the config schema.

An API change that breaks the block, or moves what it prints, and a default
that moves or is added fail here until README is brought along.
"""

import contextlib
import io
import json
import re
from pathlib import Path

from fsskit.cli import _REQUIRED, _SCHEMA

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    return re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_prints_what_it_says():
    code = quick_start()
    *_, said = code.splitlines()
    assert re.fullmatch(r"# f_c = \d+\.\d{3} GHz, FBW = \d+\.\d%, Q = \d+\.\d", said), said
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == said.removeprefix("# ") + "\n"


def defaults_table() -> dict[str, dict[str, str]]:
    """block -> key -> value text of each `key=value` in the "Defaults when omitted" table."""
    section = README.read_text(encoding="utf-8").split("Defaults when omitted", 1)[1]
    table = next(part for part in section.split("\n\n") if part.startswith("| block |"))
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.M)
    return {block: dict(re.findall(r"`(\w+)=([^`]+)`", text)) for block, text in rows}


def in_config_units(block: str, key: str, value):
    """A number of a scaled key to 12 significant digits; any other value as is."""
    kind = _SCHEMA[block][key][1]
    return f"{value:.12g}" if isinstance(kind, float) else value


def test_defaults_table_states_each_schema_default():
    shown = {block: {key: in_config_units(block, key, json.loads(text)) for key, text in pairs.items()}
             for block, pairs in defaults_table().items() if pairs}
    schema = {}
    for block, keys in _SCHEMA.items():
        for key, (_, kind, default, _) in keys.items():
            if default is not _REQUIRED and default not in (None, {}):
                value = default / kind if isinstance(kind, float) else default
                schema.setdefault(block, {})[key] = in_config_units(block, key, value)
    assert shown == schema
