"""Golden files: the bytes every shipped config writes, pinned by sha256.

Each case runs the CLI on one config and hashes every file it writes and
its stdout summary.  The summary embeds the output paths, so the out-dir
is replaced by ``<out>`` before hashing.  Any change to the number
formatting, column order or summary layout shows up here as a new hash.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fsskit.cli import EXIT_OK, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    "oblique_study.json": {
        "oblique.csv": "e937b64c8d0bd7d31a83d0796ef9c436591c7b600d7eae05046074b1ecacd613",
        "<stdout>": "add01bbc097bb22394cab457e799330645e8b1009dae1768666dab87aa19a3ac",
    },
    "oblique_study.json+touchstone": {
        "oblique.csv": "e937b64c8d0bd7d31a83d0796ef9c436591c7b600d7eae05046074b1ecacd613",
        "oblique_te0deg.s2p": "1fadf7d2c95a81e2d0500aa84da15827e8de31b4d538679e54c0a029ed7971d2",
        "oblique_te15deg.s2p": "6c2ce6ad93dac927a8e1136dbd13377f477403e583e0290c890fc1d6afa1cd59",
        "oblique_te30deg.s2p": "7a6dde2d1922fe6e259df956b1a6e8417a111532dac21ac62f84903910106c94",
        "oblique_te45deg.s2p": "c3b8ba55480112471c087e338dcd7715ddf7ce2507bb5d299d0dee8cdb05805e",
        "oblique_tm0deg.s2p": "7501aea1db85efb42cd70be0df4a40057a31aa64689dff96d16fb691358b8bd1",
        "oblique_tm15deg.s2p": "cba0490135371460f2ac56b530c2bc1cbf94e5887f03cb3edc7e4e9f69539ecb",
        "oblique_tm30deg.s2p": "90052fa58c1ca9223d8002c4bcf5551edd37127d28ade0085284e0b8368042a4",
        "oblique_tm45deg.s2p": "322bef89120e6911ed4a43da8c9670461db4d283f71a763d4058beb03530f5f8",
        "<stdout>": "696512fcf9529552d824c42414d0ca26a20e646692141a659de0098a4a3a9a27",
    },
    "second_order.json": {
        "response.csv": "4d4e0a574b0ac15501c16229b0288be2e0feeaeb717ba96b942e1c354cd90aab",
        "response_te0deg.s2p": "1fadf7d2c95a81e2d0500aa84da15827e8de31b4d538679e54c0a029ed7971d2",
        "<stdout>": "164bbcc6bf517b960817868fe968ad8bc3b9e1416f50735b4df678dc03125e4c",
    },
    "synthesize.json": {
        # strip_width_mm 1.8281638562180402 from the regula falsi width search
        # (bisection gave 1.83984375); both meet fbw_target within FBW_TOL
        "<stdout>": "fad3e9f8b03e355d160c27acea55dc6f5acfa65153a365a0e7e93565fae90924",
    },
    "width_sweep.json": {
        "width_metrics.csv": "8932d1513f5ffe40038f428d1d354bc93dd8006c0149bbf6fe67326056e6114f",
        "<stdout>": "0ea4a6068079b9d80f6233fbc2e1028eca0635e7cd8c65fc6d4ee59a6c41c604",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_case(case: str, tmp_path: Path, capsys) -> dict[str, str]:
    name, _, variant = case.partition("+")
    doc = json.loads((CONFIGS / name).read_text())
    if variant == "touchstone":
        # every oblique TE/TM condition also goes to its own .s2p file
        doc["output"]["touchstone"] = "oblique.s2p"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out-dir", str(out)]) == EXIT_OK
    summary = capsys.readouterr().out.replace(str(out), "<out>")
    hashes = {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())}
    hashes["<stdout>"] = _sha(summary.encode())
    return hashes


def test_every_shipped_config_is_covered():
    assert {c.partition("+")[0] for c in GOLDEN} == {p.name for p in CONFIGS.glob("*.json")}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_output_bytes_match_golden(case, tmp_path, capsys):
    assert _run_case(case, tmp_path, capsys) == GOLDEN[case]


def test_a_symlinked_artifact_name_is_replaced_not_written_through(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    outside = tmp_path / "outside.csv"
    outside.write_bytes(b"kept\n")
    (out / "response.csv").symlink_to(outside)
    hashes = _run_case("second_order.json", tmp_path, capsys)
    assert outside.read_bytes() == b"kept\n"
    assert not (out / "response.csv").is_symlink()
    assert hashes == GOLDEN["second_order.json"]
