"""The text writers' block sets and the shared .s2p frequency column.

A writer formats in a block set of its own (``touchstone._Blocks``), and a
.s2p writer takes the frequency column's cell words from the values that
the process holds per grid (``twoport.held``) when an earlier file was on
equal frequencies.  These tests check that neither ever changes a byte: not
across threads, not after an error, and not when the frequencies change
under the held copy.
"""

import contextlib
import io
import json
import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from fsskit import cli, touchstone, twoport
from fsskit.analysis import FrequencyGrid, ResponseCurve, sweep_conditions
from fsskit.builder import CircuitParams, build_network
from fsskit.errors import DomainError
from fsskit.touchstone import format_g12, write_touchstone
from fsskit.twoport import IncidenceCondition, Polarization

PARAMS = CircuitParams(L=2.85e-9, L1=1.61e-9, C1=0.6e-12, R=0.1, R1=0.1, h=0.254e-3, eps_r=2.2,
                       order=2, h1=10e-3)
CONDITIONS = [IncidenceCondition(math.radians(t), p) for t in (0, 15, 30, 45) for p in Polarization]
#: the arrays of the held frequency column, a copy of the frequencies and
#: five cell words each
COLUMN_BYTES_PER_ROW = 8 + 20


def _curves(grid, conditions=CONDITIONS):
    return sweep_conditions(build_network(PARAMS), grid, conditions)


def _written(curve, path) -> bytes:
    write_touchstone(curve, path)
    return path.read_bytes()


def _fresh(curve, path) -> bytes:
    """The file as written with nothing held per grid."""
    with mock.patch.object(twoport, "_HELD", {}):
        return _written(curve, path)


@pytest.fixture
def switch_often():
    """Threads switch every 10 µs, so the writers' blocks interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestConcurrentWriters:
    """Four threads, more than the cores of a small machine; thread k writes input k % 2."""

    THREADS, ROUNDS = 4, 6

    def _run(self, work):
        barrier, errors = threading.Barrier(self.THREADS), []

        def run(k):
            try:
                barrier.wait(timeout=60)
                for r in range(self.ROUNDS):
                    work(k, r)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert not errors

    def test_two_touchstone_writers_give_the_sequential_bytes(self, tmp_path, switch_often):
        """Each writer holds its own block set, and the frequency column it took
        stays whole while the other writer replaces the held one."""
        curves = [_curves(FrequencyGrid(1e9, 5e9, 2001), CONDITIONS[:1])[0],
                  _curves(FrequencyGrid(2e9, 4e9, 1501), CONDITIONS[-1:])[0]]
        expected = [_written(curve, tmp_path / f"seq{k}.s2p") for k, curve in enumerate(curves)]
        got = [[None] * self.ROUNDS for _ in range(self.THREADS)]

        def work(k, r):
            got[k][r] = _written(curves[k % 2], tmp_path / f"t{k}_{r}.s2p")

        self._run(work)
        assert [set(g) for g in got] == [{expected[k % 2]} for k in range(self.THREADS)]

    def test_two_csv_writers_give_the_sequential_bytes(self, switch_often):
        rng = np.random.default_rng(3)
        tables = [rng.normal(size=(2001, 17)) * 1e3, rng.normal(size=(1501, 5))]
        expected = [b"".join(format_g12(table)) for table in tables]
        got = [[None] * self.ROUNDS for _ in range(self.THREADS)]

        def work(k, r):
            got[k][r] = b"".join(format_g12(tables[k % 2]))

        self._run(work)
        assert [set(g) for g in got] == [{expected[k % 2]} for k in range(self.THREADS)]


class TestFrequencyColumn:
    def test_one_simulate_call_formats_its_frequency_column_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(twoport, "_HELD", {})
        curves = _curves(FrequencyGrid(1e9, 5e9, 2001))
        with mock.patch.object(touchstone, "_e11_words", wraps=touchstone._e11_words) as kernel:
            for k, curve in enumerate(curves):
                write_touchstone(curve, tmp_path / f"c{k}.s2p")
        assert [call.args[0].size for call in kernel.call_args_list].count(2001) == 1
        for k, curve in enumerate(curves):
            assert (tmp_path / f"c{k}.s2p").read_bytes() == _fresh(curve, tmp_path / "fresh.s2p")

    def test_grids_of_one_length_in_turn_are_never_stale(self, tmp_path):
        a, b = (_curves(FrequencyGrid(*span, 2001), CONDITIONS[:1])[0] for span in ((1e9, 5e9), (1e9, 5.5e9)))
        for k, curve in enumerate([a, b, a, a, b]):
            assert _written(curve, tmp_path / f"w{k}.s2p") == _fresh(curve, tmp_path / "fresh.s2p")

    def test_a_grid_changed_in_place_is_formatted_again(self, tmp_path):
        grid = FrequencyGrid(1e9, 5e9, 2001)
        before = _written(_curves(grid, CONDITIONS[:1])[0], tmp_path / "before.s2p")
        points = grid.points
        points.setflags(write=True)
        points *= 1.25
        points.setflags(write=False)
        s = np.full(2001, 0.5 + 0.25j)
        curve = ResponseCurve(grid, s, s, s22=s)
        after = _written(curve, tmp_path / "after.s2p")
        assert after == _fresh(curve, tmp_path / "fresh.s2p")
        assert after.splitlines()[4].startswith(b"1.25000000000e+00 ")
        assert before.splitlines()[4].startswith(b"1.00000000000e+00 ")

    def test_a_zero_frequency_keeps_its_sign(self, tmp_path):
        """-0.0 == 0.0, but %.11e writes them apart: the held column is matched by bits."""
        s = np.full(3, 0.5 + 0.25j)
        for zero in (0.0, -0.0, 0.0):
            curve = ResponseCurve(np.array([zero, 1e9, 2e9]), s, s, s22=s)
            body = _written(curve, tmp_path / "z.s2p").splitlines()[4]
            assert body.startswith(b"%.11e " % zero)
            assert body.startswith(b"-" if math.copysign(1.0, zero) < 0 else b"0")

    def test_peak_memory_grows_by_the_held_column_alone(self, tmp_path):
        """Beyond the frequency column it holds (about 28 B a row), a write's
        peak does not grow with the table: each block is formatted in the
        writer's set and written as it comes."""
        def peak(n, f_start):
            curve = _curves(FrequencyGrid(f_start, 5e9, n), CONDITIONS[:1])[0]
            tracemalloc.start()
            try:
                write_touchstone(curve, tmp_path / "m.s2p")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2001, 1e9)  # the word tables exist from here on
        small, large = peak(2001, 1.5e9), peak(20001, 2e9)
        slack = 16 * 1024
        assert large - small <= COLUMN_BYTES_PER_ROW * (20001 - 2001) + slack


class TestErrors:
    def test_a_directory_at_the_third_name_is_an_io_error_after_two_whole_files(self, tmp_path):
        doc = {
            "mode": "simulate", "circuit": {"l_nh": 2.85, "l1_nh": 1.61, "c1_pf": 0.6, "order": 2, "h1_mm": 10.0},
            "grid": {"n_points": 2001},
            "incidence": {"theta_deg": [0, 15, 30, 45], "pol": ["TE", "TM"]},
            "output": {"csv": "oblique.csv", "touchstone": "cond.s2p"},
        }
        names = cli.parse_config(json.dumps(doc)).s2p_names
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))

        def main(out):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                return cli.main(["--config", str(config), "--out-dir", str(out)]), err.getvalue()

        assert main(tmp_path / "good") == (cli.EXIT_OK, "")
        (tmp_path / "bad" / names[2]).mkdir(parents=True)
        code, err = main(tmp_path / "bad")
        assert code == cli.EXIT_IO and err.startswith("io error: ")
        for name in names[:2]:
            assert (tmp_path / "bad" / name).read_bytes() == (tmp_path / "good" / name).read_bytes()
        assert not any((tmp_path / "bad" / name).exists() for name in names[3:])

        assert main(tmp_path / "again") == (cli.EXIT_OK, "")
        for name in ("oblique.csv",) + names:
            assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "good" / name).read_bytes()

    def test_a_csv_writer_stopped_mid_block_keeps_its_bytes_and_the_next_writers(self):
        """Each writer's blocks are its own: one stopped after the first piece
        of a block, while another writes a whole table, then resumed or
        closed, changes no byte of either."""
        table, other = np.arange(40000.0).reshape(-1, 8), -np.arange(40000.0).reshape(-1, 8) / 7
        expected, expected_other = b"".join(format_g12(table)), b"".join(format_g12(other))
        pieces = format_g12(table)
        first = next(pieces)
        assert len(first) < len(expected)
        assert b"".join(format_g12(other)) == expected_other
        assert first + b"".join(pieces) == expected
        pieces = format_g12(table)
        next(pieces)
        pieces.close()
        assert b"".join(format_g12(other)) == expected_other

    def test_a_curve_without_s22_is_refused_before_any_file_is_made(self, tmp_path):
        curve = _curves(FrequencyGrid(1e9, 5e9, 2001), CONDITIONS[:1])[0]
        expected = _fresh(curve, tmp_path / "fresh.s2p")
        with pytest.raises(DomainError, match="no s22"):
            write_touchstone(ResponseCurve(curve.freqs, curve.s11, curve.s21), tmp_path / "refused.s2p")
        assert not (tmp_path / "refused.s2p").exists()
        assert _written(curve, tmp_path / "next.s2p") == expected
