import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import (bits, nan_in_electric_evolve, position_distribution,
                      reference_closest_phase, reference_cyclic_trace, reference_trace_check,
                      reference_write_record)

from qpwalk import __version__, cli
from qpwalk.cli import (ConfigError, parse_coin, parse_field, parse_int_list,
                        parse_spinor)
from qpwalk.cfrac import cf_expand, golden_ratio_fraction
from qpwalk.revivals import deviation_bound, revival_reports, revival_time
from qpwalk.spinops import rotation_x
from qpwalk.walk import Field, WalkParams, WalkState, bloch_vector, evolve

ALL_EXPERIMENTS = ["evolve", "revival-scan", "trace-check", "cf",
                   "noise-series", "gauge-check", "appendix-table",
                   "bloch-trace"]

SMALL_ARGV = {
    "evolve": ["--tmax", "4"],
    "revival-scan": ["--m-list", "3,4"],
    "trace-check": ["--trials", "10"],
    "cf": ["--depth", "6"],
    "noise-series": ["--tmax", "6", "--ensemble", "3", "--epsilon", "0.001"],
    "gauge-check": ["--tmax", "10", "--trials", "3"],
    "appendix-table": ["--m-list", "3,4"],
    "bloch-trace": ["--tmax", "6"],
}


# ---------------------------------------------------------------------------
# parsers
# ---------------------------------------------------------------------------

def test_parse_field_rational_is_exact():
    field = parse_field("1/155")
    assert (field.numerator, field.denominator) == (1, 155)
    assert cli.expansion_turns(field, 40) == Fraction(1, 155)


def test_parse_field_golden_and_float():
    golden = parse_field("golden")
    assert golden.label == "golden"
    assert golden.value == pytest.approx(math.pi * (math.sqrt(5.0) - 1.0))
    assert parse_field("0.25").value == pytest.approx(math.pi / 2.0)


@pytest.mark.parametrize("bad", ["1/0", "x/y", "1/2/3", "spam"])
def test_parse_field_rejects(bad):
    with pytest.raises(ConfigError):
        parse_field(bad)


def test_parse_coin_named_and_pair():
    a, b, label = parse_coin("hadamard")
    assert a == pytest.approx(2.0 ** -0.5) and b == pytest.approx(2.0 ** -0.5)
    a, b, label = parse_coin("i-sigma-y")
    assert (a, b) == (0j, 1.0 + 0j)
    a, b, label = parse_coin("0.6,0.8j")
    assert (a, b) == (0.6 + 0j, 0.8j)
    with pytest.raises(ConfigError):
        parse_coin("0.6")


def test_parse_spinor_normalizes(rng):
    u, d = parse_spinor("3,4j")
    assert abs(u) ** 2 + abs(d) ** 2 == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        parse_spinor("0,0")
    # where the sum of squares is a normal float, the entries are divided by
    # sqrt(|u|^2 + |d|^2) as computed here, bit for bit
    for scale in (1.0, 1e-150, 1e150):
        for _ in range(50):
            u, d = (complex(*rng.normal(size=2)) * scale for _ in range(2))
            norm = math.sqrt(abs(u) ** 2 + abs(d) ** 2)
            assert parse_spinor(f"{u!r},{d!r}") == (u / norm, d / norm)


@pytest.mark.parametrize("argv", [["evolve", "--tmax", "2", "--spinor=1e200,1e200"],
                                  ["bloch-trace", "--tmax", "2", "--spinor=1e-200,0"],
                                  ["bloch-trace", "--tmax", "2", "--spinor=1e-160,1e-160"]])
def test_extreme_spinors_are_normalized(argv, capsys):
    """Entries whose squares overflow or underflow still give a unit start."""
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    _, _, rows = parse_csv(out)
    assert rows[0][0] == "0" and abs(float(rows[0][-1]) - 1.0) <= 1e-12


def test_parse_int_list():
    assert parse_int_list("3,4, 5") == [3, 4, 5]
    with pytest.raises(ConfigError):
        parse_int_list("3,a")


# ---------------------------------------------------------------------------
# in-process runs
# ---------------------------------------------------------------------------

def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta = {}
    rows = []
    header = None
    for line in text.splitlines():
        if line.startswith("# ") and "=" in line:
            key, value = line[2:].split("=", 1)
            meta[key] = value
        elif line.startswith("#"):
            continue
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_every_experiment_runs_small(capsys):
    for name in ALL_EXPERIMENTS:
        code, out, err = run_cli([name] + SMALL_ARGV[name], capsys)
        assert code == 0, (name, err)
        meta, header, rows = parse_csv(out)
        assert meta["experiment"] == name
        assert header and rows, name


def test_csv_header_is_versioned(capsys):
    code, out, _ = run_cli(["evolve", "--tmax", "2"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "# qpwalk-csv v1"


def test_json_format_schema(capsys):
    code, out, _ = run_cli(["evolve", "--tmax", "3", "--format", "json"],
                           capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "qpwalk-json/1"
    assert doc["experiment"] == "evolve"
    assert doc["columns"] == ["t", "x", "probability"]
    assert doc["metadata"]["tmax"] == 3


def test_runs_are_byte_reproducible(capsys):
    args = ["noise-series", "--tmax", "8", "--ensemble", "4", "--seed", "9",
            "--epsilon", "0.0005"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_output_file_written(tmp_path, capsys):
    out_file = tmp_path / "result.csv"
    code, out, _ = run_cli(["evolve", "--tmax", "2", "--out", str(out_file)],
                           capsys)
    assert code == 0
    assert out == ""
    meta, header, rows = parse_csv(out_file.read_text())
    assert meta["experiment"] == "evolve"
    assert rows


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# settings\ntmax=6\ncoin=identity\n")
    code, out, _ = run_cli(["evolve", "--config", str(cfg)], capsys)
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert meta["tmax"] == "6"
    assert meta["coin"] == "identity"
    code, out, _ = run_cli(["evolve", "--config", str(cfg), "--tmax", "2"],
                           capsys)
    meta, _, _ = parse_csv(out)
    assert meta["tmax"] == "2"
    assert meta["coin"] == "identity"


def _run_main_or_exit(argv, capsys):
    """(exit code, stdout, stderr) of ``cli.main``, also when argparse exits."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cached_parser_gives_a_fresh_parsers_output(tmp_path, capsys, monkeypatch):
    """The parser built once per process answers every call as a freshly built one does."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tmax=5\ncoin=i-sigma-y\n")
    argvs = [["evolve", "--m-list", "3"],  # argparse error: exit 2
             ["evolve", "--config", str(cfg), "--stride", "2"],
             ["revival-scan", "--m-list", "3,4", "--format", "json"],
             ["cf", "--depth", "5"],
             ["appendix-table", "--help"]]
    cli.build_parser.cache_clear()
    cached = [_run_main_or_exit(argv, capsys) for argv in argvs]
    assert cli.build_parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_run_main_or_exit(argv, capsys) for argv in argvs]
    assert cached == fresh
    assert [code for code, _, _ in cached] == [2, 0, 0, 0, 0]
    assert "unrecognized arguments: --m-list 3" in cached[0][2]
    assert "tmax=5" in cached[1][1] and "coin=i-sigma-y" in cached[1][1]


def _config_error_argvs(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key=1\n")
    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("tmax\n")
    xml = tmp_path / "xml.cfg"
    xml.write_text("format=xml\n")
    return [["evolve", "--field", "nope"],
            ["evolve", "--config", "/does/not/exist"],
            ["evolve", "--config", str(bad)],
            ["evolve", "--config", str(noeq)],
            # the format is checked before the first row is streamed
            ["evolve", "--config", str(xml)],
            ["evolve", "--coin", "1,1"],
            ["evolve", "--field", "nan"],
            ["evolve", "--coin", "nan,0"],
            # |a|^2 overflows a float
            ["evolve", "--coin", "1e200,0"],
            ["evolve", "--spinor", "nan,0"],
            # t * phi overflows at t = 3, after the first rows were computed
            ["evolve", "--field", "1e307", "--tmax", "5"],
            ["noise-series", "--tmax", "2", "--ensemble", "1", "--epsilon", "nan"],
            # t * phi_t overflows: no NaN rows
            ["noise-series", "--epsilon", "1e308", "--tmax", "12", "--ensemble", "2"],
            # empty lists
            ["noise-series", "--epsilon", ","],
            ["revival-scan", "--m-list", ","],
            ["appendix-table", "--m-list", ","],
            # the golden scan needs tmax >= 2 and one convergent, so depth >= 1
            ["revival-scan", "--field", "golden", "--tmax", "0"],
            ["revival-scan", "--field", "golden", "--tmax", "-5"],
            ["revival-scan", "--field", "golden", "--depth", "0"],
            # the first golden revival time is 2
            ["revival-scan", "--field", "golden", "--tmax", "1"],
            # --out in a directory that does not exist
            ["evolve", "--tmax", "2", "--out", str(tmp_path / "missing" / "x.csv")],
            # rational fields are scanned through --m-list only
            ["revival-scan", "--field", "1/7"],
            # a flag the other revival-scan mode reads would be ignored
            ["revival-scan", "--field", "golden", "--m-list", "3,4"],
            ["revival-scan", "--m-list", "3", "--tmax", "-5", "--depth", "-1"],
            ["revival-scan", "--tmax", "30"],
            ["revival-scan", "--depth", "5"],
            # phi * x overflows in the electric walk's site phases (5e305),
            # and phi * t * x in the final gauge phases (3e305)
            ["gauge-check", "--field", "5e305", "--trials", "3"],
            ["gauge-check", "--field", "3e305", "--trials", "3"]]


def test_config_errors_exit_2(tmp_path, capsys):
    for argv in _config_error_argvs(tmp_path):
        assert run_cli(argv, capsys)[0] == 2, argv
    # a flag the experiment does not read is rejected by argparse
    with pytest.raises(SystemExit) as exc:
        cli.main(["cf", "--coin", "foo"])
    assert exc.value.code == 2


def test_config_errors_write_nothing(tmp_path, capsys):
    out_file = tmp_path / "never.csv"
    for argv in _config_error_argvs(tmp_path):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv
        if "--out" in argv:  # a second --out would replace the argv's own
            assert not (tmp_path / "missing").exists(), argv
            continue
        assert run_cli(argv + ["--out", str(out_file)], capsys)[0] == 2, argv
        assert not out_file.exists(), argv


def test_config_error_messages_name_the_cause(tmp_path, capsys):
    missing = str(tmp_path / "missing" / "x.csv")
    _, _, err = run_cli(["evolve", "--tmax", "2", "--out", missing], capsys)
    assert err.startswith(f"error: cannot write {missing!r}: ")
    _, _, err = run_cli(["evolve", "--field", "1e307", "--tmax", "3"], capsys)
    assert err == "error: field 1e+307: the step angle 3*phi overflows a float\n"
    _, _, err = run_cli(["revival-scan", "--field", "golden", "--tmax", "1"], capsys)
    assert "tmax >= 2" in err
    _, _, err = run_cli(["revival-scan", "--m-list", "3", "--tmax", "-5", "--depth", "-1"],
                        capsys)
    assert err == ("error: revival-scan does not read --tmax, --depth in the rational scan "
                   "(--m-list)\n")
    _, _, err = run_cli(["revival-scan", "--field", "golden", "--m-list", "3,4"], capsys)
    assert err == ("error: revival-scan does not read --m-list in the golden scan "
                   "(--field golden)\n")


def test_revival_scan_ignores_config_keys_of_the_other_mode(tmp_path, capsys):
    """Config-file keys an experiment's mode does not read stay ignored, as for any experiment."""
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("tmax=-5\ndepth=-1\nm_list=3\n")
    rational = run_cli(["revival-scan", "--config", str(cfg)], capsys)
    assert rational == run_cli(["revival-scan", "--m-list", "3"], capsys)
    cfg.write_text("m_list=0\n")
    golden = run_cli(["revival-scan", "--config", str(cfg), "--field", "golden", "--tmax", "30"],
                     capsys)
    assert golden == run_cli(["revival-scan", "--field", "golden", "--tmax", "30"], capsys)
    assert rational[0] == golden[0] == 0


BAD_EPSILON = "error: epsilon must be finite and nonnegative"


@pytest.mark.parametrize("epsilons, message", [
    pytest.param(eps, BAD_EPSILON, id=eps) for eps in ["0.001,nan", "0.001,0.01,-1", "0.0,inf"]
] + [
    # finite, but some step angle t*phi_t overflows a float
    pytest.param("0.001,1e308", "error: step angles t*phi_t must be finite", id="0.001,1e308"),
])
def test_noise_series_checks_every_epsilon_before_any_series(epsilons, message, monkeypatch,
                                                             capsys):
    """A bad epsilon late in the list exits 2 before the first ensemble is computed."""
    def never(*args, **kwargs):
        raise AssertionError("ensemble_series ran before every epsilon was checked")

    monkeypatch.setattr(cli, "ensemble_series", never)
    code, out, err = run_cli(["noise-series", "--epsilon", epsilons], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(message)


def flatten_blocks(blocks):
    """The rows of a handler's column blocks, in order."""
    return [row for block in blocks for row in zip(*block)]


@pytest.mark.parametrize("rows_per_write", [3, cli.ROWS_PER_WRITE])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", ALL_EXPERIMENTS)
def test_streamed_record_matches_reference_writer(name, fmt, rows_per_write, tmp_path,
                                                  capsys, monkeypatch):
    """The streamed bytes equal the buffered reference writer's over the same native rows."""
    monkeypatch.setattr(cli, "ROWS_PER_WRITE", rows_per_write)
    argv = [name, *SMALL_ARGV[name], "--format", fmt]
    code, streamed, _ = run_cli(argv, capsys)
    out_file = tmp_path / "streamed"
    assert run_cli(argv + ["--out", str(out_file)], capsys)[0] == code == 0
    opts = cli.Options(cli.build_parser().parse_args(argv), {})
    metadata, columns, blocks, _ = cli.HANDLERS[name](opts)
    rows = flatten_blocks(blocks)
    native = (int, float, bool, str, type(None))
    assert all(type(cell) in native for row in rows for cell in row)
    assert all(type(value) in native for value in metadata.values())
    record = {"experiment": name, "columns": columns, "rows": rows,
              "metadata": {"experiment": name, "version": __version__, "backend": "numpy",
                           **metadata}}
    reference = tmp_path / "reference"
    reference_write_record(record, str(reference), fmt)
    assert streamed.encode() == out_file.read_bytes() == reference.read_bytes()


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-300, 0.1, -2.5]
BLOCK_COLUMNS = ["flag", "count", "label", "value", "mixed"]


def _column_block(start, rows):
    """Rows start..start+rows-1 as one column block: bool, int, str, float and mixed cells."""
    index = range(start, start + rows)
    return [[i % 3 == 0 for i in index],
            [(-1) ** i * i * 10 ** (i % 25) for i in index],
            [f"s{i}" for i in index],
            [SPECIAL_FLOATS[i % len(SPECIAL_FLOATS)] for i in index],
            [i if i % 3 else SPECIAL_FLOATS[i % len(SPECIAL_FLOATS)] if i % 2 else i % 4 == 0
             for i in index]]


@pytest.mark.parametrize("sizes", [[0], [1], [cli.ROWS_PER_WRITE + 5], [3, 0, 2, 1],
                                   [0, 1, cli.ROWS_PER_WRITE - 1, 1, 0, cli.ROWS_PER_WRITE + 1]],
                         ids=str)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_block_writer_matches_reference_writer(sizes, fmt, tmp_path):
    """``write_record`` over blocks (``_csv_rows``, ``_json_rows``) writes the reference bytes."""
    starts = [sum(sizes[:k]) for k in range(len(sizes))]
    blocks = [_column_block(start, rows) for start, rows in zip(starts, sizes)]
    blocks.insert(1, [])  # a block of no columns has no rows
    rows = flatten_blocks(blocks)
    assert len(rows) == sum(sizes)
    streamed, reference = tmp_path / "streamed", tmp_path / "reference"
    cli.write_record("blocks", {"k": 1}, BLOCK_COLUMNS, iter(blocks), str(streamed), fmt)
    record = {"experiment": "blocks", "columns": BLOCK_COLUMNS, "rows": rows,
              "metadata": {"experiment": "blocks", "version": __version__, "backend": "numpy",
                           "k": 1}}
    reference_write_record(record, str(reference), fmt)
    assert streamed.read_bytes() == reference.read_bytes()
    if fmt == "csv" and rows:  # one block alone: its lines are the reference's after the header
        body = reference.read_text().split(",".join(BLOCK_COLUMNS) + "\n", 1)[1]
        assert cli._csv_rows([list(column) for column in zip(*rows)]) == body


def _evolve_peak_traced_bytes(t_max, out_file):
    tracemalloc.start()
    try:
        assert cli.main(["evolve", "--tmax", str(t_max), "--out", str(out_file)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evolve_memory_stays_flat_in_tmax(tmp_path):
    """Stride-1 rows stream: peak memory is one window and one slice, not O(tmax^2) rows."""
    out_file = tmp_path / "evolve.csv"
    _evolve_peak_traced_bytes(2, out_file)
    small = _evolve_peak_traced_bytes(200, out_file)
    large = _evolve_peak_traced_bytes(400, out_file)
    assert large <= 1.1 * small, (small, large)


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["evolve", "--bogus"])
    assert exc.value.code == 2


def test_check_failure_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_gauge_equivalence",
                        lambda *args, **kwargs: 1.0)
    code, out, _ = run_cli(["gauge-check", "--tmax", "2", "--trials", "1"],
                           capsys)
    assert code == 3
    meta, _, rows = parse_csv(out)
    assert all(row[-1] == "0" for row in rows)


def test_gauge_check_fails_on_a_nan_deviation(monkeypatch, capsys):
    nan_in_electric_evolve(monkeypatch, 0)  # the first trial of the first field
    code, out, _ = run_cli(["gauge-check", "--tmax", "4", "--trials", "2"], capsys)
    assert code == 3
    meta, _, rows = parse_csv(out)
    assert meta["worst_deviation"] == "nan"
    assert [row[-1] for row in rows] == ["0", "1"] and rows[0][3] == "nan"


def _trace_check(trials, seed):
    args = cli.build_parser().parse_args(["trace-check", "--trials", str(trials),
                                          "--seed", str(seed)])
    meta, _, blocks, code = cli.run_trace_check(cli.Options(args, {}))
    return flatten_blocks(blocks), meta["worst_residual"], code


def _row_bits(rows):
    return [(trial, m, n, residual.hex(), ok) for trial, m, n, residual, ok in rows]


TRACE_CHECK_RUNS = [(trials, seed) for trials in (1, 2, 7) for seed in (0, 1, 5)] + [
    (200, 0), (200, 3), (200, 17), (2000, 4)]


def test_trace_check_bits_match_the_per_trial_loop(monkeypatch):
    rotations = set()
    for tol in (cli.TRACE_CHECK_TOL, 0.0):
        monkeypatch.setattr(cli, "TRACE_CHECK_TOL", tol)
        for trials, seed in TRACE_CHECK_RUNS:
            rows, worst, code = _trace_check(trials, seed)
            ref_rows, ref_worst, ref_code = reference_trace_check(trials, seed, tol)
            assert _row_bits(rows) == _row_bits(ref_rows)
            assert (type(worst), worst.hex(), code) == (float, ref_worst.hex(), ref_code)
            assert code == (3 if tol == 0.0 else 0)
            rotations.update((n, m) for _, m, n, _, _ in rows)
    # all 46 rotations: every m in 1..12 with every n coprime to it
    assert rotations == {(n, m) for m in range(1, 13) for n in range(1, m + 1)
                         if math.gcd(n, m) == 1}


@pytest.mark.parametrize("m", [1, 2, 5, 12])
def test_direct_cyclic_traces_take_a_rotation_per_trial(rng, m):
    """One stacked pass over trials of one m, each with its own rotation (every
    n coprime to m, mixed), gives each trace the bits of the one-trial loop."""
    ns = [n for n in range(1, m + 1) if math.gcd(n, m) == 1] * 3
    ns = [ns[i] for i in rng.permutation(len(ns))]
    rots = np.array([rotation_x(2.0 * math.pi * n / m) for n in ns])
    mats = rng.uniform(-1.0, 1.0, (len(ns), 2, 2)) + 1j * rng.uniform(-1.0, 1.0, (len(ns), 2, 2))
    traces = cli._direct_cyclic_traces(mats, rots, m)
    want = [reference_cyclic_trace(mat, rot, m) for mat, rot in zip(mats, rots)]
    assert np.array_equal(bits(traces), bits(np.array(want)))


def test_trace_check_fails_on_a_nan_residual(monkeypatch, capsys):
    closed_trace = cli._closed_trace
    calls = []

    def nan_on_second_call(*args):
        calls.append(None)
        return complex("nan") if len(calls) == 2 else closed_trace(*args)

    monkeypatch.setattr(cli, "_closed_trace", nan_on_second_call)
    code, out, _ = run_cli(["trace-check", "--trials", "3"], capsys)
    assert code == 3
    meta, _, rows = parse_csv(out)
    assert meta["worst_residual"] == "nan"
    assert sorted(row[-1] for row in rows) == ["0", "1", "1"]
    assert all((row[3] == "nan") == (row[-1] == "0") for row in rows)


def test_revival_scan_golden_mode(capsys):
    code, out, _ = run_cli(["revival-scan", "--field", "golden",
                            "--tmax", "12", "--depth", "8"], capsys)
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["k_index", "d_k", "revival_time", "sign",
                      "measured_deviation", "deviation_bound"]
    for row in rows:
        assert float(row[4]) <= float(row[5]) + 1e-9


def _assert_report_cells(row, params, m):
    """A row's sign and measured_deviation cells are the per-report search's, bit for bit."""
    sign, dev = reference_closest_phase(params, revival_time(m))
    assert (int(row[0]), float(row[1]).hex()) == (sign, dev.hex()), (row, m)


def test_revival_scan_rows_match_each_report(capsys):
    """Rows follow --m-list as given (unsorted, with a repeat)."""
    code, out, _ = run_cli(["revival-scan", "--m-list", "12,3,7,3,2"], capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header[:5] == ["m", "parity", "revival_time", "sign", "measured_deviation"]
    assert [int(row[0]) for row in rows] == [12, 3, 7, 3, 2]
    for row in rows:
        m = int(row[0])
        _assert_report_cells(row[3:5], WalkParams(Field.rational(1, m), *parse_coin("hadamard")[:2]), m)


@pytest.mark.parametrize("tmax, depth", [(30, 12), (200, 12), (400, 1), (400, 3), (1000, 12)])
def test_golden_revival_scan_rows_match_each_report(capsys, tmax, depth):
    """Every computed convergent up to the first revival time past --tmax, in k order."""
    code, out, _ = run_cli(["revival-scan", "--field", "golden", "--tmax", str(tmax),
                            "--depth", str(depth)], capsys)
    assert code == 0
    _, _, rows = parse_csv(out)
    expected = []
    for k_index, conv in enumerate(cf_expand(golden_ratio_fraction(60), depth).convergents, 1):
        if revival_time(conv.denominator) > tmax:
            break
        expected.append((k_index, conv.denominator, revival_time(conv.denominator)))
    assert [(int(r[0]), int(r[1]), int(r[2])) for r in rows] == expected
    params = WalkParams(Field.golden(), *parse_coin("hadamard")[:2])
    for row in rows:
        _assert_report_cells(row[3:5], params, int(row[1]))


def test_golden_revival_scan_bound_column():
    """The last column is ``deviation_bound`` of each report's exact deviation and
    the kick-angle drifts from the convergent walk, and holds the measured value."""
    a, b, _ = parse_coin("hadamard")
    opts = cli.Options(cli.build_parser().parse_args(
        ["revival-scan", "--field", "golden", "--tmax", "300"]), {})
    _, columns, blocks, _ = cli.HANDLERS["revival-scan"](opts)
    assert columns[-1] == "deviation_bound"
    rows = flatten_blocks(blocks)
    convergents = cf_expand(golden_ratio_fraction(60), 12).convergents[:len(rows)]
    golden = WalkParams(Field.golden(), a, b)
    reports = revival_reports((golden, conv.denominator) for conv in convergents)
    for row, conv, report in zip(rows, convergents, reports):
        time = report.revival_time
        # t * 2*pi*(x - n_k/d_k), wrapped to [-pi, pi]: the drift of each kick angle
        drift = np.abs(np.angle(np.exp(1j * (Field.golden().angles(1, time)
                                             - 2.0 * math.pi * conv.numerator / conv.denominator
                                             * np.arange(1, time + 1)))))
        assert row[-1] == pytest.approx(deviation_bound(report.exact_deviation, drift),
                                        abs=1e-11)
        assert row[4] <= row[-1] <= 2.0
    assert [row[1] for row in rows if row[-1] < 2.0] == [34, 144]


def _strict_json(text):
    """The document of RFC 8259 JSON text: a NaN or infinity token raises."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=reject)


def test_every_experiment_writes_strict_json(capsys):
    for name in ALL_EXPERIMENTS:
        code, out, _ = run_cli([name, *SMALL_ARGV[name], "--format", "json"], capsys)
        assert code == 0, name
        assert _strict_json(out)["experiment"] == name
    code, out, _ = run_cli(["revival-scan", "--field", "golden", "--tmax", "30",
                            "--format", "json"], capsys)
    assert code == 0 and _strict_json(out)["columns"][-1] == "deviation_bound"


def test_cf_last_row_has_no_bound(capsys):
    """The last convergent has no c_{k+1}: its bound is JSON null and an empty CSV cell."""
    code, out, _ = run_cli(["cf", "--depth", "3", "--format", "json"], capsys)
    assert code == 0
    assert _strict_json(out)["rows"][-1] == [3, 1, 2, 3, 0.04863267791677182, None, True]
    code, out, _ = run_cli(["cf", "--depth", "3"], capsys)
    assert code == 0
    assert out.splitlines()[-2:] == ["2,1,1,2,0.11803398874989485,0.25,1",
                                     "3,1,2,3,0.04863267791677182,,1"]


def test_appendix_table_rows_match_each_report(capsys):
    code, out, _ = run_cli(["appendix-table"], capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header[:6] == ["coin", "m", "parity", "revival_time", "sign", "measured_deviation"]
    cases = [(coin, m) for coin in ("identity", "i-sigma-y") for m in range(2, 13)]
    assert [(row[0], int(row[1])) for row in rows] == cases
    entries = {"identity": (1.0, 0.0), "i-sigma-y": (0.0, 1.0)}
    for row, (coin, m) in zip(rows, cases):
        _assert_report_cells(row[4:6], WalkParams(Field.rational(1, m), *entries[coin]), m)


def test_revival_scan_memory_is_one_grid_pass(tmp_path):
    """The grid pass runs one report at a time, so its temporaries stay one grid's size.

    With one search per report, the tracemalloc peak of this scan was
    464917 bytes (numpy 2.4.6, x86-64).
    """
    argv = ["revival-scan", "--m-list", "3,4,5,6,7,8,9,10,11,12", "--out",
            str(tmp_path / "scan.csv")]
    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 464917, peak


def test_evolve_rows_match_per_step_loop(capsys):
    """Strided rows (one evolve call per chunk, partial last chunk) equal a step-by-step loop."""
    code, out, _ = run_cli(["evolve", "--field", "golden", "--tmax", "23", "--stride", "5",
                            "--x0", "-3", "--spinor", "0.6,0.8j"], capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["t", "x", "probability"]
    a, b, _ = parse_coin("hadamard")
    params = WalkParams(field=parse_field("golden"), coin_a=a, coin_b=b)
    state = WalkState.single_site(x=-3, spinor=parse_spinor("0.6,0.8j"))
    expected = []
    for t in range(24):
        if t:
            state = evolve(state, t, t, params)
        if t % 5 == 0 or t == 23:
            expected += [[t, x, p] for x, p in sorted(position_distribution(state).items())]
    assert [[int(t), int(x), float(p)] for t, x, p in rows] == expected


def _bloch_trace_rows(argv, capsys):
    code, out, _ = run_cli(["bloch-trace"] + argv, capsys)
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["t", "sx", "sy", "sz", "r"]
    return meta, [[int(row[0])] + [float(v) for v in row[1:]] for row in rows]


def test_bloch_trace_rows_match_per_step_loop(capsys):
    """One origin-tracking call gives the rows of a step-by-step bloch_vector loop, bit for bit."""
    meta, rows = _bloch_trace_rows(["--field", "1/7", "--coin", "0.6,0.8", "--x0", "-2",
                                    "--spinor", "1j,2", "--tmax", "60"], capsys)
    a, b, _ = parse_coin("0.6,0.8")
    params = WalkParams(field=parse_field("1/7"), coin_a=a, coin_b=b)
    state = WalkState.single_site(x=-2, spinor=parse_spinor("1j,2"))
    expected = []
    for t in range(61):
        if t:
            state = evolve(state, t, t, params)
        sx, sy, sz = bloch_vector(state, 0)
        expected.append([t, sx, sy, sz, math.sqrt(sx ** 2 + sy ** 2 + sz ** 2)])
    assert rows == expected
    assert any(row[1:] != [0.0] * 4 for row in rows)


@pytest.mark.parametrize("x0", [0, -3])
def test_bloch_trace_parity_empty_rows_are_positive_zero(capsys, x0):
    """At times when the origin lies on the empty sublattice, a row is t and four +0.0 cells."""
    argv = ["bloch-trace", "--field", "1/7", "--coin=0.28,-0.96j", "--spinor=0.3,-0.4",
            "--tmax", "200", "--x0", str(x0)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")][1:]
    assert len(lines) == 201
    for t, line in enumerate(lines):
        if (t + x0) % 2:
            assert line == f"{t},0.0,0.0,0.0,0.0"
        elif t >= abs(x0):
            assert line.split(",")[4] != "0.0"


def test_bloch_trace_far_start_reads_zero(capsys):
    meta, rows = _bloch_trace_rows(["--x0", "1000", "--tmax", "5"], capsys)
    assert [row[0] for row in rows] == list(range(6))
    assert all(row[1:] == [0.0] * 4 for row in rows)


def test_cf_rational_field(capsys):
    code, out, _ = run_cli(["cf", "--field", "2/7", "--depth", "10"], capsys)
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["classification"] == "rational"
    assert meta["finite"] == "True"


@pytest.mark.parametrize("argv", [["cf", "--depth", "200"],
                                  ["revival-scan", "--tmax", "30"]], ids=["cf", "revival-scan"])
def test_padded_golden_field_is_the_golden_field(capsys, argv):
    """``--field " golden"`` reads as ``golden``: the same record, byte for byte, with
    the golden expansion to max(60, 3 * depth) digits (all c_k = 1 at depth 200)."""
    padded = run_cli(argv + ["--field", " golden"], capsys)
    golden = run_cli(argv + ["--field", "golden"], capsys)
    assert padded == golden and golden[0] == 0
    if argv[0] == "cf":
        meta, _, rows = parse_csv(golden[1])
        assert meta["classification"] == "bounded-coefficients"
        assert len(rows) == 200 and all(row[1] == "1" for row in rows)


def test_console_script_installed():
    result = subprocess.run([sys.executable, "-m", "qpwalk.cli", "evolve",
                             "--tmax", "2"], capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.startswith("# qpwalk-csv v1")


@pytest.mark.parametrize("argv, lines", [(["--tmax", "2000", "--stride", "1"], 1),
                                         (["--tmax", "2"], 0)], ids=["head-1", "closed-first"])
def test_closed_stdout_pipe_exits_without_a_traceback(argv, lines):
    """A reader that stops early (``qpwalk ... | head -1``) ends the run with exit 1, quietly.

    The long record meets the closed pipe in a write; the short one, whose
    reader closes before the interpreter has started, only in the flush of
    the block-buffered stdout (so PYTHONUNBUFFERED is left out).
    """
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "qpwalk.cli", "evolve", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert [proc.stdout.readline() for _ in range(lines)] == [b"# qpwalk-csv v1\n"] * lines
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""  # no traceback, and no "Exception ignored" from the flush at exit
