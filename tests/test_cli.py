import json
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from conftest import reference_write_record

from qpwalk import __version__, cli
from qpwalk.cli import (ConfigError, parse_coin, parse_field, parse_int_list,
                        parse_spinor)
from qpwalk.walk import WalkParams, WalkState, bloch_vector, evolve, position_distribution

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
    assert field.turns_fraction == Fraction(1, 155)


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


def test_parse_spinor_normalizes():
    u, d = parse_spinor("3,4j")
    assert abs(u) ** 2 + abs(d) ** 2 == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        parse_spinor("0,0")


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
            # the golden scan needs tmax >= 1 and c_{k+1}, so depth >= 2
            ["revival-scan", "--field", "golden", "--tmax", "0"],
            ["revival-scan", "--field", "golden", "--tmax", "-5"],
            ["revival-scan", "--field", "golden", "--depth", "1"],
            # rational fields are scanned through --m-list only
            ["revival-scan", "--field", "1/7"]]


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
        assert run_cli(argv + ["--out", str(out_file)], capsys)[0] == 2, argv
        assert not out_file.exists(), argv


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
    metadata, columns, rows, _ = cli.HANDLERS[name](opts)
    rows = list(rows)
    native = (int, float, bool, str)
    assert all(type(cell) in native for row in rows for cell in row)
    assert all(type(value) in native for value in metadata.values())
    record = {"experiment": name, "columns": columns, "rows": rows,
              "metadata": {"experiment": name, "version": __version__, "backend": "numpy",
                           **metadata}}
    reference = tmp_path / "reference"
    reference_write_record(record, str(reference), fmt)
    assert streamed.encode() == out_file.read_bytes() == reference.read_bytes()


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


def test_revival_scan_golden_mode(capsys):
    code, out, _ = run_cli(["revival-scan", "--field", "golden",
                            "--tmax", "12", "--depth", "8"], capsys)
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["k_index", "d_k", "revival_time", "sign",
                      "measured_deviation", "bound_leading"]
    for row in rows:
        assert float(row[4]) <= float(row[5]) + 1e-9


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


def test_console_script_installed():
    result = subprocess.run([sys.executable, "-m", "qpwalk.cli", "evolve",
                             "--tmax", "2"], capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.startswith("# qpwalk-csv v1")
