import functools
import inspect
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import squarelab
from squarelab import bench, cli, squares
from squarelab.bench import BenchConfig, plot_selection
from squarelab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_all_ones(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("111\n111\n111\n")
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    assert out == "side=3 area=9\n"


@pytest.mark.parametrize("algo", ["bits", "freq", "dp", "dp2d", "brute"])
def test_solve_algorithms_agree(tmp_path, capsys, algo):
    path = tmp_path / "m.txt"
    path.write_text("1101\n1111\n1111\n0110\n")
    code, out, _ = run(capsys, "solve", str(path), "--algo", algo)
    assert code == 0
    assert out == "side=2 area=4\n"


def test_solve_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("")
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    assert out == "side=0 area=0\n"


def test_solve_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"11\n11\n")))
    code, out, _ = run(capsys, "solve")
    assert code == 0
    assert out == "side=2 area=4\n"


def test_solve_parse_error_names_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("111\n1x1\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("command, data", [
    ("solve", b"101\r\n111\r\n"),
    ("solve", b"101\r111\r"),  # a lone '\r' is not a line break either
    ("cube", b"11\r\n11\r\n\r\n11\r\n11\r\n"),
], ids=["solve-crlf", "solve-lone-cr", "cube-crlf"])
def test_crlf_file_is_rejected(tmp_path, capsys, command, data):
    # a file must fail as the same bytes on stdin do, not be read as '\n' lines
    path = tmp_path / "crlf.txt"
    path.write_bytes(data)
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err == "squarelab: parse error (line 1): invalid character '\\r' at line 1\n"


@pytest.mark.parametrize("command, data, line, char", [
    ("solve", "10\n1é\n".encode(), 2, "é"),
    ("cube", "11\n11\n\n11\n1é\n".encode(), 5, "é"),
    ("solve", b"10\n1\xff\n", 2, "\\udcff"),  # not UTF-8: kept as a surrogate
], ids=["solve-utf8", "cube-utf8", "solve-invalid-utf8"])
def test_non_ascii_file_names_line(tmp_path, capsys, command, data, line, char):
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err == f"squarelab: parse error (line {line}): invalid character '{char}' at line {line}\n"


def solve_file_and_stdin(tmp_path, data, io_encoding=None):
    """`squarelab solve` run on `data` as a file and on stdin, in that order."""
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    env = dict(os.environ, PYTHONPATH=str(Path(squarelab.__file__).parent.parent))
    if io_encoding is not None:
        env["PYTHONIOENCODING"] = io_encoding
    argv = [sys.executable, "-m", "squarelab", "solve"]
    return (subprocess.run([*argv, str(path)], capture_output=True, env=env, timeout=60),
            subprocess.run(argv, input=data, capture_output=True, env=env, timeout=60))


def test_non_ascii_file_fails_as_stdin(tmp_path):
    from_file, from_stdin = solve_file_and_stdin(tmp_path, b"10\n1\xc3\xa9\n1\xff\n")
    assert from_file.returncode == from_stdin.returncode == 2
    assert from_file.stderr == from_stdin.stderr
    assert b"(line 2): invalid character" in from_file.stderr


@pytest.mark.parametrize("io_encoding", ["utf-8:strict", "latin-1"])
@pytest.mark.parametrize("data", [b"10\n1\xff\n", "10\n1é\n".encode()],
                         ids=["invalid-utf8", "utf8"])
def test_stdin_decoding_ignores_the_io_encoding(tmp_path, io_encoding, data):
    # stdin is decoded as files are, not by PYTHONIOENCODING or the locale
    from_file, from_stdin = solve_file_and_stdin(tmp_path, data, io_encoding)
    assert from_file.returncode == from_stdin.returncode == 2
    assert from_file.stderr == from_stdin.stderr
    assert b"parse error (line 2): invalid character" in from_stdin.stderr


@pytest.mark.parametrize("command, text", [
    ("solve", "10\n01\n\n"),
    ("rect", "10\n01\n\n01\n11\n"),  # a volume is not a matrix
], ids=["solve", "rect-on-volume"])
def test_blank_line_in_matrix_is_named(capsys, monkeypatch, command, text):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    code, out, err = run(capsys, command)
    assert code == 2
    assert out == ""
    assert "line 3 is blank" in err


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, "solve", "/no/such/file")
    assert code == 2
    assert err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_unknown_flag(capsys):
    assert main(["solve", "--bogus"]) == 2
    capsys.readouterr()


def test_gen_density_one(capsys):
    code, out, _ = run(capsys, "gen", "--rows", "2", "--cols", "2",
                       "--density", "1")
    assert code == 0
    assert out == "11\n11\n"


def test_gen_deterministic(capsys):
    args = ["gen", "--rows", "6", "--cols", "5", "--density", "0.4",
            "--seed", "9"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_rejects_out_of_range_density(capsys):
    code, _, err = run(capsys, "gen", "--rows", "2", "--cols", "2",
                       "--density", "1.5")
    assert code == 2
    assert "density" in err


def test_gen_writes_file(tmp_path, capsys):
    out_path = tmp_path / "gen.txt"
    code, out, _ = run(capsys, "gen", "--rows", "3", "--cols", "3",
                       "--density", "1", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text() == "111\n111\n111\n"


def test_gen_depth_emits_volume(capsys):
    code, out, _ = run(capsys, "gen", "--rows", "2", "--cols", "2",
                       "--density", "1", "--depth", "2")
    assert code == 0
    assert out == "11\n11\n\n11\n11\n"


def test_gen_volume_feeds_cube(tmp_path, capsys):
    path = tmp_path / "v.txt"
    main(["gen", "--rows", "3", "--cols", "3", "--density", "1",
          "--depth", "3", "--out", str(path)])
    capsys.readouterr()
    code, out, _ = run(capsys, "cube", str(path))
    assert code == 0
    assert out == "side=3\n"


def test_verify_small_clean(capsys):
    code, out, err = run(capsys, "verify", "--exhaustive-max", "2",
                         "--random-count", "50", "--max-dim", "8",
                         "--seed", "3")
    assert code == 0
    assert "[exhaustive]" in out
    assert "cases_run=26" in out
    assert "[random]" in out
    assert "[edges]" in out
    assert "mismatches=0" in out
    assert "elapsed" in err


def test_verify_deterministic_stdout(capsys):
    args = ["verify", "--exhaustive-max", "2", "--random-count", "40",
            "--max-dim", "8", "--seed", "5"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_cap_exceeded_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--exhaustive-max", "99")
    assert code == 2
    assert "enumerations" in err


@pytest.mark.parametrize("max_dim", ["101", "150"])
def test_verify_max_dim_over_the_oracle_cap_fails_up_front(capsys, monkeypatch, max_dim):
    import squarelab.verify

    def no_campaign(*args, **kwargs):
        pytest.fail("a campaign ran")

    for name in ("exhaustive_sweep", "random_campaign", "edge_case_suite"):
        monkeypatch.setattr(squarelab.verify, name, no_campaign)
    code, out, err = run(capsys, "verify", "--max-dim", max_dim)
    assert code == 2
    assert out == ""
    assert f"--max-dim {max_dim}" in err and "10000" in err


def test_solve_dp2d_over_its_cell_cap_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "DP2D_CELL_CAP", 9)
    monkeypatch.setattr(squares, "dp_full", lambda m: pytest.fail("dp2d ran"))
    path = tmp_path / "m.txt"
    path.write_text("1111\n1111\n1111\n")
    code, out, err = run(capsys, "solve", str(path), "--algo", "dp2d")
    assert code == 2 and out == ""
    assert err == "squarelab: 3x4 = 12 cells exceeds dp2d cap 9\n"
    code, out, _ = run(capsys, "solve", str(path), "--algo", "bits")
    assert (code, out) == (0, "side=3 area=9\n")
    monkeypatch.setattr(cli, "DP2D_CELL_CAP", 12)
    monkeypatch.setattr(squares, "dp_full", squares.BASELINES["dp_full"])
    code, out, _ = run(capsys, "solve", str(path), "--algo", "dp2d")
    assert (code, out) == (0, "side=3 area=9\n")


def test_verify_rejects_nonpositive_flags(capsys):
    code, _, _ = run(capsys, "verify", "--exhaustive-max", "0")
    assert code == 2


def test_bench_markdown_cardinality(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "10,20",
                       "--densities", "0.1,0.9", "--runs", "3",
                       "--trim", "0.1", "--format", "md")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2 + 4
    assert lines[0].startswith("| Size |")


def test_bench_csv_header(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "8", "--densities", "0.5",
                       "--runs", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "size,density,std_ms,user_ms,speedup,same_result"


def test_bench_edge_cases_four_rows(capsys):
    code, out, _ = run(capsys, "bench", "--edge-cases", "--runs", "2",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "case,std_ms,user_ms,speedup,same_result"
    assert len(lines) == 5


def test_bench_edge_cases_md_notes_skip(capsys):
    code, out, _ = run(capsys, "bench", "--edge-cases", "--runs", "2")
    assert code == 0
    assert "Skipped (empty matrix)" in out


def test_bench_plot_series(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "8,12",
                       "--densities", "0.2,0.8", "--runs", "2",
                       "--plot", "speedup_vs_density")
    assert code == 0
    assert out.splitlines()[0] == "size,density,speedup"


def test_bench_plot_time_at_size(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "8,12",
                       "--densities", "0.2,0.8", "--runs", "2",
                       "--plot", "time_vs_density_at_size",
                       "--plot-size", "12")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "density,std_ms,user_ms"
    assert len(lines) == 3


def test_bench_bad_sizes_list(capsys):
    code, _, _ = run(capsys, "bench", "--sizes", "10,abc")
    assert code == 2


def test_bench_defaults_are_bench_config(capsys, monkeypatch):
    configs, sizes = [], []
    monkeypatch.setattr(bench, "run_grid", lambda config: configs.append(config) or [])
    assert main(["bench"]) == 0
    assert configs == [BenchConfig()]
    # the --baseline default follows BenchConfig's, through BASELINE_FLAGS
    monkeypatch.setattr(bench, "BenchConfig", functools.partial(BenchConfig, baseline="dp_rows"))
    assert main(["bench"]) == 0
    assert configs[-1] == BenchConfig(baseline="dp_rows")
    # the --plot-size default is plot_selection's
    monkeypatch.setattr(bench, "plot_selection",
                        lambda records, target, size: sizes.append(size) or records)
    assert main(["bench", "--plot", "time_vs_density_at_size"]) == 0
    assert sizes == [inspect.signature(plot_selection).parameters["size"].default]


def test_bench_baseline_flag(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "8", "--densities", "0.5",
                       "--runs", "2", "--baseline", "dp", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].endswith("true")


def test_cube_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"11\n11\n\n11\n11\n")))
    code, out, _ = run(capsys, "cube")
    assert code == 0
    assert out == "side=2\n"


def test_cube_all_zeros(tmp_path, capsys):
    path = tmp_path / "v.txt"
    path.write_text("00\n00\n\n00\n00\n")
    code, out, _ = run(capsys, "cube", str(path))
    assert code == 0
    assert out == "side=0\n"


def test_cube_algos_agree(tmp_path, capsys):
    main(["gen", "--rows", "5", "--cols", "5", "--density", "0.6",
          "--depth", "5", "--seed", "13", "--out",
          str(tmp_path / "v.txt")])
    capsys.readouterr()
    code1, out1, _ = run(capsys, "cube", str(tmp_path / "v.txt"),
                         "--algo", "freq")
    code2, out2, _ = run(capsys, "cube", str(tmp_path / "v.txt"),
                         "--algo", "brute")
    assert code1 == code2 == 0
    assert out1 == out2


def test_cube_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("11\n1\n")
    code, _, err = run(capsys, "cube", str(path))
    assert code == 2
    assert "line 2" in err


def test_rect_examples(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("111\n110\n")
    code, out, _ = run(capsys, "rect", str(path))
    assert code == 0
    assert out == "area=4 h=2 w=2\n"


def test_rect_all_ones(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("111\n111\n111\n")
    code, out, _ = run(capsys, "rect", str(path))
    assert code == 0
    assert out == "area=9 h=3 w=3\n"


def test_rect_all_zeros(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("000\n000\n")
    code, out, _ = run(capsys, "rect", str(path))
    assert code == 0
    assert out == "area=0 h=0 w=0\n"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_silently(unbuffered):
    # the read end is closed before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ,
               PYTHONPATH=str(Path(squarelab.__file__).parent.parent),
               PYTHONUNBUFFERED=unbuffered)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "squarelab", "verify", "--exhaustive-max", "2",
             "--random-count", "5"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    # a buffered stdout fails only at the final flush, after the per-section
    # timings went to stderr; nothing else may follow them
    lines = proc.stderr.decode().splitlines()
    assert all(re.fullmatch(r"\w+: elapsed \d+\.\d+s", line) for line in lines)
    assert not unbuffered or lines == []


def test_keyboard_interrupt_exits_130(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._HANDLERS, "solve", interrupted)
    code, out, err = run(capsys, "solve", "-")
    assert code == 130
    assert out == ""
    assert err == "squarelab: interrupted\n"


def test_memory_error_exits_3(capsys, monkeypatch):
    def out_of_memory(args):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "rect", out_of_memory)
    assert run(capsys, "rect", "-") == (3, "", "squarelab: out of memory\n")


# the child limits its own address space to its size after the imports plus
# MARGIN, which holds the file once but not the checked copy of it
OOM_CHILD = """
import resource, sys
from squarelab import cli, histogram
MARGIN = 20 << 20
with open("/proc/self/statm") as statm:
    size = int(statm.read().split()[0]) * resource.getpagesize()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size + MARGIN, hard))
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_running_out_of_memory_exits_3(tmp_path):
    path = tmp_path / "big.txt"
    path.write_bytes((b"1" * 4000 + b"\n") * 3000)  # 12 MB
    env = dict(os.environ, PYTHONPATH=str(Path(squarelab.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", OOM_CHILD, "rect", str(path)],
                          capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, b"", b"squarelab: out of memory\n")


def test_solve_dp_flags_run_the_bench_baselines():
    # SOLVE_ALGOS names squares functions; BASELINES keys are those names
    for name in cli.SOLVE_ALGOS.values():
        assert inspect.isfunction(getattr(squares, name)), name
    for flag, name in cli.BASELINE_FLAGS.items():
        assert cli.SOLVE_ALGOS[flag] == name
        assert squares.BASELINES[name] is getattr(squares, name)
    assert bench.BASELINES is squares.BASELINES
    assert sorted(cli.SOLVE_ALGOS) == ["bits", "brute", "dp", "dp2d", "freq"]


def blank(line):
    return (2, "", f"squarelab: parse error (line {line}): line {line} is blank; "
                   "a matrix has no blank lines\n")


def parse_error(line, message):
    return 2, "", f"squarelab: parse error (line {line}): {message}\n"


# inputs next to the edges of the bulk check, and what each subcommand printed
# when every file went through the line parser: (solve, rect, cube)
EDGE_INPUTS = {
    # cols 0 from the first newline; a naive check would pass it
    "leading-blank": (b"\n11\n11\n", blank(1), blank(1),
                      parse_error(1, "empty layer before line 1")),
    "no-final-newline": (b"11\n11", (0, "side=2 area=4\n", ""),
                         (0, "area=4 h=2 w=2\n", ""), (0, "side=1\n", "")),
    "trailing-blank": (b"11\n11\n\n", blank(3), blank(3),
                       parse_error(4, "empty layer before line 4")),
    "crlf": (b"11\r\n11\r\n", *[parse_error(1, "invalid character '\\r' at line 1")] * 3),
    "lone-cr": (b"11\r11\r", *[parse_error(1, "invalid character '\\r' at line 1")] * 3),
    "not-utf8": (b"11\n1\xff\n", *[parse_error(2, "invalid character '\\udcff' at line 2")] * 3),
    "two-blank-lines": (b"11\n11\n\n\n11\n11\n", blank(3), blank(3),
                        parse_error(4, "empty layer before line 4")),
    "short-last-layer": (b"11\n11\n\n11\n", blank(3), blank(3),
                         parse_error(5, "layer 2 is 1x2, expected 2x2 (line 5)")),
    "underscore": (b"1_\n11\n", *[parse_error(1, "invalid character '_' at line 1")] * 3),
    "plus": (b"+1\n11\n", *[parse_error(1, "invalid character '+' at line 1")] * 3),
    "space": (b" 1\n11\n", *[parse_error(1, "invalid character ' ' at line 1")] * 3),
}
EDGE_COMMANDS = [
    *((["solve", "--algo", algo], 0) for algo in ("bits", "freq", "dp", "dp2d", "brute")),
    (["rect"], 1),
    *((["cube", "--algo", algo], 2) for algo in ("freq", "brute")),
]


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("name", EDGE_INPUTS)
def test_edge_inputs_print_what_the_line_parser_printed(tmp_path, capsys, monkeypatch,
                                                       name, source):
    data, *want = EDGE_INPUTS[name]
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    for command, kind in EDGE_COMMANDS:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        where = str(path) if source == "file" else "-"
        assert run(capsys, command[0], where, *command[1:]) == want[kind], command
