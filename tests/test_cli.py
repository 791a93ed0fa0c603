import functools
import inspect
import io
import os
import re
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import squarelab
from squarelab import bench, bitplanes, cli, core, squares
from squarelab.bench import BenchConfig, plot_selection
from squarelab.cli import main
from squarelab.core import MatrixParseError, RectResult, SquareResult
from squarelab.cubes import max_cube
from squarelab.grid import GenSpec, generate_matrix, generate_volume, parse_matrix, parse_volume
from squarelab.histogram import build_histograms, largest_rect_in_histogram


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
    ("solve", "10\n01\n\n01\n11\n"),
], ids=["solve", "rect-on-volume", "solve-on-volume"])
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


# argv with {matrix}, {volume} and {missing} naming files in the run's
# directory, and the bytes each reads on stdin; a plain solve|rect|cube call
# is read without argparse, every other argv by it
PLAIN_OR_NOT = {
    **{f"solve-{algo}": (["solve", "--algo", algo, "{matrix}"], b"")
       for algo in cli.SOLVE_ALGOS},
    "solve": (["solve", "{matrix}"], b""),
    "solve-path-first": (["solve", "{matrix}", "--algo", "dp"], b""),
    "solve-dash": (["solve", "-"], b"1101\n1111\n1111\n0110\n"),
    "solve-stdin": (["solve"], b"1101\n1111\n1111\n0110\n"),
    "rect": (["rect", "{matrix}"], b""),
    "rect-dash": (["rect", "-"], b"1101\n1111\n1111\n0110\n"),
    "cube": (["cube", "{volume}"], b""),
    "cube-brute": (["cube", "--algo", "brute", "{volume}"], b""),
    "cube-dash": (["cube", "--algo", "freq", "-"], b"11\n11\n\n11\n11\n"),
    "cube-stdin": (["cube"], b"11\n11\n\n11\n11\n"),
    "help": (["--help"], b""),
    **{f"{command}-help": ([command, "--help"], b"")
       for command in ("solve", "gen", "verify", "bench", "cube", "rect")},
    "unknown-flag": (["solve", "--bogus", "{matrix}"], b""),
    "bad-choice": (["cube", "--algo", "bits", "{volume}"], b""),
    "two-paths": (["rect", "{matrix}", "{matrix}"], b""),
    "missing-file": (["solve", "{missing}"], b""),
    "abbreviated": (["solve", "--al", "freq", "{matrix}"], b""),
    "gen": (["gen", "--rows", "3", "--cols", "4", "--density", "0.5", "--seed", "7"], b""),
    "verify": (["verify", "--exhaustive-max", "2", "--random-count", "5", "--max-dim", "4"],
               b""),
    "verify-every-flag": (["verify", "--seed", "9", "--mismatch-out", "{out}", "--max-dim", "4",
                           "--random-count", "5", "--exhaustive-max", "2"], b""),
    "verify-negative-seed": (["verify", "--exhaustive-max", "1", "--random-count", "3",
                              "--seed", "-5"], b""),
    "verify-seed-equals": (["verify", "--exhaustive-max", "1", "--random-count", "3",
                            "--seed=3"], b""),
    "verify-abbreviated": (["verify", "--exh", "2", "--random-count", "3", "--max-dim", "4"],
                           b""),
    "verify-repeated": (["verify", "--exhaustive-max", "1", "--random-count", "3",
                         "--seed", "1", "--seed", "2"], b""),
    "verify-max-dim-0": (["verify", "--max-dim", "0"], b""),
    "verify-max-dim-101": (["verify", "--max-dim", "101"], b""),
    "verify-exhaustive-5": (["verify", "--exhaustive-max", "5"], b""),
    "verify-not-a-number": (["verify", "--random-count", "x"], b""),
}

# the cases that exit 2: a usage error, a bad file or a bad verify argument
FAILING = {"unknown-flag", "bad-choice", "two-paths", "missing-file", "verify-max-dim-0",
           "verify-max-dim-101", "verify-exhaustive-5", "verify-not-a-number"}


@pytest.mark.parametrize("case", sorted(PLAIN_OR_NOT))
def test_argparse_reads_every_argv_as_the_plain_reader_does(tmp_path, capsys, monkeypatch,
                                                            case):
    (tmp_path / "matrix").write_bytes(b"1101\n1111\n1111\n0110\n")
    (tmp_path / "volume").write_bytes(b"11\n11\n\n11\n11\n")
    template, data = PLAIN_OR_NOT[case]
    argv = [arg.format(matrix=tmp_path / "matrix", volume=tmp_path / "volume",
                       missing=tmp_path / "missing", out=tmp_path / "found.csv")
            for arg in template]
    elapsed = functools.partial(re.sub, r"elapsed \d+\.\d+s", "elapsed Ts")
    runs = []
    for plain_args in (cli._plain_args, lambda argv: None):
        monkeypatch.setattr(cli, "_plain_args", plain_args)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out, err = run(capsys, *argv)
        runs.append((code, out, elapsed(err)))
    assert runs[0] == runs[1]
    assert runs[0][0] == (2 if case in FAILING else 0)


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
    assert list(tmp_path.iterdir()) == [out_path]  # no partial file is left


WRITE_ARGV = {
    "gen": ["gen", "--rows", "3", "--cols", "4", "--density", "0.5", "--out"],
    "verify": ["verify", "--exhaustive-max", "1", "--random-count", "1", "--max-dim", "2",
               "--mismatch-out"],
}


@pytest.mark.parametrize("command", sorted(WRITE_ARGV))
def test_failed_write_leaves_the_target_as_it_was(tmp_path, capsys, monkeypatch, command):
    import squarelab.verify

    # a freq_square that finds no square makes verify write its mismatches
    monkeypatch.setattr(squarelab.verify, "freq_square",
                        lambda m: SquareResult(0, 0, m.rows * m.cols))

    def fail(src, dst):
        raise OSError("no room to write")

    monkeypatch.setattr(os, "replace", fail)
    target = tmp_path / "out.txt"
    target.write_bytes(b"kept\n")
    code, _, err = run(capsys, *WRITE_ARGV[command], str(target))
    assert code == 2 and err.endswith("squarelab: no room to write\n")
    assert target.read_bytes() == b"kept\n" and list(tmp_path.iterdir()) == [target]


def test_gen_into_a_missing_directory_names_the_file(tmp_path, capsys):
    target = tmp_path / "missing" / "gen.txt"
    code, out, err = run(capsys, *WRITE_ARGV["gen"], str(target))
    assert (code, out) == (2, "")
    assert err == f"squarelab: [Errno 2] No such file or directory: {str(target)!r}\n"


@pytest.mark.parametrize("command", sorted(WRITE_ARGV))
@pytest.mark.parametrize("target", ["empty", "directory"])
def test_an_out_path_that_names_no_file_fails_up_front(tmp_path, capsys, monkeypatch,
                                                       command, target):
    import squarelab.grid
    import squarelab.verify

    def no_work(*args, **kwargs):
        pytest.fail("the work started")

    for name in ("exhaustive_sweep", "random_campaign", "edge_case_suite"):
        monkeypatch.setattr(squarelab.verify, name, no_work)
    monkeypatch.setattr(squarelab.grid, "generate_matrix", no_work)
    monkeypatch.setattr(os, "fork", no_work)
    path = str(tmp_path) if target == "directory" else ""
    flag = WRITE_ARGV[command][-1]
    assert run(capsys, *WRITE_ARGV[command], path) == (
        2, "", f"squarelab: {flag} must name a file, not {path!r}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("make_link", [os.symlink, os.link], ids=["symlink", "hard-link"])
def test_gen_over_a_link_writes_the_linked_file(tmp_path, capsys, make_link):
    real, link = tmp_path / "real.txt", tmp_path / "link.txt"
    real.write_bytes(b"old\n")
    real.chmod(0o640)
    make_link(real, link)
    code, out, err = run(capsys, "gen", "--rows", "1", "--cols", "2", "--density", "1",
                         "--out", str(link))
    assert (code, out, err) == (0, "", "")
    assert real.read_text() == "11\n" and link.is_symlink() == (make_link is os.symlink)
    assert stat.S_IMODE(real.stat().st_mode) == 0o640  # the file's mode, not a new one's
    assert sorted(tmp_path.iterdir()) == [link, real]


def test_gen_out_to_a_device_writes_in_place(capsys):
    code, out, err = run(capsys, *WRITE_ARGV["gen"], os.devnull)
    assert (code, out, err) == (0, "", "")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
def test_gen_over_a_read_only_file_fails_and_keeps_it(tmp_path, capsys):
    target = tmp_path / "out.txt"
    target.write_bytes(b"kept\n")
    target.chmod(0o444)
    code, out, err = run(capsys, *WRITE_ARGV["gen"], str(target))
    assert (code, out) == (2, "") and err.startswith("squarelab: [Errno 13] Permission denied")
    assert target.read_bytes() == b"kept\n" and list(tmp_path.iterdir()) == [target]


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


def test_verify_finding_exits_1_and_writes_the_mismatches(tmp_path, capsys, monkeypatch):
    import squarelab.verify

    # edge_case_suite looks freq_square up at call time; a stand-in that
    # finds no square disagrees with dp_full on each edge case holding a one
    monkeypatch.setattr(squarelab.verify, "freq_square",
                        lambda m: SquareResult(0, 0, m.rows * m.cols))
    csv = tmp_path / "found.csv"
    code, out, err = run(capsys, "verify", "--exhaustive-max", "1", "--random-count", "1",
                         "--max-dim", "2", "--mismatch-out", str(csv))
    assert code == 1
    head, edges = out.split("[edges]\n")
    assert head.count("mismatches=0\n") == head.count("invariant_failures=0\n") == 2
    assert edges.startswith("cases_run=5\nmismatches=3\ninvariant_failures=3\n")
    assert "mismatch case=all_ones_100 rows=100 cols=100\n" in edges
    assert "  sides freq=0 dp_full=100\n" in edges
    assert edges.endswith(
        "invariant_failure case=all_ones_100: freq area 0, expected 10000\n"
        "invariant_failure case=single_row_1000: freq area 0, expected 1\n"
        "invariant_failure case=single_col_1000: freq area 0, expected 1\n")
    assert err.endswith(f"mismatches written to {csv}\n")
    assert csv.read_text(encoding="ascii").splitlines() == [
        "case,rows,cols,cells,freq_side,dp_full_side",
        f"all_ones_100,100,100,{'1' * 10000},0,100",
        f"single_row_1000,1,1000,{'1' * 1000},0,1",
        f"single_col_1000,1000,1,{'1' * 1000},0,1",
    ]


def test_verify_cap_exceeded_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("verify forked"))
    code, _, err = verify_on(capsys, monkeypatch, 2, "--exhaustive-max", "99")
    assert code == 2
    assert "enumerations" in err


@pytest.mark.parametrize("max_dim", ["101", "150"])
def test_verify_max_dim_over_the_oracle_cap_fails_up_front(capsys, monkeypatch, max_dim):
    import squarelab.verify

    def no_campaign(*args, **kwargs):
        pytest.fail("a campaign ran")

    for name in ("exhaustive_sweep", "random_campaign", "edge_case_suite"):
        monkeypatch.setattr(squarelab.verify, name, no_campaign)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("verify forked"))
    code, out, err = verify_on(capsys, monkeypatch, 2, "--max-dim", max_dim)
    assert code == 2
    assert out == ""
    assert f"--max-dim {max_dim}" in err and "10000" in err


def verify_on(capsys, monkeypatch, cpus, *argv):
    """Run `verify argv` as `cpus` shards; it must leave no child behind."""
    import squarelab.verify

    monkeypatch.setattr(squarelab.verify, "_cpus", lambda: cpus)
    result = run(capsys, "verify", *argv)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return result


@pytest.mark.parametrize("finding", [False, True], ids=["clean", "finding"])
def test_verify_writes_the_same_on_any_cpu_count(tmp_path, capsys, monkeypatch, finding):
    import squarelab.verify

    if finding:  # the edge suite's stand-in finding
        monkeypatch.setattr(squarelab.verify, "freq_square",
                            lambda m: SquareResult(0, 0, m.rows * m.cols))
    csv = tmp_path / "found.csv"
    results = []
    for cpus in (1, 2, 3):
        code, out, err = verify_on(capsys, monkeypatch, cpus, "--exhaustive-max", "2",
                                   "--random-count", "7", "--max-dim", "4", "--seed", "9",
                                   "--mismatch-out", str(csv))
        written = csv.read_text(encoding="ascii") if csv.exists() else None
        csv.unlink(missing_ok=True)
        results.append((code, out, re.sub(r"\d+\.\d+s", "", err), written))
    assert results[0][0] == int(finding) and (results[0][3] is None) != finding
    assert results[1:] == [results[0]] * 2


@pytest.mark.parametrize("missing", ["sched_getaffinity", "fork"])
def test_verify_runs_as_one_shard_where_the_os_cannot_shard(capsys, monkeypatch, missing):
    # as on macOS, which has no affinity, or Windows, which has neither
    argv = ("--exhaustive-max", "2", "--random-count", "7", "--max-dim", "4", "--seed", "9")
    monkeypatch.delattr(os, missing)
    if hasattr(os, "fork"):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("verify forked"))
    code, out, _ = run(capsys, "verify", *argv)
    monkeypatch.undo()
    assert (code, out) == verify_on(capsys, monkeypatch, 2, *argv)[:2]
    assert code == 0


def out_of_memory():
    raise MemoryError


# what a shard's child does instead of its first case -> verify's exit and message
CHILD_FAILURES = {
    "out-of-memory": (out_of_memory, 3, "squarelab: out of memory\n"),
    "raises": (lambda: 1 / 0, 2,
               "squarelab: verify shard 1 of 3 failed: ZeroDivisionError: division by zero\n"),
    "dies": (lambda: os._exit(7), 2,
             "squarelab: verify shard 1 of 3 ended with status 7 and no report\n"),
}


@pytest.mark.parametrize("failure", sorted(CHILD_FAILURES))
def test_a_failed_shard_fails_verify_and_leaves_no_child(capsys, monkeypatch, failure):
    import squarelab.verify

    fail, code, err = CHILD_FAILURES[failure]
    parent = os.getpid()

    def freq(m):
        if os.getpid() != parent:
            fail()
        return squares.freq_square(m)

    monkeypatch.setattr(squarelab.verify, "freq_square", freq)
    assert verify_on(capsys, monkeypatch, 3, "--exhaustive-max", "1", "--random-count", "5",
                     "--max-dim", "3") == (code, "", err)


def test_interrupted_verify_kills_its_children(capsys, monkeypatch):
    import squarelab.verify

    parent = os.getpid()

    def freq(m):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # a shard still running when the parent is interrupted

    monkeypatch.setattr(squarelab.verify, "freq_square", freq)
    start = time.monotonic()
    assert verify_on(capsys, monkeypatch, 3, "--exhaustive-max", "1", "--random-count", "5",
                     "--max-dim", "3") == (130, "", "squarelab: interrupted\n")
    assert time.monotonic() - start < 30


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


@pytest.mark.parametrize("flag, value, kind",
                         [("--sizes", "10,abc", "int"), ("--densities", "0.5,x", "float")])
def test_bench_bad_list_names_its_type(capsys, flag, value, kind):
    code, out, err = run(capsys, "bench", flag, value)
    assert (code, out) == (2, "")
    assert err.endswith(
        f"squarelab bench: error: argument {flag}: "
        f"not a comma-separated {kind} list: {value!r}\n")


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
# MARGIN, which holds a block of the file and a board, an eighth of it, but
# not the five boards the rectangle kernel's walk holds at once
OOM_CHILD = """
import resource, sys
from squarelab import cli, histogram
MARGIN = 6 << 20
with open("/proc/self/statm") as statm:
    size = int(statm.read().split()[0]) * resource.getpagesize()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size + MARGIN, hard))
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_running_out_of_memory_exits_3(tmp_path):
    path = tmp_path / "big.txt"
    path.write_bytes((b"1" * 4000 + b"\n") * 4000)  # 16 MB
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


def line_parser_says(data, command="solve"):
    """What `squarelab solve`, `rect` or `cube` prints when the whole text
    goes through the line parser: the square, the first largest rectangle
    of the row-by-row stack, or the cube, that it finds, or the error it
    names."""
    try:
        if command == "cube":
            side = max_cube(parse_volume(data.decode("utf-8", "surrogateescape"))).side
            return 0, f"side={side}\n", ""
        m = parse_matrix(data.decode("utf-8", "surrogateescape"))
    except MatrixParseError as exc:
        return parse_error(exc.line, str(exc))
    if command == "rect":
        r = max(map(largest_rect_in_histogram, build_histograms(m)),
                key=lambda r: r.area, default=RectResult(0, 0, 0))
        return 0, f"area={r.area} h={r.height} w={r.width}\n", ""
    side = squares.dp_rows(m).side
    return 0, f"side={side} area={side * side}\n", ""


SOURCES = ["file", "dash", "pipe"]


def run_from(capsys, monkeypatch, tmp_path, source, data, command, *options):
    """`squarelab command` run in-process on `data` from a file, from `-` on
    a stdin redirected from that file, or from a pipe (`data` must fit in
    its buffer)."""
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    if source == "file":
        return run(capsys, command, str(path), *options)
    if source == "dash":
        stdin = open(path, "rb")
    else:
        read_end, write_end = os.pipe()
        os.write(write_end, data)
        os.close(write_end)
        stdin = open(read_end, "rb")
    with stdin:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(stdin))
        return run(capsys, command, "-", *options)


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("name", EDGE_INPUTS)
def test_edge_inputs_solve_the_same_a_few_lines_at_a_time(tmp_path, capsys, monkeypatch,
                                                         name, source):
    # every grid command reads through the one streamed reader
    monkeypatch.setattr(core, "BLOCK", 6)  # two lines of two cells
    data, *want = EDGE_INPUTS[name]
    for command, kind in EDGE_COMMANDS:
        got = run_from(capsys, monkeypatch, tmp_path, source, data, *command)
        assert got == want[kind], command


MALFORMED = {"ragged": b"101\n10\n101\n", "invalid-char": b"101\n1x1\n",
             "crlf": b"11\r\n11\r\n", "blank-line": b"11\n\n11\n",
             "not-utf8": b"11\n1\xff\n", "empty": b"", "no-final-newline": b"11\n11"}


@pytest.mark.parametrize("kind", MALFORMED)
def test_every_algo_fails_and_solves_as_bits_does(tmp_path, capsys, monkeypatch, kind):
    # every --algo reads through the one streamed reader, so each prints what
    # bits prints, whatever the source; a subprocess pipes the input into one
    # reference algo per kind, in turn
    data, references = MALFORMED[kind], sorted(set(cli.SOLVE_ALGOS) - {"bits"})
    want = run_from(capsys, monkeypatch, tmp_path, "file", data, "solve", "--algo", "bits")
    assert want[0] == (0 if kind in ("empty", "no-final-newline") else 2)
    for algo in cli.SOLVE_ALGOS:
        for source in SOURCES:
            assert run_from(capsys, monkeypatch, tmp_path, source, data,
                            "solve", "--algo", algo) == want, (algo, source)
    env = dict(os.environ, PYTHONPATH=str(Path(squarelab.__file__).parent.parent))
    algo = references[list(MALFORMED).index(kind) % len(references)]
    proc = subprocess.run([sys.executable, "-m", "squarelab", "solve", "--algo", algo],
                          input=data, capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == want


# what `rect` and `cube` print on each MALFORMED input, whatever its source
# and block size; a blank line is a matrix's error, and ends a volume's layer
CUBE_MALFORMED = {
    "ragged": parse_error(2, "line 2 has 2 cells, expected 3"),
    "invalid-char": parse_error(2, "invalid character 'x' at line 2"),
    "crlf": parse_error(1, "invalid character '\\r' at line 1"),
    "blank-line": (0, "side=1\n", ""),
    "not-utf8": parse_error(2, "invalid character '\\udcff' at line 2"),
    "empty": (0, "side=0\n", ""),
    "no-final-newline": (0, "side=1\n", ""),
}
RECT_MALFORMED = {
    "ragged": parse_error(2, "line 2 has 2 cells, expected 3"),
    "invalid-char": parse_error(2, "invalid character 'x' at line 2"),
    "crlf": parse_error(1, "invalid character '\\r' at line 1"),
    "blank-line": blank(2),
    "not-utf8": parse_error(2, "invalid character '\\udcff' at line 2"),
    "empty": (0, "area=0 h=0 w=0\n", ""),
    "no-final-newline": (0, "area=4 h=2 w=2\n", ""),
}


@pytest.mark.parametrize("kind", MALFORMED)
def test_rect_fails_and_solves_as_the_whole_file_read_did(tmp_path, capsys, monkeypatch,
                                                          kind):
    data, want = MALFORMED[kind], RECT_MALFORMED[kind]
    for block in (core.BLOCK, 3):  # a block of whole lines, or one line
        monkeypatch.setattr(core, "BLOCK", block)
        for source in SOURCES:
            assert run_from(capsys, monkeypatch, tmp_path, source, data, "rect") == want, source


@pytest.mark.parametrize("kind", MALFORMED)
def test_cube_fails_and_solves_as_the_whole_file_read_did(tmp_path, capsys, monkeypatch,
                                                          kind):
    data, want = MALFORMED[kind], CUBE_MALFORMED[kind]
    assert line_parser_says(data, "cube") == want
    for block in (core.BLOCK, 3):
        monkeypatch.setattr(core, "BLOCK", block)
        for source in SOURCES:
            for algo in "freq", "brute":
                assert run_from(capsys, monkeypatch, tmp_path, source, data,
                                "cube", "--algo", algo) == want, (source, algo)


def layers_of_ones(depth, rows, cols=2):
    return [(b"1" * cols + b"\n") * rows] * depth


# a volume of three layers of `rows` lines whose middle layer, or whose end,
# is malformed as only a volume can be; with blocks of three lines, layers of
# two, three and four rows end before, at and after a block boundary
VOLUME_KINDS = {
    "short-layer": lambda rows: layers_of_ones(1, rows) + [b"11\n" * (rows - 1)]
                                + layers_of_ones(1, rows),
    "long-layer": lambda rows: layers_of_ones(1, rows) + [b"11\n" * (rows + 1)]
                               + layers_of_ones(1, rows),
    "wide-layer": lambda rows: layers_of_ones(1, rows) + layers_of_ones(1, rows, 3)
                               + layers_of_ones(1, rows),
    "empty-layer": lambda rows: layers_of_ones(1, rows) + [b""] + layers_of_ones(2, rows),
    "trailing-blank": lambda rows: layers_of_ones(3, rows) + [b""],
    # the line error wins over the layer's shape, before or after its rows
    "char-and-short": lambda rows: layers_of_ones(1, rows) + [b"1x\n" + b"11\n" * (rows - 2)]
                                   + layers_of_ones(1, rows),
    "char-and-long": lambda rows: layers_of_ones(1, rows) + [b"11\n" * rows + b"1x\n"]
                                  + layers_of_ones(1, rows),
    "char-in-last-layer": lambda rows: layers_of_ones(2, rows) + [b"11\n" * (rows - 1) + b"1x"],
}


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("kind", VOLUME_KINDS)
def test_a_malformed_layer_fails_as_the_line_parser_says(tmp_path, capsys, monkeypatch,
                                                         kind, source):
    monkeypatch.setattr(core, "BLOCK", 9)  # three lines of two cells
    for rows in 2, 3, 4:
        data = b"\n".join(VOLUME_KINDS[kind](rows))
        want = line_parser_says(data, "cube")
        assert want[0] == 2
        for algo in "freq", "brute":
            assert run_from(capsys, monkeypatch, tmp_path, source, data,
                            "cube", "--algo", algo) == want, (rows, algo)


BAD_LINES = {"char": b"10x1\n", "short": b"101\n", "long": b"10111\n", "blank": b"\n",
             "byte": b"1\xff11\n", "crlf": b"1011\r\n", "last": b"1011"}


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("kind", BAD_LINES)
def test_a_bad_line_anywhere_in_a_block_fails_as_the_line_parser_says(
        tmp_path, capsys, monkeypatch, kind, source):
    # three lines a block: each of three blocks gets the bad line at its
    # first, middle and last line in turn; to `cube`, a blank line ends a layer
    monkeypatch.setattr(core, "BLOCK", 15)
    for at in range(9):
        lines = [b"1011\n"] * 9
        lines[at] = BAD_LINES[kind]
        data = b"".join(lines)
        for command in "solve", "rect", "cube":
            want = line_parser_says(data, command)
            assert want[0] == (0 if kind == "last" and at == 8
                               or command == "cube" and kind == "blank" and at == 4 else 2)
            assert run_from(capsys, monkeypatch, tmp_path, source, data, command) == want, at


# the child runs argv[2:] reading in blocks of argv[1] bytes of whole lines
IN_BLOCKS = """import sys
from squarelab import cli, core
core.BLOCK = int(sys.argv[1])
sys.exit(cli.main(sys.argv[2:]))
"""
SQUARE_OF_ONES = (b"1" * 300 + b"\n") * 300


@pytest.mark.parametrize("tail", [b"1" * 299 + b"2\n", b"1" * 299 + b"\n", b"\n",
                                  b"1" * 300 + b"\r\n", b""],
                         ids=["invalid-char", "ragged", "trailing-blank", "crlf", "none"])
def test_a_bad_last_line_fails_after_the_sweep_stops(tmp_path, tail):
    # side 300, the most 300 columns hold, is reached on line 300; from a
    # file or a pipe, in whole blocks or five lines at a time, the sweep
    # still reads line 301
    data = SQUARE_OF_ONES + tail
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    want = line_parser_says(data)
    assert want[0] == (0 if not tail else 2)
    env = dict(os.environ, PYTHONPATH=str(Path(squarelab.__file__).parent.parent))
    for block in (core.BLOCK, 5 * 301):
        argv = [sys.executable, "-c", IN_BLOCKS, str(block), "solve"]
        for proc in (subprocess.run([*argv, str(path)], capture_output=True, env=env, timeout=60),
                     subprocess.run(argv, input=data, capture_output=True, env=env, timeout=60)):
            assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == want


VOLUME_OF_ONES = b"\n".join([b"11\n11\n"] * 300)


@pytest.mark.parametrize("tail", [b"\n11\n12\n", b"\n11\n1\n", b"\n", b"\n11\r\n11\r\n",
                                  b"12\n", b""],
                         ids=["invalid-char", "ragged", "trailing-blank", "crlf", "long-layer",
                              "none"])
def test_a_bad_last_line_fails_after_the_cube_sweep_stops(tmp_path, tail):
    # side 2, the most two rows hold, is reached on layer 2; from a file or
    # a pipe, in whole layers or a line at a time, the sweep still reads
    # the last line
    data = VOLUME_OF_ONES + tail
    path = tmp_path / "v.txt"
    path.write_bytes(data)
    want = line_parser_says(data, "cube")
    assert want[0] == (0 if not tail else 2)
    env = dict(os.environ, PYTHONPATH=str(Path(squarelab.__file__).parent.parent))
    for block in (core.BLOCK, 3):
        argv = [sys.executable, "-c", IN_BLOCKS, str(block), "cube"]
        for proc in (subprocess.run([*argv, str(path)], capture_output=True, env=env, timeout=60),
                     subprocess.run(argv, input=data, capture_output=True, env=env, timeout=60)):
            assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == want


def test_the_cube_sweep_reads_on_past_the_largest_cube(capsys, monkeypatch):
    monkeypatch.setattr(core, "BLOCK", 3)
    for tail, want in [(b"", (0, "side=2\n", "")),
                       (b"\n11\n1\n", parse_error(902, "line 902 has 1 cells, expected 2"))]:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(VOLUME_OF_ONES + tail)))
        assert run(capsys, "cube") == want


def test_a_valid_file_with_no_final_newline_still_solves(tmp_path, capsys, monkeypatch):
    for block in (core.BLOCK, 5 * 301):
        monkeypatch.setattr(core, "BLOCK", block)
        for source in ("file", "dash"):
            assert run_from(capsys, monkeypatch, tmp_path, source, SQUARE_OF_ONES[:-1],
                            "solve") == (
                0, "side=300 area=90000\n", "")


def test_the_row_sweep_reads_on_past_the_largest_square(capsys, monkeypatch):
    monkeypatch.setattr(core, "BLOCK", 5 * 301)  # five lines a block: the rows are swept
    for tail, want in [(b"", (0, "side=300 area=90000\n", "")),
                       (b"12\n", parse_error(601, "line 601 has 2 cells, expected 300"))]:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(SQUARE_OF_ONES * 2 + tail)))
        assert run(capsys, "solve") == want


def spy_on_fold(monkeypatch):
    """The list of the blocks `bitplanes.fold_columns` folds from now on."""
    folded, fold_columns = [], bitplanes.fold_columns
    monkeypatch.setattr(bitplanes, "fold_columns",
                        lambda columns, block: folded.append(block) or fold_columns(columns, block))
    return folded


def test_a_tall_matrix_gives_one_side_down_either_axis(tmp_path, capsys, monkeypatch):
    # a file, `-` and a pipe take the same axis: the matrix is folded into
    # columns when a full block holds more lines than cols (eight lines of
    # seven cells at 64 bytes a block), and its rows are swept when it holds
    # no more (seven lines at 56 bytes)
    folded = spy_on_fold(monkeypatch)
    for block in 64, 56:
        monkeypatch.setattr(core, "BLOCK", block)
        for seed in range(4):
            m = generate_matrix(GenSpec(2000, 7, 0.95, seed))
            data = m.to_text()
            for source in SOURCES:
                folded.clear()
                assert run_from(capsys, monkeypatch, tmp_path, source, data, "solve") == \
                    line_parser_says(data)
                assert b"".join(folded) == (b"" if block == 56 else data), (block, source)


# the width picks the axis before any block is read: at the default block a
# matrix under 256 columns is folded, even one shorter than a block
# (10x200), and a wider one has its rows swept; the last three are
# `solve_large`'s shapes, by file and `-` (a pipe holds no more than 64 KiB)
@pytest.mark.parametrize("rows, cols, sources", [(10, 200, SOURCES),
                                                 (4000, 250, SOURCES[:2]),
                                                 (1000, 1000, SOURCES[:2]),
                                                 (250, 4000, SOURCES[:2])])
def test_the_width_picks_the_axis(tmp_path, capsys, monkeypatch, rows, cols, sources):
    folded = spy_on_fold(monkeypatch)
    data = generate_matrix(GenSpec(rows, cols, 0.9, rows)).to_text()
    want = line_parser_says(data)
    for source in sources:
        folded.clear()
        assert run_from(capsys, monkeypatch, tmp_path, source, data, "solve") == want
        assert b"".join(folded) == (data if cols < 256 else b""), source


# the reader's check is the one check of a file's bytes: every command, and
# every --algo, hands each line of cells to `core._is_lines` once, so the
# bytes checked are the file's, less the blank lines between layers
@pytest.mark.parametrize("source", SOURCES)
def test_each_line_of_a_file_is_checked_once(tmp_path, capsys, monkeypatch, source):
    monkeypatch.setattr(core, "BLOCK", 64)  # a few lines a block
    checked, is_lines = [], core._is_lines
    monkeypatch.setattr(core, "_is_lines",
                        lambda block, stride: checked.append(len(block)) or is_lines(block, stride))
    matrix = generate_matrix(GenSpec(40, 9, 0.9, 1)).to_text()
    volume = generate_volume(GenSpec(5, 6, 0.9, 1, depth=4)).to_text()
    runs = [*((matrix, ["solve", "--algo", algo]) for algo in cli.SOLVE_ALGOS),
            (matrix, ["rect"]),
            *((volume, ["cube", "--algo", algo]) for algo in ("freq", "brute"))]
    for data, command in runs:
        checked.clear()
        code, _, err = run_from(capsys, monkeypatch, tmp_path, source, data, *command)
        assert (code, err) == (0, "")
        assert sum(checked) == len(data) - data.count(b"\n\n"), command


# `python -m squarelab` ends through cli.entrypoint, which skips the
# interpreter's teardown; each run must still print, write and exit exactly
# as main() under the interpreter's own exit does
OLD_EXIT = "import sys; from squarelab.cli import main; sys.exit(main())"
HOW_TO_RUN = {"entrypoint": ["-m", "squarelab"], "interpreter-exit": ["-c", OLD_EXIT]}

# argv, with {matrix}, {volume} and {ragged} naming small files in the run's
# directory; verify's per-section times are the one output that may differ
EXIT_CASES = {
    "solve": ["solve", "{matrix}"],
    "rect": ["rect", "{matrix}"],
    "cube": ["cube", "{volume}"],
    "help": ["--help"],
    "unknown-flag": ["solve", "--bogus"],
    "ragged": ["solve", "{ragged}"],
    "verify": ["verify", "--exhaustive-max", "2", "--random-count", "30", "--max-dim", "6"],
}


def fresh_env(unbuffered=""):
    """This squarelab, with stdout buffered as a user's is unless asked, so
    that what is left unflushed at the end of a run shows."""
    return dict(os.environ, PYTHONPATH=str(Path(squarelab.__file__).parent.parent),
                PYTHONUNBUFFERED=unbuffered)


def run_each_way(tmp_path, argv, unbuffered="", **kwargs):
    """argv run in tmp_path through each of HOW_TO_RUN, in that order."""
    files = {"matrix": b"1101\n1111\n1111\n0110\n", "volume": b"11\n11\n\n11\n11\n",
             "ragged": b"111\n11\n111\n"}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    argv = [a.format(**{name: name for name in files}) for a in argv]
    return [subprocess.run([sys.executable, *how, *argv], cwd=tmp_path, env=fresh_env(unbuffered),
                           timeout=60, **kwargs)
            for how in HOW_TO_RUN.values()]


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_the_entrypoint_exits_as_the_interpreter_did(tmp_path, case):
    new, old = run_each_way(tmp_path, EXIT_CASES[case], capture_output=True)
    elapsed = functools.partial(re.sub, rb"elapsed \d+\.\d+s", b"elapsed Ts")
    assert (new.returncode, new.stdout, elapsed(new.stderr)) == \
        (old.returncode, old.stdout, elapsed(old.stderr))
    assert new.returncode == {"unknown-flag": 2, "ragged": 2}.get(case, 0)
    if case == "ragged":
        assert b"parse error (line 2)" in new.stderr


# unbuffered, gen's write fails in main(), which prints why and returns 2,
# and argparse drops the help it could not write; buffered, both fail only
# in the flush at exit, which the interpreter's exit reports
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["gen", "--rows", "3", "--cols", "3", "--density", "1"],
                                  ["--help"]], ids=["gen", "help"])
def test_the_entrypoint_exits_as_the_interpreter_did_on_a_full_device(tmp_path, argv,
                                                                      unbuffered):
    with open("/dev/full", "wb") as full:
        new, old = run_each_way(tmp_path, argv, unbuffered, stdout=full, stderr=subprocess.PIPE)
    assert (new.returncode, new.stderr) == (old.returncode, old.stderr)
    gen_says = b"squarelab: [Errno 28] No space left on device\n" if argv[0] == "gen" else b""
    if unbuffered:
        assert (new.returncode, new.stderr) == (2 if gen_says else 0, gen_says)
    else:
        assert new.stderr.startswith(gen_says + b"Exception ignored")
        assert new.stderr.endswith(b"OSError: [Errno 28] No space left on device\n")


def test_the_entrypoint_exits_as_the_interpreter_did_when_the_reader_leaves(tmp_path):
    argv = ["gen", "--rows", "1000", "--cols", "1000", "--density", "0.5"]
    gone, leaves = [], []
    for how in HOW_TO_RUN.values():
        # a reader gone before the run starts: the first write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, *how, *argv], cwd=tmp_path, env=fresh_env(),
                                  stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        gone.append((proc.stderr, proc.returncode))
        # a reader that takes one byte and closes its end while the megabyte
        # of text is still being written into the pipe
        proc = subprocess.Popen([sys.executable, *how, *argv], cwd=tmp_path, env=fresh_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.read(1)
        proc.stdout.close()
        leaves.append((len(first), proc.stderr.read(), proc.wait(timeout=60)))
        proc.stderr.close()
    assert gone[0] == gone[1] == (b"", 141)
    assert leaves[0] == leaves[1] == (1, b"", 141)


def test_the_entrypoint_leaves_the_whole_file_it_writes(tmp_path):
    argv = ["gen", "--rows", "300", "--cols", "200", "--density", "0.5", "--seed", "4",
            "--out", "gen.txt"]
    written = []
    for how in HOW_TO_RUN.values():
        proc = subprocess.run([sys.executable, *how, *argv], cwd=tmp_path, capture_output=True,
                              env=fresh_env(), timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        written.append((tmp_path / "gen.txt").read_bytes())
    assert written[0] == written[1] == generate_matrix(GenSpec(300, 200, 0.5, 4)).to_text()


# a handler that start-up registers before the module runs (coverage's
# process start-up, from a .pth file, does) still runs, and what it writes
# is flushed with the rest; a script that runs the module through runpy
# gets the interpreter's exit, so its own code after the run runs too
REGISTER_A_HANDLER = """import atexit, sys
atexit.register(print, "handler ran")
atexit.register(sys.stderr.write, "handler ran")
"""
RUN_AND_GO_ON = """import runpy, sys
sys.argv = ["squarelab", *sys.argv[1:]]
try:
    runpy.run_module("squarelab", run_name="__main__", alter_sys=True)
finally:
    print("script went on")
"""


def test_an_atexit_handler_registered_before_the_run_still_runs(tmp_path):
    (tmp_path / "m.txt").write_bytes(b"110\n111\n011\n")
    (tmp_path / "startup").mkdir()
    (tmp_path / "startup" / "sitecustomize.py").write_text(REGISTER_A_HANDLER)
    env = fresh_env()
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path / "startup"), env["PYTHONPATH"]])
    proc = subprocess.run([sys.executable, "-m", "squarelab", "solve", "m.txt"],
                          cwd=tmp_path, capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, b"side=2 area=4\nhandler ran\n", b"handler ran")


def test_a_script_that_runs_the_module_goes_on_after_it(tmp_path):
    (tmp_path / "m.txt").write_bytes(b"110\n111\n011\n")
    proc = subprocess.run([sys.executable, "-c", RUN_AND_GO_ON, "solve", "m.txt"],
                          cwd=tmp_path, capture_output=True, env=fresh_env(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, b"side=2 area=4\nscript went on\n", b"")


# a profiler reports after the run returns, and a debugger takes over again,
# so under either the entrypoint leaves the exit to the interpreter
def test_a_profiled_run_still_reports(tmp_path):
    (tmp_path / "m.txt").write_bytes(b"110\n111\n011\n")
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "squarelab", "solve", "m.txt"],
                          cwd=tmp_path, capture_output=True, env=fresh_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(b"side=2 area=4\n")
    assert b"function calls" in proc.stdout


def test_a_debugged_run_returns_to_the_debugger(tmp_path):
    (tmp_path / "m.txt").write_bytes(b"110\n111\n011\n")
    proc = subprocess.run([sys.executable, "-m", "pdb", "-m", "squarelab", "solve", "m.txt"],
                          cwd=tmp_path, input=b"continue\nquit\n", capture_output=True,
                          env=fresh_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert b"side=2 area=4\n" in proc.stdout
    assert b"The program exited via sys.exit(). Exit status: 0" in proc.stdout
