"""CLI contract: CSV shape, determinism, and check exit codes.

Output and exit codes are checked through ``cli.main`` in this process; the
tests whose point is the process itself (byte-identical reruns, worker
processes, ``--help``) start ``python -m hrislink.cli``.
"""

import subprocess
import sys

import pytest

from hrislink import cli
from hrislink.harness import CSV_HEADER
from hrislink.scenario import SCHEMES

CFG_TEXT = """\
m = 4
n = 8
nc = 2
l = 2
r = 2
t = 4
k = 16
rho = 0.9
pt_dbm = 30.0
"""


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hrislink.cli", *args],
        capture_output=True, text=True,
    )


@pytest.fixture()
def run_main(capsys):
    """``run_main(*args)`` runs ``cli.main(args)`` here and returns its exit code and captured output as
    ``run_cli`` does."""
    def run(*args):
        code = cli.main(list(args))
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, out, err)
    return run


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "desk.cfg"
    path.write_text(CFG_TEXT)
    return str(path)


def test_sweep_emits_documented_csv(cfg_file, tmp_path, run_main):
    out = tmp_path / "curve.csv"
    result = run_main("sweep", "--config", cfg_file, "--pair", "kronf-bals",
                      "--sweep", "pt", "--points", "20,30", "--trials", "3",
                      "--seed", "1", "--out", str(out))
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 11
        assert fields[0] == "pt"
        [float(v) for v in fields[1:]]  # all numeric


def test_sweep_byte_identical_reruns(cfg_file, tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("sweep", "--config", cfg_file, "--pair", "bals-bals",
            "--sweep", "rho", "--points", "0.5,0.9", "--trials", "2", "--seed", "7")
    assert run_cli(*args, "--out", str(out_a)).returncode == 0
    assert run_cli(*args, "--out", str(out_b)).returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_workers_give_byte_identical_csv(cfg_file, tmp_path):
    outs = {workers: tmp_path / f"workers{workers}.csv" for workers in (1, 2)}
    for workers, out in outs.items():
        result = run_cli("sweep", "--config", cfg_file, "--pair", "bals-bals", "--sweep", "rho",
                         "--points", "0.5,0.9", "--trials", "3", "--seed", "7",
                         "--workers", str(workers), "--out", str(out))
        assert result.returncode == 0, result.stderr
    assert outs[1].read_bytes() == outs[2].read_bytes()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_rejects_fewer_than_one_worker(cfg_file, workers, run_main):
    result = run_main("sweep", "--config", cfg_file, "--pair", "kronf-h", "--sweep", "pt",
                      "--points", "30", "--trials", "1", "--workers", workers)
    assert result.returncode == 1
    assert "workers must be at least 1" in result.stderr and not result.stdout


def test_sweep_to_stdout(cfg_file, run_main):
    result = run_main("sweep", "--config", cfg_file, "--pair", "kronf-h",
                      "--sweep", "pt", "--points", "30", "--trials", "1", "--seed", "0")
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == CSV_HEADER


def test_check_exit_codes(cfg_file, tmp_path, run_main):
    ok = run_main("check", "--config", cfg_file, "--pair", "kronf-bals")
    assert ok.returncode == 0, ok.stderr
    assert "identifiable: yes" in ok.stdout
    assert "feedback bits" in ok.stdout

    short = tmp_path / "short.cfg"
    short.write_text(CFG_TEXT.replace("k = 16", "k = 8"))
    bad = run_main("check", "--config", str(short), "--pair", "kronf-bals")
    assert bad.returncode == 1
    assert "identifiable: NO" in bad.stdout


# ``check`` at the default sizes, set by ``scheme`` and ``k`` in a config file:
# (scheme, pair, k, exit code, the whole stdout).
CHECK_REPORTS = [
    ("tstc", "kronf-bals", 64, 0, (
        "pair kronf-bals  scheme tstc  k=64\n"
        "receiver  entity   min_k  ok           flops\n"
        "kronf     hris        64  yes        2097664\n"
        "bals      bs           8  yes    264192/iter\n"
        "feedback bits (scenario 1): 1024\n"
        "identifiable: yes (needs k >= 64)\n"
    )),
    ("krstc", "krf-h", 64, 0, (
        "pair krf-h  scheme krstc  k=64\n"
        "receiver  entity   min_k  ok           flops\n"
        "krf       hris        32  yes         524544\n"
        "h         bs           8  yes         262144\n"
        "feedback bits (scenario 2): 1060\n"
        "identifiable: yes (needs k >= 32)\n"
    )),
    ("tstc", "bals-bals", 8, 0, (
        "pair bals-bals  scheme tstc  k=8\n"
        "receiver  entity   min_k  ok           flops\n"
        "bals      hris         8  yes    262208/iter\n"
        "bals      bs           8  yes     33024/iter\n"
        "feedback bits (scenario 1): 1024\n"
        "identifiable: yes (needs k >= 8)\n"
    )),
    ("krstc", "bals-kronf", 32, 1, (
        "pair bals-kronf  scheme krstc  k=32\n"
        "receiver  entity   min_k  ok           flops\n"
        "bals      hris         8  yes   1048832/iter\n"
        "kronf     bs          64  NO          133120\n"
        "feedback bits (scenario 1): 1024\n"
        "identifiable: NO (needs k >= 64)\n"
    )),
]


@pytest.mark.parametrize("scheme,pair,k,code,stdout", CHECK_REPORTS,
                         ids=[f"{scheme}-{pair}-k{k}" for scheme, pair, k, *_ in CHECK_REPORTS])
def test_check_prints_the_whole_report(tmp_path, scheme, pair, k, code, stdout, run_main):
    path = tmp_path / "check.cfg"
    path.write_text(f"scheme = {scheme}\nk = {k}\n")
    result = run_main("check", "--config", str(path), "--pair", pair)
    assert (result.returncode, result.stdout, result.stderr) == (code, stdout, "")


def test_check_names_the_config_file_it_rejects(tmp_path, run_main):
    odd = tmp_path / "odd.cfg"
    odd.write_text(CFG_TEXT.replace("k = 16", "k = 24"))
    result = run_main("check", "--config", str(odd), "--pair", "kronf-bals")
    assert result.returncode == 1
    assert f"{odd}: Sylvester Hadamard construction needs k to be a power of two, got 24" in result.stderr


def test_check_scheme_override(cfg_file, run_main):
    result = run_main("check", "--config", cfg_file, "--pair", "krf-bals",
                      "--scheme", "krstc")
    assert result.returncode == 0, result.stderr
    assert "krstc" in result.stdout


def test_unknown_scheme_lists_every_scheme(cfg_file, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["check", "--config", cfg_file, "--pair", "kronf-bals", "--scheme", "ostc"])
    stdout, stderr = capsys.readouterr()
    assert exit_.value.code == 2 and not stdout
    assert "ostc" in stderr and all(scheme in stderr for scheme in SCHEMES)


def test_invalid_pair_for_scheme(cfg_file, run_main):
    result = run_main("check", "--config", cfg_file, "--pair", "krf-bals")
    assert result.returncode == 1
    assert "error" in result.stderr


def test_help_exits_cleanly():
    result = run_cli("--help")
    assert result.returncode == 0
    assert "sweep" in result.stdout and "check" in result.stdout


def test_sweep_identifiability_violation_fails(cfg_file, tmp_path, run_main):
    short = tmp_path / "short.cfg"
    short.write_text(CFG_TEXT.replace("k = 16", "k = 8"))
    result = run_main("sweep", "--config", str(short), "--pair", "kronf-bals",
                      "--sweep", "pt", "--points", "30", "--trials", "1")
    assert result.returncode == 1
    assert "error" in result.stderr
