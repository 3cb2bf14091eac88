"""Tests for the loader of the compiled kernels (cnvfuse._kernels): the
build on first use into a cache beside the source, concurrent cold
starts, a failed build and the log line that says which happened. The
kernels' arithmetic is held to its Python references in
tests/test_fused_lasso.py and tests/test_dpi.py."""

import logging
import os
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np

import cnvfuse
from cnvfuse import _kernels, cli
from cnvfuse.fused_lasso import TridiagonalSystem, thomas_solve

PACKAGE = Path(cnvfuse.__file__).resolve().parent

LOG_LINE = r"(built the kernel library (\S+) in \d+\.\d\d s|loaded the kernel library (\S+) from the cache)"

SOLVE = (
    "import logging\n"
    "logging.basicConfig(level=logging.DEBUG, format='%(message)s')\n"
    "import numpy as np\n"
    "from cnvfuse.fused_lasso import TridiagonalSystem, thomas_solve\n"
    "system = TridiagonalSystem(np.array([4.0, 5.0, 6.0]), np.array([-1.0, 2.0]), np.array([1.0, 2.0, 3.0]))\n"
    "print(thomas_solve(system).tobytes().hex())\n"
)


def _fresh_copy(tmp_path) -> Path:
    """A copy of the package under tmp_path with no library built; returns
    the directory to put on PYTHONPATH."""
    shutil.copytree(PACKAGE, tmp_path / "cnvfuse", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _env(root) -> dict:
    return dict(os.environ, PYTHONPATH=str(root))


def _cache_files(root) -> list[str]:
    cache = root / "cnvfuse" / "__pycache__"
    return sorted(p.name for p in cache.glob("_kernels-*"))


def test_cold_cache_race_leaves_one_library(tmp_path):
    root = _fresh_copy(tmp_path)
    # more interpreters than the 2 cores of the test host, each finding the
    # cache empty when it starts
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", SOLVE], env=_env(root), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        for _ in range(4)
    ]
    try:
        outs = [p.communicate(timeout=120) for p in procs]
    finally:
        for p in procs:
            p.kill()
    assert [p.returncode for p in procs] == [0] * 4, [err for _, err in outs]
    assert len({out for out, _ in outs}) == 1
    files = _cache_files(root)
    assert len(files) == 1 and re.fullmatch(r"_kernels-[0-9a-f]{64}\.so", files[0])
    library = str(root / "cnvfuse" / "__pycache__" / files[0])
    lines = [err.strip() for _, err in outs]
    for line in lines:
        match = re.fullmatch(LOG_LINE, line)
        assert match and library in match.groups()
    assert any(line.startswith("built") for line in lines)


def test_failed_build_is_one_error_naming_the_command(tmp_path):
    root = _fresh_copy(tmp_path)
    source = root / "cnvfuse" / "_kernels.c"
    source.write_text(source.read_text() + "#error this copy is broken\n")
    track = tmp_path / "track.tsv"
    assert cli.main(["simulate", "--n", "200", "--seed", "3", "--output", str(track)]) == 0
    run = subprocess.run(
        [sys.executable, "-m", "cnvfuse.cli", "segment-dpi", str(track), "--output", str(tmp_path / "out.tsv")],
        env=_env(root),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1
    assert run.stderr.startswith("cnvfuse: error: ") and "Traceback" not in run.stderr
    command = " ".join([sysconfig.get_config_var("CC"), *_kernels.FLAGS])
    assert f"cannot build the compiled kernels: {command} -o " in run.stderr and str(source) in run.stderr
    assert "this copy is broken" in run.stderr  # the compiler's own message
    # the library raises the one base error, and leaves no file behind
    code = (
        "import numpy as np\n"
        "from cnvfuse.errors import CnvFuseError\n"
        "from cnvfuse.fused_lasso import TridiagonalSystem, thomas_solve\n"
        "try:\n"
        "    thomas_solve(TridiagonalSystem(np.ones(2), np.zeros(1), np.ones(2)))\n"
        "except CnvFuseError as exc:\n"
        "    print(type(exc).__name__)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=_env(root), capture_output=True, text=True, timeout=120)
    assert run.stdout == "CnvFuseError\n"
    assert _cache_files(root) == []


def test_a_load_logs_the_library(caplog):
    system = TridiagonalSystem(np.array([2.0, 2.0]), np.array([-1.0]), np.array([1.0, 1.0]))
    thomas_solve(system)  # built or found before the log is read
    _kernels.library.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="cnvfuse._kernels"):
        assert thomas_solve(system).tolist() == [1.0, 1.0]
    lines = [r.getMessage() for r in caplog.records if r.name == "cnvfuse._kernels"]
    assert len(lines) == 1
    match = re.fullmatch(LOG_LINE, lines[0])
    assert match and match.group(3) and Path(match.group(3)).parent == PACKAGE / "__pycache__"
