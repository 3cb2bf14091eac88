"""Tests for the loader of the compiled kernels (cnvfuse._kernels): the
build on first use into a cache beside the source or, where that cannot
be written, the user's cache directory, concurrent cold starts, a failed
build and the log line that says which happened. The kernels' arithmetic
is held to its Python references in tests/test_fused_lasso.py and
tests/test_dpi.py, and the reader's and writer's to Python's in
tests/test_cli.py."""

import logging
import os
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

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
    # the reader loads the library before any fit: no sequence is blamed
    assert run.stderr.startswith("cnvfuse: error: cannot build the compiled kernels: ")
    assert "Traceback" not in run.stderr
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


def _run_solve(root, env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", SOLVE], env=env, capture_output=True, text=True, timeout=120, check=True
    )


def _unusable_pycache(tmp_path) -> Path:
    """A fresh copy of the package whose ``__pycache__`` cannot be made: a
    regular file sits where the directory would go (tests run as root,
    which ignores mode bits)."""
    root = _fresh_copy(tmp_path / "site")
    (root / "cnvfuse" / "__pycache__").write_text("")
    return root


def _cached_where(env, root, cache: Path) -> None:
    """Two runs of SOLVE: the first builds the library into ``cache``, the
    second loads it from there."""
    built = re.fullmatch(LOG_LINE, _run_solve(root, env).stderr.strip())
    [library] = cache.glob("_kernels-*.so")
    assert built and built.group(2) == str(library)
    loaded = re.fullmatch(LOG_LINE, _run_solve(root, env).stderr.strip())
    assert loaded and loaded.group(3) == str(library)
    assert list(cache.iterdir()) == [library]


def test_unusable_pycache_falls_back_to_xdg_cache_home(tmp_path):
    root = _unusable_pycache(tmp_path)
    env = dict(_env(root), XDG_CACHE_HOME=str(tmp_path / "xdg"), HOME=str(tmp_path / "home"))
    _cached_where(env, root, tmp_path / "xdg" / "cnvfuse")
    assert not (tmp_path / "home").exists()


@pytest.mark.parametrize("xdg", [None, "", "relative/cache"])
def test_without_an_absolute_xdg_cache_home_the_cache_is_under_home(tmp_path, monkeypatch, xdg):
    root = _unusable_pycache(tmp_path)
    monkeypatch.chdir(tmp_path)
    env = {k: v for k, v in _env(root).items() if k != "XDG_CACHE_HOME"}
    env["HOME"] = str(tmp_path / "home")
    if xdg is not None:
        env["XDG_CACHE_HOME"] = xdg
    _cached_where(env, root, tmp_path / "home" / ".cache" / "cnvfuse")
    assert not (tmp_path / "relative").exists()


def test_no_writable_cache_directory_is_one_error(tmp_path):
    root = _unusable_pycache(tmp_path)
    (tmp_path / "xdg").mkdir()
    (tmp_path / "xdg" / "cnvfuse").write_text("")
    track = tmp_path / "track.tsv"
    assert cli.main(["simulate", "--n", "200", "--seed", "3", "--output", str(track)]) == 0
    env = dict(_env(root), XDG_CACHE_HOME=str(tmp_path / "xdg"))
    run = subprocess.run(
        [sys.executable, "-m", "cnvfuse.cli", "segment-dpi", str(track)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1 and run.stdout == ""
    assert run.stderr.startswith(
        "cnvfuse: error: cannot build the compiled kernels: no cache directory can be written: "
    )
    assert str(root / "cnvfuse" / "__pycache__") in run.stderr and str(tmp_path / "xdg" / "cnvfuse") in run.stderr
    assert run.stderr.count("\n") == 1
