"""The byte contract at the default sizes (N=1e4, R=1e6): each command,
run through ``cli.main``, hashes to a checked-in digest.

A digest covers the sorted relative paths and bytes of every file in the
command's own output directory, then its stdout with that directory
replaced by a fixed token. A change to any output byte shows up here as
a changed digest; a deliberate one is a contract change. The LFU
commands and the LRU trace replay are run a second time with no replay
kernel, on the Python loops and numpy tally that run where it cannot
be built, to the same digests.
"""

import hashlib

import pytest

from proxysim import cache, cli

_N, _R = "10000", "1000000"
_POINT = ["--objects", _N, "--alpha", "0.7", "--seed", "3"]
# name -> argv, with {out} for the command's directory; the trace
# replays read the trace that "gen" writes as zipf.trace in the working
# directory, since a report echoes the trace path
_COMMANDS = {
    "sweep": ["sweep", "--seed", "55", "--out-dir", "{out}"],
    "lru_curve": ["sweep", "--policy", "lru", "--alphas", "0.98,0.64,0.31",
                  "--capacities", "10,100,1000,5000", "--seed", "55",
                  "--out-dir", "{out}"],
    "gen": ["gen", *_POINT, "--requests", _R, "--out", "{out}/zipf.trace"],
    "trace_lru": ["run", "--trace", "zipf.trace", "--policy", "lru",
                  "--capacity", "100", "--seed", "3", "--out-dir", "{out}"],
    "trace_lfu": ["run", "--trace", "zipf.trace", "--policy", "session_lfu",
                  "--capacity", "100", "--seed", "3", "--out-dir", "{out}"],
    "compare": ["run", *_POINT, "--requests", _R, "--capacity", "100",
                "--compare", "--out-dir", "{out}"],
    "estimate": ["estimate", *_POINT, "--capacity", "100",
                 "--out", "{out}/model.csv"],
}
# name -> sha256 of the command's outputs and stdout
_DIGESTS = {
    "sweep":
        "974bf16af91334521352d461259f1419a3511ccd5ea33d2cac7052ad71a6f70c",
    "lru_curve":
        "72537cf016e95d3d6b2fc83a5ae201573baca5dcda7131c83be318e2656e5e05",
    "gen":
        "78d09e0184f502b2f02d47bbb27698ea832b2083aa64e955a8394f32d6eb23a5",
    "trace_lru":
        "ec2d88f40e5dbba07f8a0a9bab33d6a3e349351dddd1ab9bd7c667b319aa0dd8",
    "trace_lfu":
        "608f781e4b8cb855025c0d1eb9531450bbf56e2ebd254495b50266d904ec3d00",
    "compare":
        "896bcc9944feb754311b514c1d2c9f414eb2c33ebd5badf88864d4cb23a95ace",
    "estimate":
        "b77e8493acea1ba580223e461bc56b406648d8b76798c320a6765e0655bdbedc",
}


def _digest(directory, stdout):
    h = hashlib.sha256()
    files = sorted(p.relative_to(directory).as_posix()
                   for p in directory.rglob("*") if p.is_file())
    for name in files:
        h.update(name.encode() + b"\0")
        h.update((directory / name).read_bytes())
    h.update(stdout.replace(str(directory), "<out>").encode())
    return h.hexdigest()


def _run(name, directory):
    """Runs the named command into a new ``directory``."""
    directory.mkdir()
    assert cli.main([a.format(out=directory) for a in _COMMANDS[name]]) == 0


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    """The trace that "gen" writes, for the trace replays."""
    directory = tmp_path_factory.mktemp("gen") / "out"
    _run("gen", directory)
    return directory / "zipf.trace"


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_command_bytes_match_golden_digest(name, tmp_path, trace, capsys,
                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zipf.trace").symlink_to(trace)
    capsys.readouterr()
    _run(name, tmp_path / "out")
    assert _digest(tmp_path / "out", capsys.readouterr().out) == \
        _DIGESTS[name]


@pytest.fixture
def no_kernel(tmp_path, monkeypatch):
    """No kernel can load, in this process or a sweep worker: the cache
    folder is empty and ``cc`` is not on PATH."""
    (tmp_path / "bin").mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    cache._kernel.cache_clear()
    assert cache._kernel() is None
    yield
    cache._kernel.cache_clear()


@pytest.mark.parametrize("name", ["sweep", "trace_lfu", "compare"])
def test_lfu_command_bytes_match_golden_digest_without_kernel(
        name, tmp_path, trace, capsys, monkeypatch, no_kernel):
    test_command_bytes_match_golden_digest(name, tmp_path, trace, capsys,
                                           monkeypatch)


def test_lru_trace_bytes_match_golden_digest_without_kernel(
        tmp_path, trace, capsys, monkeypatch, no_kernel):
    test_command_bytes_match_golden_digest("trace_lru", tmp_path, trace,
                                           capsys, monkeypatch)
