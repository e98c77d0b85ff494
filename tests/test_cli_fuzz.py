"""Property test of the command line: whatever its flags hold, ``main``
returns an exit code, leaves no partial output, and writes only strict
JSON.

Arguments are built from each subcommand's own parser, so a new flag is
fuzzed without touching this file. Most flags get plain values (small
ints, ordinary floats, the flag's choices); up to two per example get
wild ones (10**15, 10**30, nan, inf, 1e308, empty and junk strings).
Sizes of 10**15 and more exceed the address space at 8 bytes each, so
numpy refuses them before allocating anything.
"""

import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from proxysim import simulator
from proxysim.cli import (_build_parser, _float_list, _float_pair, _int_list,
                          main)

_TRACE = "#n_objects=20 session=5\n" + "".join(
    f"{1 + i * 7 % 20}\n" for i in range(60))
_SUBPARSERS = _build_parser()[1]
# (subcommand, flags left out): run replays a trace or generates a
# workload, and the two sets of flags conflict
_VARIANTS = [("gen", ()), ("run", ("trace",)),
             ("run", ("objects", "requests", "alpha")), ("sweep", ()),
             ("estimate", ())]
_ALWAYS = {"sweep": {"objects", "requests"}}   # else 10**4 x 10**6 defaults
_SOMETIMES = {"config", "compare"}             # present in half the examples
_OUTPUTS = ("--out", "--out-dir")

_INT = st.one_of(st.integers(1, 300), st.integers(-2, 300)).map(str)
_FLOAT = st.one_of(st.sampled_from(["0.37", "1", "0.98", "2.5", "0"]), _INT)
_HUGE = st.sampled_from([str(10 ** 15), str(10 ** 30)])
_NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308"])
_JUNK = st.sampled_from(["", " ", "x", "1_0", "٣", "0x10", "--"])
_TAME_PATHS = {"out": "o.out", "out_dir": "o", "trace": "in.trace",
               "config": "in.cfg"}
_WILD_PATHS = {"out": ["", "sub/o.out"], "out_dir": ["", "o/deeper"],
               "trace": ["", "missing.trace", "in.cfg"],
               "config": ["", "missing.cfg", "in.trace"]}


def _values(action, wild: bool):
    """A strategy for one flag's value, plain or wild."""
    if action.dest in _TAME_PATHS:
        return st.sampled_from(_WILD_PATHS[action.dest]) if wild \
            else st.just(_TAME_PATHS[action.dest])
    if action.choices is not None:
        return st.sampled_from(["bogus", ""]) if wild \
            else st.sampled_from(list(action.choices))
    if action.type in (_float_list, _int_list, _float_pair):
        item = _INT if action.type is _int_list else _FLOAT
        if wild:
            return st.lists(st.one_of(item, _wild(action.type is _int_list)),
                            min_size=1, max_size=3).map(",".join)
        if action.type is _float_pair:      # LO,HI in order
            return st.lists(item, min_size=2, max_size=2).map(
                lambda pair: ",".join(sorted(pair, key=float)))
        return st.lists(item, min_size=1, max_size=3).map(",".join)
    if wild:
        return _wild(action.type is int)
    return _INT if action.type is int else _FLOAT


def _wild(integral: bool):
    """Huge ints, then (for float flags) non-finite floats, then junk."""
    return st.one_of(_HUGE, _HUGE, _JUNK) if integral \
        else st.one_of(_HUGE, _NON_FINITE, _NON_FINITE, _JUNK)


@st.composite
def _argv(draw):
    name, left_out = draw(st.sampled_from(_VARIANTS))
    actions = [a for a in _SUBPARSERS[name]._actions
               if a.dest not in ("help", *left_out)]
    dests = [a.dest for a in actions]
    wild = draw(st.sets(st.sampled_from(dests), max_size=2))
    # at most one flag is dropped, required or not
    dropped = draw(st.sets(st.sampled_from(dests), max_size=1))
    argv = [name]
    for action in actions:
        flag = action.option_strings[-1]
        if action.dest in _ALWAYS.get(name, ()):
            pass
        elif action.dest in dropped or (action.dest in _SOMETIMES
                                        and not draw(st.booleans())):
            continue
        if action.nargs == 0:
            argv.append(flag)
        else:
            # --flag=value, so that a value such as -inf is not a flag
            value = draw(_values(action, action.dest in wild))
            argv.append(f"{flag}={value}")
    return argv


def _reject_constant(token):
    raise ValueError(f"non-finite JSON number {token}")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argv=_argv())
def test_main_never_raises_and_leaves_no_partial_output(argv):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(simulator, "_available_cpus", lambda: 1):
        root = Path(tmp)
        (root / "in.trace").write_text(_TRACE)
        (root / "in.cfg").write_text("seed=3\n")
        os.chdir(tmp)
        try:
            code = main(argv)
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2), argv
        assert not list(root.rglob("*.tmp*")), argv
        if code != 0:
            for arg in argv:
                flag, _, path = arg.partition("=")
                if flag in _OUTPUTS and path:
                    assert not (root / path).exists(), argv
            return
        for path in root.rglob("*.json"):
            json.loads(path.read_text(), parse_constant=_reject_constant)
