import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxysim import cache
from proxysim import workload as workload_module
from proxysim.popularity import build_catalog
from proxysim.workload import (_TRACE_CHUNK, TraceParseError, Workload,
                               assign_attributes, format_rows,
                               generate_workload, load_trace, rank_histogram,
                               save_trace)
from tricky_numbers import FLOATS, INTS, columns


def test_single_object_workload_shape():
    cat = build_catalog(1, 0.5)
    w = generate_workload(cat, 5, 2, seed=7)
    assert w.requests.tolist() == [1, 1, 1, 1, 1]
    assert w.n_objects == 1
    assert w.total_requests == 5
    assert w.session_size == 2


def test_rank1_count_matches_binomial_oracle():
    cat = build_catalog(100, 0.98)
    w = generate_workload(cat, 1000000, 1000, seed=1)
    count = int(np.count_nonzero(w.requests == 1))
    p = float(cat.probabilities[0])
    se = math.sqrt(1000000 * p * (1.0 - p))
    assert abs(count - 1000000 * p) <= 3.0 * se


def test_workload_deterministic(tmp_path):
    cat = build_catalog(200, 0.75)
    w1 = generate_workload(cat, 5000, 500, seed=31)
    w2 = generate_workload(cat, 5000, 500, seed=31)
    assert np.array_equal(w1.requests, w2.requests)
    assert w1.session_size == w2.session_size == 500
    p1, p2 = tmp_path / "a.trace", tmp_path / "b.trace"
    save_trace(w1, str(p1))
    save_trace(w2, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_workload_boundaries_partition_requests():
    cat = build_catalog(50, 0.64)
    w = generate_workload(cat, 2501, 1000, seed=5)
    assert w.session_size == 1000
    assert w.total_requests == 2501
    # a session longer than the stream keeps its nominal size
    assert generate_workload(cat, 300, 1000, seed=5).session_size == 1000
    assert np.all(w.requests >= 1) and np.all(w.requests <= 50)


def test_attributes_degenerate_ranges():
    attrs = assign_attributes(3, (5.0, 5.0), (2.0, 2.0), seed=0)
    assert attrs.sizes.tolist() == [5.0, 5.0, 5.0]
    assert attrs.channel_times.tolist() == [2.0, 2.0, 2.0]


def test_attributes_default_ranges_in_bounds():
    attrs = assign_attributes(10000, seed=9)
    assert np.all((attrs.sizes >= 1.0) & (attrs.sizes <= 15.0))
    assert np.all((attrs.channel_times >= 1.0) & (attrs.channel_times <= 10.0))
    # uniform[1,15] mean is 8; 3 sigma over 1e4 draws is ~0.12
    assert 7.5 <= attrs.sizes.mean() <= 8.5


def test_attributes_deterministic():
    a1 = assign_attributes(100, (1.0, 15.0), (1.0, 10.0), seed=77)
    a2 = assign_attributes(100, (1.0, 15.0), (1.0, 10.0), seed=77)
    assert np.array_equal(a1.sizes, a2.sizes)
    assert np.array_equal(a1.channel_times, a2.channel_times)


def test_attributes_reject_bad_ranges():
    with pytest.raises(ValueError,
                       match="n_objects must be an int >= 1, got 0"):
        assign_attributes(0)
    with pytest.raises(ValueError):
        assign_attributes(5, (0.0, 15.0), (1.0, 10.0), seed=1)
    with pytest.raises(ValueError):
        assign_attributes(5, (1.0, 15.0), (-2.0, 10.0), seed=1)
    with pytest.raises(ValueError):
        assign_attributes(5, (15.0, 1.0), (1.0, 10.0), seed=1)
    for bad in ((math.nan, 2.0), (1.0, math.inf), (math.inf, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            assign_attributes(5, bad, (1.0, 10.0), seed=1)
        with pytest.raises(ValueError, match="finite"):
            assign_attributes(5, (1.0, 15.0), bad, seed=1)


def test_histogram_direct_count():
    w = Workload(requests=np.array([1, 1, 2]), session_size=3,
                 n_objects=3)
    assert rank_histogram(w).tolist() == [2, 1, 0]


def test_histogram_conserves_total():
    cat = build_catalog(50, 0.75)
    w = generate_workload(cat, 5000, 1000, seed=13)
    assert int(rank_histogram(w).sum()) == 5000


def test_histogram_loglog_slope_recovers_alpha():
    cat = build_catalog(10000, 0.7)
    w = generate_workload(cat, 1000000, 1000, seed=3)
    counts = rank_histogram(w)[:100].astype(np.float64)
    keep = counts > 0
    # independent least-squares check, no shared fitting code
    slope = np.polyfit(np.log(np.arange(1, 101)[keep]),
                       np.log(counts[keep]), 1)[0]
    assert abs(slope - (-0.7)) <= 0.05


def test_histogram_decile_counts_non_increasing():
    cat = build_catalog(10000, 0.31)
    w = generate_workload(cat, 1000000, 1000, seed=2718)
    counts = rank_histogram(w).astype(np.float64)
    deciles = counts.reshape(10, 1000).sum(axis=1)
    assert np.all(np.diff(deciles) <= 0)


def test_trace_round_trip(tmp_path):
    w = Workload(requests=np.array([1, 1, 2]), session_size=3,
                 n_objects=3)
    path = tmp_path / "t.trace"
    save_trace(w, str(path))
    back = load_trace(str(path))
    assert back.requests.tolist() == [1, 1, 2]
    assert back.session_size == 3
    assert back.n_objects == 3

    cat = build_catalog(40, 0.98)
    gen = generate_workload(cat, 2500, 700, seed=4)
    save_trace(gen, str(path))
    back = load_trace(str(path))
    assert np.array_equal(back.requests, gen.requests)
    assert back.session_size == gen.session_size == 700
    assert back.n_objects == gen.n_objects


def test_trace_zero_rank_names_line_number(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("#n_objects=3 session=2\n1\n0\n2\n")
    with pytest.raises(TraceParseError, match="line 3"):
        load_trace(str(path))


def test_trace_malformed_rank_names_line_number(tmp_path):
    path = tmp_path / "bad.trace"
    # int() alone would read "+7" as 7, "1_0" as 10 and the non-ASCII
    # digits as 3; a byte that is not UTF-8 must not stop the parse
    # before it can name the line; only \n ends a line, so a form feed,
    # a lone carriage return or U+2028 between two ranks fails the line,
    # and only ASCII whitespace makes a blank line
    for bad in (b"two", b"+7", b"-3", b"1_0", "\u0663".encode(),
                "\uff13".encode(), b"\xff", b"1\x0c2", b"1\r2",
                "1\u20282".encode(), "\u00a0".encode()):
        path.write_bytes(b"#n_objects=20 session=2\n1\n" + bad + b"\n")
        with pytest.raises(TraceParseError,
                           match=re.escape(f"{path}: line 3")):
            load_trace(str(path))
    path.write_bytes(b"#n_objects=9 session=2\n1\x0c2\nx\n")
    with pytest.raises(TraceParseError,
                       match=re.escape(f"{path}: line 2: not a rank in 1..9")):
        load_trace(str(path))


@pytest.mark.parametrize("body, n_objects, lineno, line", [
    # a digit run at the first body byte
    (b"12 3\n1\n", 20, 2, "12 3"),
    (b"0\n1\n", 20, 2, "0"),
    # a bad byte on an unterminated last line
    (b"1\n2\n3x", 20, 4, "3x"),
    # a rank out of range after a blank and a whitespace-only line
    (b"1\n\n \t\n 9\r\n2\n", 3, 5, " 9\r"),
], ids=["two-runs-at-first-byte", "zero-at-first-byte",
        "unterminated-last-line", "after-blank-lines"])
def test_trace_error_names_line_and_text(tmp_path, body, n_objects, lineno,
                                         line):
    path = tmp_path / "bad.trace"
    path.write_bytes(b"#n_objects=%d session=2\n" % n_objects + body)
    with pytest.raises(TraceParseError, match="^" + re.escape(
            f"{path}: line {lineno}: not a rank in 1..{n_objects}: "
            f"{line!r}") + "$"):
        load_trace(str(path))


def test_trace_rank_beyond_catalog_rejected(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("#n_objects=3 session=2\n1\n2\n9\n")
    with pytest.raises(TraceParseError, match="line 4"):
        load_trace(str(path))


def test_trace_empty_or_headerless_rejected(tmp_path):
    empty = tmp_path / "empty.trace"
    empty.write_text("")
    with pytest.raises(TraceParseError):
        load_trace(str(empty))
    no_header = tmp_path / "nohdr.trace"
    no_header.write_text("1\n2\n")
    with pytest.raises(TraceParseError):
        load_trace(str(no_header))
    header_only = tmp_path / "hdr.trace"
    header_only.write_text("#n_objects=3 session=2\n")
    with pytest.raises(TraceParseError):
        load_trace(str(header_only))
    for header, message in (
            ("#n_objects=0 session=2",
             "n_objects must be an int in 1..9223372036854775806, got 0"),
            ("#n_objects=3 session=0",
             "session_size must be an int >= 1, got 0")):
        header_only.write_text(header + "\n1\n")
        with pytest.raises(TraceParseError, match=re.escape(
                f"line 1: {message}") + "$"):
            load_trace(str(header_only))


def test_trace_header_fields_read_like_rank_lines(tmp_path):
    path = tmp_path / "hdr.trace"
    # each key once, no other word, values in ASCII digits; int() and a
    # dict of key=value parts read the first header as n_objects=9,
    # session=2 (duplicate keys: last wins; unknown keys ignored)
    for header in ("#n_objects=1_0 session=\u0662 n_objects=+9 bogus=1",
                   "#n_objects=9 session=2 bogus=1",
                   "#n_objects=9 n_objects=9 session=2",
                   "#n_objects=+9 session=2", "#n_objects=1_0 session=2",
                   "#n_objects=9 session=\u0662",
                   "#n_objects=9\u00a0session=2",
                   "#n_objects=9 session=2=3", "#n_objects=9",
                   "#n_objects=9 session=" + "1" * 5000):
        path.write_bytes(header.encode() + b"\n1\n")
        with pytest.raises(TraceParseError, match="^" + re.escape(
                f"{path}: line 1: malformed header {header!r}") + "$"):
            load_trace(str(path))
    for header in (b"#session=2 n_objects=9", b"# n_objects=009\tsession=2 \r",
                   b"##n_objects=9\x1csession=2"):
        path.write_bytes(header + b"\n1\n")
        back = load_trace(str(path))
        assert (back.n_objects, back.session_size) == (9, 2)


def test_workload_generator_rejects_bad_counts():
    cat = build_catalog(5, 0.5)
    with pytest.raises(ValueError):
        generate_workload(cat, 0, 10, seed=1)
    with pytest.raises(ValueError):
        generate_workload(cat, 10, 0, seed=1)


def _reference_body(body: bytes, n_objects: int):
    r"""The line loop load_trace once ran, splitting lines at \n alone:
    a body's ranks, or the number of the first line it rejects."""
    ranks = []
    for lineno, line in enumerate(
            body.decode("utf-8", errors="replace").split("\n"), start=2):
        digits = line.strip()
        if not digits:
            continue
        if not (digits.isdigit() and line.isascii()
                and 1 <= int(digits) <= n_objects):
            return lineno
        ranks.append(int(digits))
    return ranks


_BODY_PIECES = [b"0", b"1", b"2", b"7", b"9", b"12345678901234567890",
                b"007", b"1 2",
                b" ", b"\t", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e",
                b"\x1f", b"\r\n", b"\r", b"\n", b"\n", b"\n", b"+", b"-",
                b"_", "\u0663".encode(), b"\xff"]


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    return tmp_path_factory.mktemp("traces") / "t.trace"


@settings(max_examples=500, deadline=None)
@given(n_objects=st.integers(1, 30),
       body=st.lists(st.sampled_from(_BODY_PIECES), max_size=40).map(
           b"".join))
def test_load_trace_agrees_with_reference_line_loop(trace_path, n_objects,
                                                    body):
    trace_path.write_bytes(f"#n_objects={n_objects} session=2\n".encode()
                           + body)
    want = _reference_body(body, n_objects)
    if isinstance(want, int):
        with pytest.raises(TraceParseError, match=re.escape(
                f"{trace_path}: line {want}: not a rank in 1..{n_objects}: ")):
            load_trace(str(trace_path))
    elif not want:
        with pytest.raises(TraceParseError, match="no requests in trace"):
            load_trace(str(trace_path))
    else:
        assert load_trace(str(trace_path)).requests.tolist() == want


@pytest.fixture
def no_kernel(monkeypatch):
    """The Python loops that run where no kernel loads."""
    monkeypatch.setattr(cache, "_kernel", lambda: None)


def test_load_trace_agrees_with_reference_line_loop_without_kernel(
        trace_path, no_kernel):
    test_load_trace_agrees_with_reference_line_loop(trace_path)


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "python"])
@pytest.mark.parametrize("body, n_objects, want", [
    # a valid rank of 20 digits, and leading zeros int() alone refuses
    (b"09223372036854775806\n", 2**63 - 2, [2**63 - 2]),
    (b"0" * 5000 + b"5\n", 9, [5]),
    # a run too long for int64 fails on its own line, as does a NUL
    (b"1\n" + b"5" * 5000 + b"\n2\n", 2**63 - 2, 3),
    (b"1\n2\x00\n3\n", 9, 3),
    (b"\x001\n", 9, 2),
    # the end of the body ends the last line
    (b"1\n\n 2", 9, [1, 2]),
    (b"\n \n\t\r\n\x1c", 9, "no requests in trace"),
], ids=["twenty-digits", "leading-zeros", "long-run", "nul", "nul-first",
        "no-last-newline", "blank-lines"])
def test_load_trace_edge_bodies(trace_path, monkeypatch, kernel, body,
                                n_objects, want):
    if not kernel:
        monkeypatch.setattr(cache, "_kernel", lambda: None)
    trace_path.write_bytes(b"#n_objects=%d session=2\n" % n_objects + body)
    if isinstance(want, list):
        assert load_trace(str(trace_path)).requests.tolist() == want
        return
    if isinstance(want, int):   # the number of the line that fails
        shown = body.split(b"\n")[want - 2].decode()
        want = f"line {want}: not a rank in 1..{n_objects}: {shown!r}"
    with pytest.raises(TraceParseError, match=re.escape(want) + "$"):
        load_trace(str(trace_path))


_BIG = 2**63 - 1   # one past the largest catalog a trace names
_BAD_FIELDS = {"n_objects": [0, -1, _BIG, np.uint64(_BIG), np.int64(0),
                             True, False, 3.0],
               "session_size": [0, -2, True, 2.0, np.int32(0)]}


@st.composite
def _workload_fields(draw):
    """Keyword arguments of a Workload: valid ones, numpy ints among them,
    or, in half of the draws, with one field that load_trace refuses."""
    n_objects = draw(st.integers(1, 40) | st.integers(1, _BIG - 1))
    ranks = draw(st.lists(st.integers(1, n_objects), min_size=1,
                          max_size=30))
    dtype = draw(st.sampled_from([np.int64, np.uint64]))
    fields = {"n_objects": n_objects,
              "session_size": draw(st.integers(1, 10**9)),
              "requests": np.array(ranks, dtype=dtype)}
    for name in ("n_objects", "session_size"):
        if draw(st.booleans()):
            fields[name] = np.int64(fields[name])
    bad = draw(st.sampled_from([None] * 3 + [*_BAD_FIELDS, "requests"]))
    if bad == "requests":
        at = draw(st.integers(0, len(ranks)))
        fields[bad] = draw(st.sampled_from([
            np.array([], dtype=np.int64), np.array(ranks, dtype=np.float64),
            np.array(ranks, dtype=np.bool_), np.array([ranks]),
            *(np.array(ranks[:at] + [rank] + ranks[at:])
              for rank in (0, -1, n_objects + 1))]))
    elif bad is not None:
        fields[bad] = draw(st.sampled_from(_BAD_FIELDS[bad]))
    return fields


@settings(max_examples=300, deadline=None)
@given(fields=_workload_fields())
def test_trace_save_load_round_trip(trace_path, fields):
    # a Workload is built exactly when load_trace reads the trace that
    # its fields spell, and then it round-trips through save_trace
    n_objects, session_size = fields["n_objects"], fields["session_size"]
    spelled = "".join([f"#n_objects={n_objects} session={session_size}\n",
                       *(f"{rank}\n" for rank in fields["requests"].tolist())])
    trace_path.write_text(spelled)
    try:
        saved = Workload(**fields)
    except ValueError:
        with pytest.raises(TraceParseError):
            load_trace(str(trace_path))
        return
    assert type(saved.n_objects) is type(saved.session_size) is int
    trace_path.unlink()   # so that the bytes read next are save_trace's
    save_trace(saved, str(trace_path))
    assert trace_path.read_text() == spelled
    back = load_trace(str(trace_path))
    assert back.requests.dtype == np.int64
    assert np.array_equal(back.requests, saved.requests)
    assert (back.session_size, back.n_objects) == (session_size, n_objects)


def test_trace_save_load_round_trip_without_kernel(trace_path, no_kernel):
    test_trace_save_load_round_trip(trace_path)


def _reference_save(workload: Workload, path) -> None:
    """The writer save_trace once ran: str() of each rank, a chunk of
    tolist() ranks per write."""
    with open(path, "w") as f:
        f.write(f"#n_objects={workload.n_objects} "
                f"session={workload.session_size}\n")
        requests = workload.requests
        for start in range(0, requests.size, _TRACE_CHUNK):
            chunk = requests[start:start + _TRACE_CHUNK].tolist()
            f.write("\n".join(map(str, chunk)))
            f.write("\n")


_RANK_TOPS = (st.sampled_from([1, 9, 10, 99, 100, 10**6, 10**18, 2**63 - 2])
              | st.integers(1, 2**63 - 2))


@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from([_TRACE_CHUNK - 1, _TRACE_CHUNK, _TRACE_CHUNK + 1,
                             2 * _TRACE_CHUNK + 7]) | st.integers(1, 40),
       tops=st.lists(_RANK_TOPS, min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1))
@example(size=1, tops=[1, 1, 1], seed=0)
@example(size=_TRACE_CHUNK + 1, tops=[9, 2**63 - 2, 1], seed=0)
@example(size=2 * _TRACE_CHUNK + 7, tops=[99, 10**6, 10], seed=1)
def test_save_trace_writes_reference_bytes(tmp_path_factory, size, tops,
                                           seed):
    # each chunk takes its digit width from its own largest rank, tops[i]
    rng = np.random.default_rng(seed)
    requests = np.empty(size, dtype=np.int64)
    for i, start in enumerate(range(0, size, _TRACE_CHUNK)):
        chunk = requests[start:start + _TRACE_CHUNK]
        chunk[:] = rng.integers(1, tops[i], chunk.size, endpoint=True)
        chunk[rng.integers(chunk.size)] = tops[i]
    workload = Workload(requests=requests, session_size=7,
                        n_objects=max(tops))
    folder = tmp_path_factory.mktemp("save")
    save_trace(workload, str(folder / "new.trace"))
    _reference_save(workload, folder / "old.trace")
    assert ((folder / "new.trace").read_bytes()
            == (folder / "old.trace").read_bytes())


def test_save_trace_writes_reference_bytes_without_kernel(tmp_path_factory,
                                                          no_kernel):
    test_save_trace_writes_reference_bytes(tmp_path_factory)


@settings(max_examples=200, deadline=None)
@given(drawn=columns(INTS, FLOATS, FLOATS), wide=st.booleans())
@example(drawn=([0, 1, 2**63 - 1], [0.0078125, 1.0078125, 0.5],
                [12345678901.5, 1.00048828125, 1e-323]), wide=True)
def test_format_rows_writes_the_bytes_of_percent(drawn, wide):
    # without a long double of 64 significant bits, Python writes each row
    template = "%d,%.6f,%.10e\n"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workload_module, "_WIDE", wide)
        got = format_rows(template, [np.array(column) for column in drawn])
    assert got == "".join(map(template.__mod__, zip(*drawn))).encode()


def test_save_trace_refuses_what_load_trace_refuses(tmp_path):
    path = tmp_path / "t.trace"
    for requests, message in (
            ([2, 0, -3], "requests[1] is 0, not a rank in 1..3"),
            ([1, 3, 4, 0], "requests[2] is 4, not a rank in 1..3"),
            ([-3], "requests[0] is -3, not a rank in 1..3"),
            ([1.0, 2.0], "requests must be ints, got float64"),
            ([True], "requests must be ints, got bool"),
            ([[1, 2]], "requests must be 1-d, got (1, 2)"),
            (np.array([], dtype=np.int64), "no requests in trace")):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            save_trace(Workload(requests=np.array(requests), session_size=2,
                                n_objects=3), str(path))
        assert not path.exists()


def test_save_trace_refuses_header_fields_load_trace_refuses(tmp_path):
    path = tmp_path / "t.trace"
    big = 2**63 - 1
    for n_objects, session_size, message in (
            (3, 0, "session_size must be an int >= 1, got 0"),
            (3, True, "session_size must be an int >= 1, got True"),
            (3, 2.0, "session_size must be an int >= 1, got 2.0"),
            (0, 2, f"n_objects must be an int in 1..{big - 1}, got 0"),
            (np.int64(big), 2,
             f"n_objects must be an int in 1..{big - 1}, got {big}")):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            save_trace(Workload(requests=np.array([1]),
                                session_size=session_size,
                                n_objects=n_objects), str(path))
        assert not path.exists()
        # the header that save_trace once wrote is one load_trace refuses
        path.write_text(f"#n_objects={n_objects} session={session_size}\n1\n")
        with pytest.raises(TraceParseError, match="line 1: "):
            load_trace(str(path))
        path.unlink()


def test_load_trace_refuses_a_catalog_a_saturated_rank_fits(tmp_path):
    # np.fromstring reads a rank too long for int64 as 2**63 - 1, so no
    # catalog may hold that rank, and the long rank fails on its own line
    path = tmp_path / "t.trace"
    path.write_bytes(b"#n_objects=9223372036854775807 session=2\n"
                     b"99999999999999999999\n")
    with pytest.raises(TraceParseError,
                       match="line 1: n_objects must be an int in "
                             r"1\.\.9223372036854775806, "
                             "got 9223372036854775807$"):
        load_trace(str(path))
    path.write_bytes(b"#n_objects=9223372036854775806 session=2\n"
                     b"5\n99999999999999999999\n")
    with pytest.raises(TraceParseError,
                       match="line 3: not a rank in 1..9223372036854775806: "
                             "'99999999999999999999'$"):
        load_trace(str(path))
    path.write_bytes(b"#n_objects=9223372036854775806 session=2\n"
                     b"9223372036854775806\n")
    assert load_trace(str(path)).requests.tolist() == [2**63 - 2]


def test_load_trace_is_warning_free(tmp_path):
    # a warning numpy raised here, such as a deprecation of fromstring's
    # text mode, would come with every run --trace; fail on it first
    path = tmp_path / "t.trace"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        save_trace(Workload(requests=np.array([1, 3, 2]), session_size=2,
                            n_objects=3), str(path))
        assert path.read_bytes() == b"#n_objects=3 session=2\n1\n3\n2\n"
        assert load_trace(str(path)).requests.tolist() == [1, 3, 2]
        for body in (b"\n \n\t\n", b"1\n2\nx\n", b"1\n2\n4\n"):
            path.write_bytes(b"#n_objects=3 session=2\n" + body)
            with pytest.raises(TraceParseError):
                load_trace(str(path))
