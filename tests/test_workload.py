import math
import re

import numpy as np
import pytest

from proxysim.popularity import build_catalog
from proxysim.workload import (TraceParseError, Workload, assign_attributes,
                               generate_workload, load_trace, rank_histogram,
                               save_trace)


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
    # before it can name the line
    for bad in (b"two", b"+7", b"-3", b"1_0", "\u0663".encode(),
                "\uff13".encode(), b"\xff"):
        path.write_bytes(b"#n_objects=20 session=2\n1\n" + bad + b"\n")
        with pytest.raises(TraceParseError,
                           match=re.escape(f"{path}: line 3")):
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


def test_workload_generator_rejects_bad_counts():
    cat = build_catalog(5, 0.5)
    with pytest.raises(ValueError):
        generate_workload(cat, 0, 10, seed=1)
    with pytest.raises(ValueError):
        generate_workload(cat, 10, 0, seed=1)
