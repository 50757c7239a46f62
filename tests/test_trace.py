"""Unit and property tests for the trace container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import Trace, TraceBuilder
from repro.tracestream.chunk import CHUNK_RECORDS


def small_trace():
    b = TraceBuilder("t")
    b.add(1, 64, gap=2)
    b.add(2, 128, is_write=True, gap=3, dep=True)
    b.add(1, 192)
    return b.build()


def test_builder_roundtrip():
    t = small_trace()
    assert len(t) == 3
    rows = list(t)
    assert rows[0] == (1, 64, False, 2, False)
    assert rows[1] == (2, 128, True, 3, True)


def test_instructions_counts_gaps_plus_ops():
    t = small_trace()
    assert t.instructions == (2 + 3 + 3) + 3


def test_slice_preserves_fields():
    t = small_trace().slice(1, 3)
    assert len(t) == 2
    assert list(t)[0][2] is True      # write flag survived
    assert list(t)[0][4] is True      # dep flag survived


def test_footprint_and_pcs():
    t = small_trace()
    assert t.footprint_blocks() == 3
    assert t.unique_pcs() == 2


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        Trace("bad", [1, 2], [64], [False], [1])
    with pytest.raises(ValueError):
        Trace("bad", [1], [64], [False], [1], deps=[True, False])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(
    st.integers(min_value=0, max_value=2**30),   # pc
    st.integers(min_value=0, max_value=2**40),   # addr
    st.booleans(), st.integers(min_value=0, max_value=50),
    st.booleans()), min_size=1, max_size=100))
def test_builder_matches_input(records):
    b = TraceBuilder("prop")
    for pc, addr, w, gap, dep in records:
        b.add(pc, addr, w, gap, dep)
    t = b.build()
    assert list(t) == [tuple(r) for r in records]
    assert t.instructions == sum(r[3] for r in records) + len(records)


def test_builder_extend():
    a, b = TraceBuilder("a"), TraceBuilder("b")
    a.add(1, 64)
    b.add(2, 128, dep=True)
    a.extend(b)
    t = a.build()
    assert len(t) == 2 and list(t)[1][0] == 2


# -- chunk-boundary edges ---------------------------------------------------


def ramp_trace(n: int, name: str = "ramp") -> Trace:
    idx = np.arange(n, dtype=np.int64)
    return Trace(name, 0x1000 + 4 * idx, 64 * idx, idx % 3 == 0,
                 (idx % 7).astype(np.int32), idx % 5 == 0)


def test_iter_from_at_chunk_boundaries():
    n = CHUNK_RECORDS + 5
    t = ramp_trace(n)
    whole = list(t)
    assert len(whole) == n
    for start in (0, 1, CHUNK_RECORDS - 1, CHUNK_RECORDS,
                  CHUNK_RECORDS + 1, n):
        assert list(t.iter_from(start)) == whole[start:], start


def test_slice_names_the_window():
    t = ramp_trace(50)
    s = t.slice(10, 20)
    assert s.name == "ramp[10:20]"
    assert list(s) == list(t)[10:20]


def test_from_chunks():
    t = ramp_trace(10)
    empty = Trace.from_chunks("e", [])
    assert len(empty) == 0 and list(empty) == []
    one = Trace.from_chunks("one", [t.chunk_at(0, 10)])
    assert list(one) == list(t)
    many = Trace.from_chunks("many", [t.chunk_at(0, 4), t.chunk_at(4, 7),
                                      t.chunk_at(7, 10)])
    assert list(many) == list(t)


class TinyBuilder(TraceBuilder):
    CHUNK = 4  # tiny buffers so adds cross flush boundaries


def test_builder_flushes_across_chunk_boundary():
    b = TinyBuilder("tiny")
    for i in range(11):  # 2 full buffers + partial
        b.add(i, 64 * i, gap=i % 3, dep=(i % 2 == 0))
        assert len(b) == i + 1
    t = b.build()
    assert list(t) == [(i, 64 * i, False, i % 3, i % 2 == 0)
                       for i in range(11)]


def test_builder_extend_merges_partial_buffers():
    a, b = TinyBuilder("a"), TinyBuilder("b")
    for i in range(6):
        a.add(i, 64 * i)
    for i in range(5):
        b.add(100 + i, 6400 + 64 * i)
    a.extend(b)
    assert len(a) == 11
    t = a.build()
    assert [r[0] for r in t] == list(range(6)) + [100 + i
                                                  for i in range(5)]


def test_builder_add_chunk_interleaves_with_scalar_adds():
    b = TinyBuilder("mix")
    b.add(1, 64)
    b.add_chunk(ramp_trace(6).chunk_at(0, 6))
    b.add(2, 128)
    t = b.build()
    assert len(t) == 8
    assert [r[0] for r in t] == \
        [1] + [0x1000 + 4 * i for i in range(6)] + [2]
