"""Tests for stripe geometry."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.blocks import BlockRange, StripeGeometry


class TestBlockRange:
    def test_validation(self):
        with pytest.raises(ValueError):
            BlockRange(-1, 0, 1)
        with pytest.raises(ValueError):
            BlockRange(0, -1, 1)
        with pytest.raises(ValueError):
            BlockRange(0, 0, 0)


class TestSplit:
    def setup_method(self):
        self.geo = StripeGeometry(block_size=1024, num_nsds=4)

    def test_within_one_block(self):
        pieces = self.geo.split(100, 200)
        assert pieces == [BlockRange(0, 100, 200)]

    def test_exact_block(self):
        pieces = self.geo.split(1024, 1024)
        assert pieces == [BlockRange(1, 0, 1024)]

    def test_spanning(self):
        pieces = self.geo.split(1000, 100)
        assert pieces == [BlockRange(0, 1000, 24), BlockRange(1, 0, 76)]

    def test_multi_block(self):
        pieces = self.geo.split(0, 3 * 1024 + 10)
        assert [p.block_index for p in pieces] == [0, 1, 2, 3]
        assert pieces[-1].length == 10

    def test_zero_length(self):
        assert self.geo.split(50, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            self.geo.split(-1, 10)
        with pytest.raises(ValueError):
            self.geo.block_of(-1)

    def test_span_bytes_roundtrip(self):
        for piece in self.geo.split(777, 5000):
            start, end = self.geo.span_bytes(piece)
            assert end - start == piece.length
            assert self.geo.block_of(start) == piece.block_index

    def test_blocks_in(self):
        assert list(self.geo.blocks_in(1000, 100)) == [0, 1]


class TestPlacement:
    def test_round_robin(self):
        geo = StripeGeometry(1024, 4)
        assert [geo.nsd_for(0, b) for b in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_per_file_rotation(self):
        geo = StripeGeometry(1024, 4)
        assert geo.nsd_for(1, 0) == 1  # different files start on different NSDs

    def test_validation(self):
        with pytest.raises(ValueError):
            StripeGeometry(0, 4)
        with pytest.raises(ValueError):
            StripeGeometry(1024, 0)
        with pytest.raises(ValueError):
            StripeGeometry(1024, 4).nsd_for(0, -1)


_split_block_size = st.shared(st.integers(1, 1 << 22), key="split_block_size")


@settings(max_examples=200, deadline=None)
@given(
    block_size=_split_block_size,
    offset=st.integers(0, 1 << 40),
    # At most 4096 pieces per example: a 16 MiB length at block_size=1
    # would split into 16M pieces.
    length=_split_block_size.flatmap(
        lambda bs: st.integers(1, min(1 << 24, bs * 4096))
    ),
)
@example(block_size=1, offset=(1 << 40) - 5, length=4096)
def test_split_reassembles_exactly(block_size, offset, length):
    """Pieces tile [offset, offset+length) contiguously without overlap."""
    geo = StripeGeometry(block_size, 7)
    pieces = geo.split(offset, length)
    assert sum(p.length for p in pieces) == length
    pos = offset
    for p in pieces:
        start, end = geo.span_bytes(p)
        assert start == pos
        assert 0 < p.length <= block_size
        assert p.offset + p.length <= block_size
        pos = end
    assert pos == offset + length


@settings(max_examples=100, deadline=None)
@given(
    block_size=st.integers(1, 4096),
    num_nsds=st.integers(1, 64),
    ino=st.integers(0, 1000),
)
def test_striping_balanced(block_size, num_nsds, ino):
    """Any num_nsds consecutive blocks land on num_nsds distinct NSDs."""
    geo = StripeGeometry(block_size, num_nsds)
    targets = [geo.nsd_for(ino, b) for b in range(num_nsds)]
    assert sorted(targets) == list(range(num_nsds))
