"""Property tests: Nsd block-store edge cases and checksum consistency.

Random store/fetch/trim sequences against a model dict; every
out-of-bounds access must raise before mutating anything, and the stored
checksum must always match the (zero-padded) contents on disk.
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nsd import Nsd

BLOCKS = 8
BS = 512


def make_nsd(store_data=True):
    return Nsd(0, "n0", total_blocks=BLOCKS, block_size=BS, store_data=store_data)


def full_block_crc(blob: bytes) -> int:
    return zlib.crc32(blob + bytes(BS - len(blob)))


store_op = st.tuples(
    st.just("store"),
    st.integers(0, BLOCKS - 1),
    st.integers(0, BS - 1),  # offset
    st.binary(min_size=1, max_size=BS),
)
trim_op = st.tuples(
    st.just("trim"),
    st.integers(0, BLOCKS - 1),
    st.integers(0, BS),
    st.none(),
)
ops = st.lists(st.one_of(store_op, trim_op), max_size=20)


class TestStoreFetchTrimModel:
    @settings(max_examples=150, deadline=None)
    @given(ops=ops)
    def test_contents_and_checksums_track_a_model(self, ops):
        nsd = make_nsd()
        model = {}
        for op, phys, arg, data in ops:
            if op == "store":
                if arg + len(data) > BS:
                    with pytest.raises(ValueError):
                        nsd.store(phys, arg, data)
                    continue
                nsd.store(phys, arg, data)
                old = model.get(phys, b"")
                base = old + bytes(max(0, arg + len(data) - len(old)))
                model[phys] = base[:arg] + data + base[arg + len(data):]
            else:
                nsd.trim(phys, arg)
                if phys in model and len(model[phys]) > arg:
                    model[phys] = model[phys][:arg]
        for phys in range(BLOCKS):
            want = model.get(phys, b"")
            got = nsd.fetch(phys, 0, BS)
            assert got == want + bytes(BS - len(want))
            if phys in model:
                assert nsd.checksum(phys) == full_block_crc(model[phys])
                assert nsd.verify_full(phys)
            else:
                assert nsd.checksum(phys) is None

    @settings(max_examples=80, deadline=None)
    @given(
        phys=st.integers(0, BLOCKS - 1),
        offset=st.integers(0, BS),
        length=st.integers(0, BS),
    )
    def test_fetch_in_bounds_never_raises_out_of_bounds_always(
        self, phys, offset, length
    ):
        nsd = make_nsd()
        nsd.store(phys, 0, b"\x5a" * BS)
        if offset + length > BS:
            with pytest.raises(ValueError):
                nsd.fetch(phys, offset, length)
        else:
            assert len(nsd.fetch(phys, offset, length)) == length


class TestBoundsRejection:
    @given(phys=st.one_of(st.integers(-10, -1), st.integers(BLOCKS, BLOCKS + 10)))
    def test_bad_phys_rejected_everywhere(self, phys):
        nsd = make_nsd()
        with pytest.raises(ValueError):
            nsd.store(phys, 0, b"x")
        with pytest.raises(ValueError):
            nsd.fetch(phys, 0, 1)
        with pytest.raises(ValueError):
            nsd.trim(phys, 0)
        with pytest.raises(ValueError):
            nsd.checksum(phys)
        with pytest.raises(ValueError):
            nsd.corrupt(phys)

    @given(offset=st.integers(-5, -1))
    def test_negative_offset_rejected(self, offset):
        nsd = make_nsd()
        with pytest.raises(ValueError):
            nsd.store(0, offset, b"x")
        with pytest.raises(ValueError):
            nsd.fetch(0, offset, 1)

    @given(keep=st.one_of(st.integers(-5, -1), st.integers(BS + 1, BS + 16)))
    def test_trim_keep_out_of_block_rejected(self, keep):
        nsd = make_nsd()
        with pytest.raises(ValueError):
            nsd.trim(0, keep)

    def test_failed_store_mutates_nothing(self):
        nsd = make_nsd()
        nsd.store(0, 0, b"\x01" * BS)
        before = (nsd.fetch(0, 0, BS), nsd.checksum(0))
        with pytest.raises(ValueError):
            nsd.store(0, BS - 1, b"\x02\x02")  # crosses the block end
        assert (nsd.fetch(0, 0, BS), nsd.checksum(0)) == before


class TestSizeOnlyMode:
    @settings(max_examples=50, deadline=None)
    @given(phys=st.integers(0, BLOCKS - 1), length=st.integers(0, BS))
    def test_fetch_returns_zeros(self, phys, length):
        """A size-only block reads as zeros, so a fetch returns their count."""
        nsd = make_nsd(store_data=False)
        nsd.store(phys, 0, b"\x77" * BS)
        assert nsd.fetch(phys, 0, length) == length
        assert nsd.checksum(phys) is None  # no contents, no sums
