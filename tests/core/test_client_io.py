"""End-to-end IO tests on the mounted filesystem (data integrity + semantics)."""

import hashlib

import pytest

from repro.core.client import Identity
from repro.core.namespace import NoSuchFile, PermissionDenied

from tests.core.testbed import mounted, run_io, small_gfs


@pytest.fixture()
def bed():
    """A cluster and a mount on c0. Tests mount more nodes with the same
    ``max_coalesce``, so ``test_client_io_coalesced.py`` can run every
    test here again on coalesced runs by overriding this fixture."""
    g, cluster, fs, clients = small_gfs()
    m = mounted(g, cluster, node="c0")
    return g, cluster, fs, m


def patterned(n, seed=7):
    """Deterministic non-trivial bytes."""
    out = bytearray()
    h = hashlib.sha256(str(seed).encode()).digest()
    while len(out) < n:
        out.extend(h)
        h = hashlib.sha256(h).digest()
    return bytes(out[:n])


class TestRoundtrip:
    def test_small_file(self, bed):
        g, _, _, m = bed

        def io():
            h = yield m.open("/f", "w", create=True)
            yield m.write(h, b"hello")
            yield m.close(h)
            h = yield m.open("/f", "r")
            data = yield m.read(h, 100)
            return data

        assert run_io(g, io()) == b"hello"

    def test_multi_block_integrity(self, bed):
        g, _, fs, m = bed
        payload = patterned(int(3.5 * fs.block_size))

        def io():
            h = yield m.open("/big", "w", create=True)
            yield m.write(h, payload)
            yield m.close(h)
            h = yield m.open("/big", "r")
            data = yield m.read(h, len(payload) + 10)
            return data

        assert run_io(g, io()) == payload

    def test_data_lands_on_multiple_nsds(self, bed):
        g, _, fs, m = bed
        payload = patterned(4 * fs.block_size)

        def io():
            h = yield m.open("/spread", "w", create=True)
            yield m.write(h, payload)
            yield m.close(h)

        run_io(g, io())
        inode = fs.namespace.resolve("/spread")
        nsd_ids = {placement[0] for placement in inode.blocks.values()}
        assert len(nsd_ids) == 4  # striped across all NSDs

    def test_overwrite_middle(self, bed):
        g, _, fs, m = bed
        payload = patterned(2 * fs.block_size)

        def io():
            h = yield m.open("/f", "w", create=True)
            yield m.write(h, payload)
            yield m.fsync(h)
            yield m.pwrite(h, 1000, b"X" * 50)
            yield m.close(h)
            h = yield m.open("/f", "r")
            return (yield m.read(h, len(payload)))

        expected = payload[:1000] + b"X" * 50 + payload[1050:]
        assert run_io(g, io()) == expected

    def test_rmw_partial_block_after_remount_cache_cold(self, bed):
        g, cluster, fs, m = bed
        payload = patterned(fs.block_size)

        def write_io():
            h = yield m.open("/f", "w", create=True)
            yield m.write(h, payload)
            yield m.close(h)

        run_io(g, write_io())
        # second client with a cold cache partially overwrites the block
        m2 = mounted(g, cluster, node="c1", max_coalesce=m.max_coalesce)

        def rmw_io():
            h = yield m2.open("/f", "r+")
            yield m2.pwrite(h, 100, b"Y" * 10)
            yield m2.close(h)
            h = yield m2.open("/f", "r")
            return (yield m2.read(h, fs.block_size))

        expected = payload[:100] + b"Y" * 10 + payload[110:]
        assert run_io(g, rmw_io()) == expected

    def test_sparse_read_returns_zeros(self, bed):
        g, _, fs, m = bed

        def io():
            h = yield m.open("/sparse", "w", create=True)
            yield m.pwrite(h, 2 * fs.block_size, b"end")
            yield m.close(h)
            h = yield m.open("/sparse", "r")
            return (yield m.read(h, 2 * fs.block_size + 3))

        data = run_io(g, io())
        assert data[: 2 * fs.block_size] == bytes(2 * fs.block_size)
        assert data[-3:] == b"end"

    def test_runs_of_several_blocks_per_server(self, bed):
        # 18 blocks over 4 NSDs put 4-5 blocks on each server, so a
        # coalesced mount moves multi-block runs both ways. Block 8 stays
        # a hole, and the unaligned overwrite of a cold block takes the
        # read-modify-write fetch.
        g, _, fs, m = bed
        bs = fs.block_size
        head = patterned(8 * bs, seed=3)
        tail = patterned(9 * bs + 100, seed=4)

        def io():
            h = yield m.open("/many", "w", create=True)
            yield m.pwrite(h, 0, head)
            yield m.pwrite(h, 9 * bs, tail)
            yield m.fsync(h)
            m.pool.invalidate(h.inode.ino)
            yield m.pwrite(h, 5 * bs + 7, b"X" * 10)
            yield m.close(h)
            m.pool.invalidate(h.inode.ino)
            h = yield m.open("/many", "r")
            return (yield m.read(h, 18 * bs + 100))

        want = bytearray(head + bytes(bs) + tail)
        want[5 * bs + 7 : 5 * bs + 17] = b"X" * 10
        assert run_io(g, io()) == bytes(want)

    def test_read_past_eof_short(self, bed):
        g, _, _, m = bed

        def io():
            h = yield m.open("/f", "w+", create=True)
            yield m.write(h, b"12345")
            yield m.fsync(h)
            return (yield m.pread(h, 3, 100))

        assert run_io(g, io()) == b"45"

    def test_read_empty_file(self, bed):
        g, _, _, m = bed

        def io():
            h = yield m.open("/f", "w", create=True)
            h2 = yield m.open("/f", "r")
            return (yield m.read(h2, 10))

        assert run_io(g, io()) == b""

    def test_append_mode(self, bed):
        g, _, _, m = bed

        def io():
            h = yield m.open("/log", "w", create=True)
            yield m.write(h, b"one")
            yield m.close(h)
            h = yield m.open("/log", "a")
            yield m.write(h, b"two")
            yield m.close(h)
            h = yield m.open("/log", "r")
            return (yield m.read(h, 100))

        assert run_io(g, io()) == b"onetwo"

    def test_w_mode_truncates(self, bed):
        g, _, _, m = bed

        def io():
            h = yield m.open("/f", "w", create=True)
            yield m.write(h, b"long old content")
            yield m.close(h)
            h = yield m.open("/f", "w")
            yield m.write(h, b"new")
            yield m.close(h)
            h = yield m.open("/f", "r")
            return (yield m.read(h, 100))

        assert run_io(g, io()) == b"new"


class TestSizeOnlyReads:
    """On a size-only filesystem a read returns its byte count, the same
    length a size-only write takes."""

    def bed(self):
        g, cluster, fs, _ = small_gfs(store_data=False)
        writer = mounted(g, cluster, node="c0")
        reader = mounted(g, cluster, node="c1")
        bs = fs.block_size
        size = 3 * bs + 100

        def write():
            h = yield writer.open("/f", "w", create=True)
            yield writer.write(h, size)
            yield writer.close(h)

        run_io(g, write())
        return g, reader, bs, size

    def test_pread_returns_the_count(self):
        g, m, bs, size = self.bed()

        def io():
            h = yield m.open("/f", "r")
            full = yield m.pread(h, 0, size)
            cut = yield m.pread(h, 2 * bs, 2 * bs)
            at_eof = yield m.pread(h, size, 10)
            return full, cut, at_eof

        assert run_io(g, io()) == (size, bs + 100, 0)

    def test_read_advances_by_the_count(self):
        g, m, bs, size = self.bed()

        def io():
            h = yield m.open("/f", "r")
            got = []
            for length in (bs + 10, 3 * bs, 10):
                n = yield m.read(h, length)
                got.append((n, h.pos))
            return got

        assert run_io(g, io()) == [
            (bs + 10, bs + 10),
            (size - bs - 10, size),
            (0, size),
        ]


class TestDurabilityAndCache:
    def test_write_is_write_behind(self, bed):
        g, _, fs, m = bed

        def io():
            h = yield m.open("/f", "w", create=True)
            yield m.write(h, patterned(fs.block_size))
            return fs.service.blocks_written

        # at the instant write() returns, the flush may not have finished
        written_at_return = run_io(g, io())
        g.run()  # drain
        assert fs.service.blocks_written >= 1
        assert written_at_return <= fs.service.blocks_written

    def test_fsync_forces_durability(self, bed):
        g, _, fs, m = bed

        def io():
            h = yield m.open("/f", "w", create=True)
            yield m.write(h, patterned(2 * fs.block_size))
            yield m.fsync(h)
            return fs.service.blocks_written

        assert run_io(g, io()) == 2

    def test_second_read_hits_cache(self, bed):
        g, _, fs, m = bed
        payload = patterned(fs.block_size)

        def io():
            h = yield m.open("/f", "w", create=True)
            yield m.write(h, payload)
            yield m.close(h)
            h = yield m.open("/f", "r")
            yield m.read(h, fs.block_size)
            before = fs.service.blocks_read
            h.seek(0)
            yield m.read(h, fs.block_size)
            return before, fs.service.blocks_read

        before, after = run_io(g, io())
        assert after == before  # no new NSD reads

    def test_closed_handle_rejected(self, bed):
        g, _, _, m = bed

        def io():
            h = yield m.open("/f", "w", create=True)
            yield m.close(h)
            return h

        h = run_io(g, io())
        with pytest.raises(ValueError, match="closed"):
            m.read(h, 1)


class TestCrossClientCoherence:
    def test_reader_sees_writer_update(self, bed):
        g, cluster, fs, m_writer = bed
        m_reader = mounted(g, cluster, node="c1", max_coalesce=m_writer.max_coalesce)
        payload1 = patterned(fs.block_size, seed=1)
        payload2 = patterned(fs.block_size, seed=2)

        def io():
            h = yield m_writer.open("/shared", "w", create=True)
            yield m_writer.write(h, payload1)
            yield m_writer.fsync(h)
            # reader caches version 1
            hr = yield m_reader.open("/shared", "r")
            v1 = yield m_reader.read(hr, fs.block_size)
            # writer overwrites → revokes reader's token, invalidates cache
            yield m_writer.pwrite(h, 0, payload2)
            yield m_writer.fsync(h)
            # reader re-reads: must see version 2
            hr.seek(0)
            v2 = yield m_reader.read(hr, fs.block_size)
            return v1, v2

        v1, v2 = run_io(g, io())
        assert v1 == payload1
        assert v2 == payload2

    def test_write_write_last_writer_wins(self, bed):
        g, cluster, fs, m0 = bed
        m1 = mounted(g, cluster, node="c1", max_coalesce=m0.max_coalesce)

        def io():
            h0 = yield m0.open("/f", "w", create=True)
            yield m0.write(h0, b"A" * 100)
            yield m0.fsync(h0)
            h1 = yield m1.open("/f", "r+")
            yield m1.pwrite(h1, 0, b"B" * 100)
            yield m1.fsync(h1)
            hr = yield m0.open("/f", "r")
            return (yield m0.read(hr, 100))

        assert run_io(g, io()) == b"B" * 100


class TestPermissions:
    def test_ro_mount_cannot_write(self, bed):
        g, cluster, fs, m = bed
        m_ro = mounted(g, cluster, node="c1", access="ro", max_coalesce=m.max_coalesce)

        def create_io():
            h = yield m.open("/f", "w", create=True)
            yield m.write(h, b"x")
            yield m.close(h)

        run_io(g, create_io())

        def ro_io():
            try:
                yield m_ro.open("/f", "w")
            except PermissionDenied:
                return "denied"

        assert run_io(g, ro_io()) == "denied"

    def test_ro_mount_can_read(self, bed):
        g, cluster, fs, m = bed

        def create_io():
            h = yield m.open("/f", "w", create=True)
            yield m.write(h, b"data")
            yield m.close(h)

        run_io(g, create_io())
        m_ro = mounted(g, cluster, node="c1", access="ro", max_coalesce=m.max_coalesce)

        def ro_io():
            h = yield m_ro.open("/f", "r")
            return (yield m_ro.read(h, 10))

        assert run_io(g, ro_io()) == b"data"

    def test_other_user_mode_bits(self, bed):
        g, cluster, fs, m = bed
        alice = Identity(uid=500, username="alice")
        bob = Identity(uid=501, username="bob")
        m_alice = mounted(
            g, cluster, node="c1", identity=alice, max_coalesce=m.max_coalesce
        )

        def create_io():
            h = yield m_alice.open("/private", "w", create=True)
            yield m_alice.write(h, b"secret")
            yield m_alice.close(h)

        run_io(g, create_io())
        fs.namespace.resolve("/private").mode = 0o600
        m_bob = mounted(
            g, cluster, node="c0", identity=bob, max_coalesce=m.max_coalesce
        )

        def bob_io():
            try:
                yield m_bob.open("/private", "r")
            except PermissionDenied:
                return "denied"

        assert run_io(g, bob_io()) == "denied"

        def owner_io():
            h = yield m_alice.open("/private", "r")
            return (yield m_alice.read(h, 10))

        assert run_io(g, owner_io()) == b"secret"


class TestMetadataOps:
    def test_mkdir_listdir(self, bed):
        g, _, _, m = bed

        def io():
            yield m.mkdir("/data")
            h = yield m.open("/data/f1", "w", create=True)
            yield m.close(h)
            return (yield m.listdir("/data"))

        assert run_io(g, io()) == ["f1"]

    def test_stat(self, bed):
        g, _, _, m = bed

        def io():
            h = yield m.open("/f", "w", create=True)
            yield m.write(h, b"x" * 123)
            yield m.close(h)
            return (yield m.stat("/f"))

        inode = run_io(g, io())
        assert inode.size == 123

    def test_unlink_frees_space(self, bed):
        g, _, fs, m = bed

        def io():
            h = yield m.open("/f", "w", create=True)
            yield m.write(h, patterned(2 * fs.block_size))
            yield m.close(h)
            used = fs.used_bytes
            yield m.unlink("/f")
            return used, fs.used_bytes

        used_before, used_after = run_io(g, io())
        assert used_before == 2 * fs.block_size
        assert used_after == 0

    def test_unlink_missing(self, bed):
        g, _, _, m = bed

        def io():
            try:
                yield m.unlink("/ghost")
            except NoSuchFile:
                return "missing"

        assert run_io(g, io()) == "missing"

    def test_rename(self, bed):
        g, _, _, m = bed

        def io():
            h = yield m.open("/old", "w", create=True)
            yield m.write(h, b"content")
            yield m.close(h)
            yield m.rename("/old", "/new")
            h = yield m.open("/new", "r")
            return (yield m.read(h, 10))

        assert run_io(g, io()) == b"content"

    def test_truncate(self, bed):
        g, _, fs, m = bed

        def io():
            h = yield m.open("/f", "w", create=True)
            yield m.write(h, patterned(3 * fs.block_size))
            yield m.fsync(h)
            yield m.truncate(h, 100)
            st = yield m.stat("/f")
            return st.size, len(st.blocks)

        size, nblocks = run_io(g, io())
        assert size == 100
        assert nblocks == 1
