"""Tests for trace-driven replay."""

import pytest

from repro.workloads.replay import TraceOp, TraceReplay, parse_trace

from tests.core.testbed import mounted, small_gfs


def bed():
    g, cluster, fs, _ = small_gfs()
    m = mounted(g, cluster, node="c0")
    return g, fs, m


SAMPLE = """
# a small app
0.0   open   /a.dat  -  -
0.0   write  /a.dat  0  4096
0.5   read   /a.dat  0  1024
1.0   fsync  /a.dat  -  -
1.0   close  /a.dat  -  -
"""


class TestParse:
    def test_sample(self):
        ops = parse_trace(SAMPLE.splitlines())
        assert len(ops) == 5
        assert ops[0] == TraceOp(0.0, "open", "/a.dat")
        assert ops[1].length == 4096

    def test_comments_and_blanks_skipped(self):
        ops = parse_trace(["# only a comment", "", "0 open /x - -"])
        assert len(ops) == 1

    def test_field_count_enforced(self):
        with pytest.raises(ValueError, match="5 fields"):
            parse_trace(["0 open /x"])

    def test_unknown_op(self):
        with pytest.raises(ValueError, match="unknown trace op"):
            TraceOp(0, "mmap", "/x")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TraceOp(-1, "open", "/x")


class TestReplay:
    def test_sample_replays(self):
        g, fs, m = bed()
        replay = TraceReplay(m, SAMPLE)
        result = g.run(until=replay.run())
        assert result.ops == 5
        assert result.bytes_written == 4096
        assert result.bytes_read == 1024
        assert fs.namespace.resolve("/a.dat").size == 4096

    def test_size_only_read_across_eof_counts_what_it_returned(self):
        g, cluster, fs, _ = small_gfs(store_data=False)
        m = mounted(g, cluster, node="c0")
        trace = """
        0.0 open  /a.dat -    -
        0.0 write /a.dat 0    4096
        0.0 read  /a.dat 3072 4096
        0.0 close /a.dat -    -
        """
        result = g.run(until=TraceReplay(m, trace).run())
        assert result.bytes_read == 1024

    def test_timestamps_respected(self):
        g, fs, m = bed()
        replay = TraceReplay(m, SAMPLE)
        result = g.run(until=replay.run())
        assert result.elapsed >= 1.0  # last op stamped at t=1.0

    def test_closed_loop_never_reorders(self):
        # a huge write at t=0 pushes the t=0.001 read later; both complete
        g, fs, m = bed()
        trace = [
            TraceOp(0.0, "open", "/big"),
            TraceOp(0.0, "write", "/big", 0, 8 * fs.block_size),
            TraceOp(0.001, "read", "/big", 0, 1024),
            TraceOp(0.001, "close", "/big"),
        ]
        result = g.run(until=TraceReplay(m, trace).run())
        assert result.bytes_read == 1024

    def test_unopened_file_rejected(self):
        g, fs, m = bed()
        replay = TraceReplay(m, [TraceOp(0, "read", "/ghost", 0, 1)])
        with pytest.raises(ValueError, match="unopened"):
            g.run(until=replay.run())

    def test_forgotten_handles_closed(self):
        g, fs, m = bed()
        trace = [
            TraceOp(0.0, "open", "/leak"),
            TraceOp(0.0, "write", "/leak", 0, 2048),
        ]
        g.run(until=TraceReplay(m, trace).run())
        assert m.pool.total_dirty_blocks == 0  # implicit close flushed

    def test_mkdir_and_unlink(self):
        g, fs, m = bed()
        trace = [
            TraceOp(0.0, "mkdir", "/d"),
            TraceOp(0.0, "open", "/d/f"),
            TraceOp(0.0, "write", "/d/f", 0, 100),
            TraceOp(0.0, "close", "/d/f"),
            TraceOp(0.1, "unlink", "/d/f"),
        ]
        g.run(until=TraceReplay(m, trace).run())
        assert fs.namespace.listdir("/d") == []

    def test_validation(self):
        g, fs, m = bed()
        with pytest.raises(ValueError, match="empty"):
            TraceReplay(m, [])
        with pytest.raises(ValueError, match="non-decreasing"):
            TraceReplay(m, [TraceOp(1, "open", "/x"), TraceOp(0, "close", "/x")])
