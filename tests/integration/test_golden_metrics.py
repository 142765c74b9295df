"""Golden-metrics regression: fast paths must be *bit-identical*, not close.

The kernel fast paths and the NSD/network caches (ARCHITECTURE.md §10)
all claim exact-semantics: same event order, same floats, same reported
numbers. This pins that claim to disk. ``golden/golden_metrics.json``
was captured on the pre-optimization kernel; every metric (and, for
E3/E8, every table cell) is stored as ``repr`` so the comparison is
bit-level on the float values — ``pytest.approx`` would hide exactly
the class of drift these tests exist to catch.

The coalescing test is different in kind: with ``max_coalesce > 1`` the
event *schedule* legitimately changes (fewer, larger RPCs), so instead
of bit-identity it asserts logical equivalence with the legacy per-block
path — same bytes moved, same block counts, same checksum verification
count, same data read back.

Regenerate goldens (only after an *intentional* semantic change)::

    PYTHONPATH=src python tests/integration/capture_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "golden_metrics.json"


def _capture(res) -> dict:
    """repr-encode an ExperimentResult exactly like the capture script."""
    out = {"metrics": {k: repr(v) for k, v in res.metrics.items()}}
    if res.table is not None:
        out["table"] = [[repr(c) for c in row] for row in res.table.rows]
    return out


def _golden(key: str) -> dict:
    data = json.loads(GOLDEN_PATH.read_text())
    return data[key]


def _assert_identical(got: dict, want: dict, key: str) -> None:
    for name in sorted(set(got["metrics"]) | set(want["metrics"])):
        assert got["metrics"].get(name) == want["metrics"].get(name), (
            f"{key} metric {name!r} drifted: "
            f"{got['metrics'].get(name)} != golden {want['metrics'].get(name)}"
        )
    if "table" in want:  # E13/E14 goldens pin metrics only
        assert got.get("table") == want["table"], f"{key} table drifted"


def test_e8_quick_bit_identical():
    from repro.experiments.e8_latency import run_e8
    from repro.util.units import GB

    _assert_identical(_capture(run_e8(nbytes=GB(1))), _golden("E8"), "E8")


def test_e3_quick_bit_identical():
    from repro.experiments.fig8_sc04 import run_fig8
    from repro.util.units import MB

    res = run_fig8(
        nsd_servers=21,
        clients_per_site=12,
        per_client_phase_bytes=MB(96),
        phases=2,
    )
    _assert_identical(_capture(res), _golden("E3"), "E3")


def test_e13_quick_bit_identical():
    from repro.experiments.e13_chaos import E13

    _assert_identical(_capture(E13.run(quick=True)), _golden("E13"), "E13")


def test_e14_quick_bit_identical():
    from repro.experiments.e14_integrity import E14

    _assert_identical(_capture(E14.run(quick=True)), _golden("E14"), "E14")


# -- coalescing-on vs legacy logical equivalence ------------------------------


def _coalesce_testbed(max_coalesce: int):
    from repro.core.cluster import Gfs, NsdSpec
    from repro.util.units import Gbps, KiB

    g = Gfs(seed=0)
    net = g.network
    net.add_node("sw", kind="switch")
    servers = [f"nsd{i}" for i in range(4)]
    for name in servers + ["writer", "reader"]:
        net.add_host(name, "sw", Gbps(10), site="lab")
    cluster = g.add_cluster("lab")
    cluster.add_nodes(servers + ["writer", "reader"])
    fs = cluster.mmcrfs(
        "gold0",
        [NsdSpec(server=s, blocks=4096) for s in servers],
        block_size=KiB(256),
        store_data=True,
    )
    w = g.run(cluster.mmmount("gold0", "writer", max_coalesce=max_coalesce))
    r = g.run(cluster.mmmount("gold0", "reader", max_coalesce=max_coalesce))
    return g, fs, w, r


def _payload(n: int) -> bytes:
    import hashlib

    out = bytearray()
    h = hashlib.sha256(b"coalesce-golden").digest()
    while len(out) < n:
        out.extend(h)
        h = hashlib.sha256(h).digest()
    return bytes(out[:n])


def test_coalescing_logically_equivalent_to_legacy():
    """Same workload, coalescing off vs on: identical logical effects.

    Bytes read/written, per-block service counters, and checksum
    verification counts must match exactly; only the RPC *shape* (the
    ``nsd.rpc.total`` count the blocks travel in) may differ. Data must
    read back identical.
    """
    from repro.util.units import KiB, MiB

    data = _payload(int(MiB(3)) + 12345)
    results = {}
    for mc in (1, 8):
        g, fs, w, r = _coalesce_testbed(mc)
        h = g.run(w.open("/g", "w+", create=True))
        g.run(w.write(h, data))
        g.run(w.close(h))
        h2 = g.run(r.open("/g", "r"))
        back = g.run(r.read(h2, len(data)))
        # a second, partially-cached read (readahead overlap + RMW path)
        g.run(r.pread(h2, int(KiB(300)), int(MiB(1))))
        g.run(r.close(h2))
        assert back == data, f"data corrupted with max_coalesce={mc}"
        results[mc] = {
            "bytes_written": w.bytes_written,
            "bytes_read": r.bytes_read,
            "blocks_written": fs.service.blocks_written,
            "blocks_read": fs.service.blocks_read,
            "checksum_verifications": fs.service.checksum_verifications,
        }
    assert results[1] == results[8], (
        f"coalescing changed logical effects: {results[1]} != {results[8]}"
    )


def test_multi_block_rpc_verify_counts_match_per_block():
    """read_blocks(verify=True) verifies every block, like N read_block calls."""
    from repro.util.units import KiB

    g, fs, w, _ = _coalesce_testbed(max_coalesce=8)
    service = fs.service
    bs = fs.block_size
    nsd_id = min(fs.nsds)

    def io():
        yield from service.write_blocks(
            "writer", nsd_id, [(p, 0, bytes([p]) * int(bs)) for p in range(6)]
        )
        datas = yield from service.read_blocks(
            "writer", nsd_id, range(6), verify=True
        )
        assert [d[:1] for d in datas] == [bytes([p]) for p in range(6)]
        assert all(len(d) == int(bs) for d in datas)

    g.run(g.sim.process(io()))
    assert service.checksum_verifications == 6
    assert service.blocks_written == 6
    assert service.blocks_read == 6
    assert int(KiB(256)) == int(bs)
