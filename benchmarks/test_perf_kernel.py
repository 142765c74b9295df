"""Kernel and block-RPC microbenches (perf-regression harness).

The flow-engine churn benches (``test_perf_flowengine.py``) measure the
rate *solver*; these measure the other half of every experiment's wall
clock: the event kernel itself and the NSD block-RPC data path built on
it. Three workloads:

* ``event_churn`` — pure kernel: processes spinning on zero-timeout
  sequencers, child-process composition, already-processed event waits,
  and scheduled callbacks, with no network or storage work attached.
* ``block_rpc`` — NSD write+read round trips from N clients striped over
  M servers on a size-only filesystem (no byte copying), i.e. the
  per-block control/data/ack protocol cost. Each client process drives
  its RPCs with ``yield from``, as the client's run processes do.
* ``block_rpc_coalesced`` — the same logical blocks moved through the
  scatter-gather multi-block RPCs (``read_blocks``/``write_blocks``)
  with ``max_coalesce=8``: one control round trip and one engine
  transfer per contiguous same-server run.

Each bench appends ops/s to ``BENCH_kernel.json`` in the repo root so
successive PRs accumulate a perf trajectory (the ``*_pre_fastpath`` rows
are the frozen pre-optimization baseline). Run with::

    pytest benchmarks/test_perf_kernel.py --benchmark-only
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.cluster import Gfs, NsdSpec
from repro.sim import Simulation
from repro.util.units import Gbps, KiB

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"


# -- event churn -------------------------------------------------------------


def run_event_churn(nprocs: int = 200, iters: int = 100) -> dict:
    """Drive ``nprocs`` processes through ``iters`` kernel-heavy rounds.

    Each round exercises four hot kernel paths: a zero-timeout sequencer,
    a child-process spawn + composition wait, a wait on an
    already-processed event (the relay/trampoline path), and a scheduled
    callback hop.
    """
    sim = Simulation()
    ticks = [0]

    def leaf(sim):
        yield sim.timeout(0.0)
        return 1

    def worker(sim, already_done):
        for _ in range(iters):
            yield sim.timeout(0.0)
            child = sim.process(leaf(sim))
            yield child
            yield already_done  # processed long ago: immediate-resume path
            sim.schedule_callback(0.0, lambda: ticks.__setitem__(0, ticks[0] + 1))

    done = sim.event(name="already-done")
    done.succeed("v")
    sim.run()  # process the marker event so waiters take the fast path
    for _ in range(nprocs):
        sim.process(worker(sim, done))
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert ticks[0] == nprocs * iters
    return {
        "kernel_events": sim._seq,
        "elapsed_s": elapsed,
        "ops": sim._seq,
        "ops_per_s": sim._seq / elapsed,
    }


# -- block RPCs --------------------------------------------------------------


def _rpc_testbed(clients: int, servers: int):
    """Size-only single-switch cluster: the RPC protocol with no payload."""
    g = Gfs(seed=0)
    net = g.network
    net.add_node("sw", kind="switch")
    server_names = [f"nsd{i}" for i in range(servers)]
    client_names = [f"c{i}" for i in range(clients)]
    for name in server_names + client_names:
        net.add_host(name, "sw", Gbps(10), site="bench")
    cluster = g.add_cluster("bench")
    cluster.add_nodes(server_names + client_names)
    fs = cluster.mmcrfs(
        "bench0",
        [NsdSpec(server=s, blocks=4096) for s in server_names],
        block_size=KiB(256),
        store_data=False,
    )
    return g, fs, client_names


def run_block_rpc(clients: int = 16, servers: int = 8, blocks: int = 64) -> dict:
    """Per-block write+read round trips striped over every server."""
    g, fs, client_names = _rpc_testbed(clients, servers)
    service = fs.service
    nsd_ids = sorted(fs.nsds)
    bs = fs.block_size

    def io(client_i, node):
        for b in range(blocks):
            nsd_id = nsd_ids[b % len(nsd_ids)]
            phys = (client_i * blocks + b) // len(nsd_ids)
            yield from service.write_block(node, nsd_id, phys, 0, bs)
            yield from service.read_block(node, nsd_id, phys, 0, bs)

    for i, node in enumerate(client_names):
        g.sim.process(io(i, node))
    t0 = time.perf_counter()
    g.run()
    elapsed = time.perf_counter() - t0
    nops = 2 * clients * blocks
    assert service.blocks_written == clients * blocks
    assert service.blocks_read == clients * blocks
    return {
        "kernel_events": g.sim._seq,
        "elapsed_s": elapsed,
        "ops": nops,
        "ops_per_s": nops / elapsed,
    }


def run_block_rpc_coalesced(
    clients: int = 16, servers: int = 8, blocks: int = 64, max_coalesce: int = 8
) -> dict:
    """The same logical blocks via scatter-gather multi-block RPCs."""
    g, fs, client_names = _rpc_testbed(clients, servers)
    service = fs.service
    nsd_ids = sorted(fs.nsds)
    bs = fs.block_size

    def io(client_i, node):
        for b0 in range(0, blocks, max_coalesce):
            run = range(b0, min(b0 + max_coalesce, blocks))
            nsd_id = nsd_ids[client_i % len(nsd_ids)]
            base = client_i * blocks
            phys_run = [base + b for b in run]
            yield from service.write_blocks(
                node, nsd_id, [(p, 0, bs) for p in phys_run]
            )
            yield from service.read_blocks(node, nsd_id, phys_run)

    for i, node in enumerate(client_names):
        g.sim.process(io(i, node))
    t0 = time.perf_counter()
    g.run()
    elapsed = time.perf_counter() - t0
    nops = 2 * clients * blocks  # logical per-block ops, same as run_block_rpc
    assert service.blocks_written == clients * blocks
    assert service.blocks_read == clients * blocks
    return {
        "kernel_events": g.sim._seq,
        "elapsed_s": elapsed,
        "ops": nops,
        "ops_per_s": nops / elapsed,
    }


# -- gateway hit path --------------------------------------------------------


def run_gateway_hit_path(
    clients: int = 16, servers: int = 4, blocks: int = 64, iters: int = 4
) -> dict:
    """Warm edge-cache reads: control + media + LAN per hit, no origin RPC.

    One cold pass fills the gateway cache; the timed region is every
    client re-reading every block ``iters`` times straight out of the
    cache (the steady state E15 measures as warm latency). The origin
    byte counter must not move inside the timed region.
    """
    from repro.cache import CacheGateway, GatewayBlockCache

    g = Gfs(seed=0)
    net = g.network
    net.add_node("sw", kind="switch")
    server_names = [f"nsd{i}" for i in range(servers)]
    client_names = [f"c{i}" for i in range(clients)]
    gw_names = ["gw0", "gw1"]
    for name in server_names + client_names + gw_names:
        net.add_host(name, "sw", Gbps(10), site="bench")
    cluster = g.add_cluster("bench")
    cluster.add_nodes(server_names + client_names + gw_names)
    fs = cluster.mmcrfs(
        "bench0",
        [NsdSpec(server=s, blocks=4096) for s in server_names],
        block_size=KiB(256),
        store_data=False,
    )
    cache = GatewayBlockCache((blocks + 8) * fs.block_size, fs.block_size)
    gw = CacheGateway(fs, gw_names, cache, name="bench-gw", lease_duration=1e9)

    m = g.run(until=cluster.mmmount("bench0", "c0"))

    def seed():
        h = yield m.open("/f", "w", create=True)
        yield m.write(h, blocks * fs.block_size)
        yield m.close(h)

    g.run(until=g.sim.process(seed()))
    inode = fs.namespace.resolve("/f")
    placed = [fs.lookup_block(inode, b) for b in range(blocks)]

    def warm():
        for b in range(blocks):
            yield from gw.read_block("c0", inode, b, placed[b])

    g.run(until=g.sim.process(warm()))
    assert gw.cache.misses == blocks

    origin_before = gw.origin_bytes

    def reread(node):
        for _ in range(iters):
            for b in range(blocks):
                yield from gw.read_block(node, inode, b, placed[b])

    for node in client_names:
        g.sim.process(reread(node))
    seq0 = g.sim._seq
    t0 = time.perf_counter()
    g.run()
    elapsed = time.perf_counter() - t0
    nops = clients * blocks * iters
    assert gw.origin_bytes == origin_before  # every timed read was a hit
    assert gw.cache.hits >= nops
    return {
        "kernel_events": g.sim._seq - seq0,
        "elapsed_s": elapsed,
        "ops": nops,
        "ops_per_s": nops / elapsed,
    }


# -- recording ----------------------------------------------------------------


def record(name: str, stats: dict, note: str = "") -> None:
    data = {}
    if RESULTS_PATH.exists():
        try:
            data = json.loads(RESULTS_PATH.read_text())
        except (ValueError, OSError):
            data = {}
    row = {
        "ops_per_s": round(stats["ops_per_s"], 2),
        "elapsed_s": round(stats["elapsed_s"], 3),
        "ops": stats["ops"],
        "kernel_events": stats["kernel_events"],
    }
    if note:
        row["note"] = note
    data[name] = row
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _bench(benchmark, capsys, fn, name: str, note: str = "", **kwargs) -> dict:
    stats = benchmark.pedantic(
        fn, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0
    )
    record(name, stats, note=note)
    with capsys.disabled():
        print()
        print(
            f"{name}: {stats['ops_per_s']:.0f} ops/s wall "
            f"({stats['elapsed_s']:.3f}s for {stats['ops']} ops, "
            f"{stats['kernel_events']} kernel events)"
        )
    return stats


def test_event_churn(benchmark, capsys):
    _bench(benchmark, capsys, run_event_churn, "event_churn")


def test_block_rpc(benchmark, capsys):
    _bench(
        benchmark,
        capsys,
        run_block_rpc,
        "block_rpc",
        note=(
            "post-fastpath per-block path: ~1.9x over baseline; the residual "
            "is genuine rate-solver and protocol work per block, which only "
            "the coalesced path below removes"
        ),
    )


def test_block_rpc_coalesced(benchmark, capsys):
    stats = _bench(
        benchmark,
        capsys,
        run_block_rpc_coalesced,
        "block_rpc_coalesced",
        note=(
            "same logical blocks via max_coalesce=8 scatter-gather RPCs: "
            "~10x over the per-block baseline with ~8x fewer kernel events"
        ),
    )
    # One scatter-gather RPC per run of 8 blocks: the coalesced path must
    # move the same logical blocks with far fewer kernel events.
    plain = json.loads(RESULTS_PATH.read_text()).get("block_rpc")
    if plain:
        assert stats["kernel_events"] < plain["kernel_events"] / 2


def test_gateway_hit_path(benchmark, capsys):
    _bench(
        benchmark,
        capsys,
        run_gateway_hit_path,
        "gateway_hit_path",
        note=(
            "warm edge-cache reads through the caching gateway: one control "
            "message, one media read, one LAN transfer per hit; zero origin "
            "RPCs in the timed region"
        ),
    )
