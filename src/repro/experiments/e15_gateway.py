"""E15 — wide-area caching gateway: edge cache clusters vs direct mounts.

E7 made the paper's §1 argument quantitative: direct GFS access beats
wholesale staging because applications touch "individual pieces of very
large files". This experiment extends that argument to *latency*: a
database-style workload at a remote site pays one WAN round trip per
touched piece on a direct mount, no matter how often the same pieces are
re-read. A site-local caching gateway cluster (:mod:`repro.cache`, the
shape GPFS later productized as AFM/Panache) absorbs the re-reads:

* **cold** reads stream through the gateway and must cost about the same
  as a direct remote mount (the cache adds a LAN hop, not a second WAN
  trip);
* **warm** reads are served from the gateway's disk cache inside a
  validity lease — per-op latency collapses from ``RTT + transfer`` to
  the site-local floor, independent of WAN RTT;
* **writeback** acks writes at the edge and drains them home through
  coalesced RPCs, so a mixed read/write workload keeps edge-local
  latency while every acknowledged write still reaches home (fsync
  barriers the queue).

The sweep crosses WAN RTT x cache size x read/write mix; a final chaos
cell severs the WAN mid-workload and checks the partition contract:
reads inside a live lease keep completing from cache (zero failures),
writeback keeps acking, and the queue replays at heal with zero lost
acknowledged writes.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cache import CacheGateway, GatewayBlockCache
from repro.core.cluster import Gfs, NsdSpec
from repro.experiments.harness import Experiment, ExperimentResult, Gate
from repro.faults import FaultSchedule, attach_faults
from repro.obs import (
    OBS,
    AvailabilityObjective,
    DEFAULT_LATENCY_BOUNDS,
    LatencyObjective,
    SloTracker,
    universe_rows,
)
from repro.util.tables import Table
from repro.util.units import Gbps, MB, MiB

#: analytic site-local floor for one warm 1 MiB read: LAN transfer at the
#: client NIC + gateway media read + control-message slack. The headline
#: acceptance bound is warm latency <= 2x this floor.
GW_DISK_RATE = MB(400)
EDGE_NIC = Gbps(1)

EDGE_CLIENTS = ("c0", "c1", "c2", "d0")
GW_NODES = ("gw0", "gw1")


def site_floor_s(chunk: int) -> float:
    return chunk / EDGE_NIC + chunk / GW_DISK_RATE + 0.001


def _build_cell(tag: str, wan_delay: float, block_size: int, seed: int,
                nsd_servers: int = 4, blocks_per_nsd: int = 8192):
    """Two clusters across a WAN: ``home`` serving, ``edge`` importing.

    The device name carries ``tag`` so every cell of the sweep registers
    distinct metric keys when the OBS registry is enabled.
    """
    g = Gfs(seed=seed)
    net = g.network
    net.add_node("home-sw", kind="switch")
    net.add_node("edge-sw", kind="switch")
    net.add_link("home-sw", "edge-sw", Gbps(10), delay=wan_delay)
    servers = [f"h{i}" for i in range(nsd_servers)]
    for name in servers + ["hc0"]:
        net.add_host(name, "home-sw", Gbps(1), site="home")
    for name in list(EDGE_CLIENTS) + list(GW_NODES):
        net.add_host(name, "edge-sw", EDGE_NIC, site="edge")
    home = g.add_cluster("home", site="home")
    home.add_nodes(servers + ["hc0"])
    edge = g.add_cluster("edge", site="edge")
    edge.add_nodes(list(EDGE_CLIENTS) + list(GW_NODES))
    device = f"gfs-{tag}"
    fs = home.mmcrfs(
        device,
        [NsdSpec(server=s, blocks=blocks_per_nsd) for s in servers],
        block_size=block_size,
        store_data=False,
    )
    home.mmauth_update("AUTHONLY")
    edge.mmauth_update("AUTHONLY")
    home_pub = home.mmauth_genkey()
    edge_pub = edge.mmauth_genkey()
    home.mmauth_add("edge", edge_pub)
    edge.mmremotecluster_add("home", home_pub, contact_nodes=[servers[0]])
    home.mmauth_grant("edge", device, "rw")
    edge.mmremotefs_add("remote", "home", device)
    return g, home, edge, fs


def _seed_file(g, home, device: str, path: str, nbytes: int):
    m = g.run(until=home.mmmount(device, "hc0"))

    def io():
        h = yield m.open(path, "w", create=True)
        yield m.write(h, int(nbytes))
        yield m.close(h)

    g.run(until=g.sim.process(io(), name="seed"))
    return m


def _paced_read(g, mount, path, n_ops, chunk, stride_blocks, ok=None, failed=None):
    """Read ``n_ops`` chunks at block stride; returns (elapsed, latencies)."""

    def io():
        h = yield mount.open(path, "r")
        t0 = g.sim.now
        latencies: List[float] = []
        for i in range(n_ops):
            offset = (i % stride_blocks) * chunk
            ta = g.sim.now
            try:
                yield mount.pread(h, offset, chunk)
            except ConnectionError:
                if failed is not None:
                    failed[0] += 1
            else:
                if ok is not None:
                    ok[0] += 1
            latencies.append(g.sim.now - ta)
        yield mount.close(h)
        return g.sim.now - t0, latencies

    return g.run(until=g.sim.process(io(), name=f"read:{mount.node}"))


def _p95(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[int(0.95 * (len(ordered) - 1))]


def _run_cell(result: ExperimentResult, table: Table, rtt_ms: float,
              cache_frac: float, write_pct: int, *, file_blocks: int,
              mix_ops: int, seed: int) -> None:
    bs = int(MiB(1))
    tag = f"{int(rtt_ms)}ms-f{int(cache_frac * 100)}-w{write_pct}"
    g, home, edge, fs = _build_cell(tag, rtt_ms / 2000.0, bs, seed)
    cache_blocks = max(4, int(file_blocks * cache_frac)) + 8
    cache = GatewayBlockCache(cache_blocks * bs, bs, policy="2q")
    gw = CacheGateway(
        fs, list(GW_NODES), cache, name=f"gw-{tag}", mode="writeback",
        lease_duration=30.0,
    )
    _seed_file(g, home, fs.name, "/data", file_blocks * bs)

    # Database-style access: readahead off, so every op's latency is the
    # full request path (E7's "retrieving individual pieces" workload).
    m_direct = g.run(until=edge.mmmount("remote", "d0", readahead=0))
    m_cold = g.run(until=edge.mmmount("remote", "c0", gateway=gw, readahead=0))
    m_warm = g.run(until=edge.mmmount("remote", "c1", gateway=gw, readahead=0))
    m_mix = g.run(until=edge.mmmount("remote", "c2", gateway=gw, readahead=0))

    direct_s, direct_lat = _paced_read(
        g, m_direct, "/data", file_blocks, bs, file_blocks
    )
    cold_s, _cold_lat = _paced_read(
        g, m_cold, "/data", file_blocks, bs, file_blocks
    )
    warm_s, warm_lat = _paced_read(
        g, m_warm, "/data", file_blocks, bs, file_blocks
    )

    # Mixed phase: interleave warm re-reads with writeback writes.
    every = 0 if write_pct <= 0 else max(1, round(100 / write_pct))

    def mix_io():
        hr = yield m_mix.open("/data", "r")
        hw = yield m_mix.open("/mix", "w", create=True)
        t0 = g.sim.now
        for i in range(mix_ops):
            if every and i % every == 0:
                yield m_mix.pwrite(hw, (i % 4) * bs, bs)
            else:
                yield m_mix.pread(hr, (i % file_blocks) * bs, bs)
        yield m_mix.close(hw)  # fsync barrier: every acked write is home
        yield m_mix.close(hr)
        return g.sim.now - t0

    mix_s = g.run(until=g.sim.process(mix_io(), name="mix"))

    direct_mean = direct_s / file_blocks
    warm_mean = sum(warm_lat) / len(warm_lat)
    floor = site_floor_s(bs)
    prefix = f"r{int(rtt_ms)}_f{int(cache_frac * 100)}_w{write_pct}_"
    result.metrics.update(
        {
            prefix + "direct_s": direct_s,
            prefix + "cold_s": cold_s,
            prefix + "warm_s": warm_s,
            prefix + "mix_s": mix_s,
            prefix + "direct_mean_s": direct_mean,
            prefix + "warm_mean_s": warm_mean,
            prefix + "warm_p95_s": _p95(warm_lat),
            prefix + "cold_vs_direct": cold_s / direct_s if direct_s else 0.0,
            prefix + "warm_speedup": direct_mean / warm_mean if warm_mean else 0.0,
            prefix + "warm_over_floor": warm_mean / floor,
            prefix + "hit_ratio": gw.cache.hit_ratio,
            prefix + "origin_offload": gw.origin_offload,
            prefix + "write_acks": float(gw.write_acks),
            prefix + "writes_flushed": float(gw.writes_flushed),
            prefix + "lost_acked_writes": float(gw.write_acks - gw.writes_flushed),
        }
    )
    del direct_lat
    table.add_row(
        [
            f"{int(rtt_ms)}",
            f"{cache_frac:.0%}",
            f"{write_pct}%",
            f"{direct_mean * 1e3:.1f}",
            f"{warm_mean * 1e3:.1f}",
            f"{cold_s / direct_s:.2f}x" if direct_s else "-",
            f"{gw.origin_offload:.0%}",
            f"{gw.cache.hit_ratio:.0%}",
        ]
    )


def _run_chaos(result: ExperimentResult, *, rtt_ms: float, file_blocks: int,
               seed: int) -> dict:
    """WAN partition mid-workload: stale-within-lease reads + replay."""
    bs = int(MiB(1))
    wb_blocks = 8
    tag = f"chaos-{int(rtt_ms)}ms"
    g, home, edge, fs = _build_cell(tag, rtt_ms / 2000.0, bs, seed)
    cache = GatewayBlockCache((4 * file_blocks + 16) * bs, bs, policy="lru")
    gw = CacheGateway(
        fs, list(GW_NODES), cache, name=f"gw-{tag}", mode="writeback",
        lease_duration=60.0,
    )
    _seed_file(g, home, fs.name, "/data", file_blocks * bs)
    m = g.run(until=edge.mmmount("remote", "c0", gateway=gw,
                                 pagepool_bytes=4 * bs, readahead=0))
    mw = g.run(until=edge.mmmount("remote", "c1", gateway=gw,
                                  pagepool_bytes=4 * bs, readahead=0))

    # Warm the gateway + every token the cut-off side will need.
    _paced_read(g, m, "/data", file_blocks, bs, file_blocks)

    def prep_writer():
        h = yield mw.open("/wb", "w", create=True)
        yield mw.write(h, wb_blocks * bs)
        yield mw.close(h)

    g.run(until=g.sim.process(prep_writer(), name="prep-writer"))

    t0 = g.sim.now
    cut_at, cut_len = t0 + 0.5, 4.0
    minority = list(EDGE_CLIENTS) + list(GW_NODES)
    harness = attach_faults(
        g.sim,
        fs.service,
        manager_node=fs.manager_node,
        schedule=FaultSchedule().partition(cut_at, minority, cut_len),
        engine=g.engine,
        network=g.network,
        token_managers=[fs.token_manager],
        gateways=[gw],
    )
    reads_ok = [0]
    reads_failed = [0]

    def reader():
        h = yield m.open("/data", "r")
        for i in range(140):
            try:
                yield m.pread(h, (i % file_blocks) * bs, bs)
            except ConnectionError:
                reads_failed[0] += 1
            else:
                reads_ok[0] += 1
            yield g.sim.timeout(0.02)
        yield m.close(h)

    def writer():
        h = yield mw.open("/wb", "r+")
        for i in range(36):
            yield mw.pwrite(h, (i % wb_blocks) * bs, bs)
            yield g.sim.timeout(0.1)
        yield mw.close(h)  # fsync barrier parks across the cut, drains at heal

    procs = [
        g.sim.process(reader(), name="chaos-reader"),
        g.sim.process(writer(), name="chaos-writer"),
    ]
    g.run(until=g.sim.all_of(procs))
    t_heal = cut_at + cut_len
    t_end = g.sim.now
    harness.stop()
    lost = gw.write_acks - gw.writes_flushed - gw.writes_through
    result.metrics.update(
        {
            "chaos_reads_ok": float(reads_ok[0]),
            "chaos_reads_failed": float(reads_failed[0]),
            "chaos_stale_hits": float(gw.stale_hits),
            "chaos_write_acks": float(gw.write_acks),
            "chaos_writes_flushed": float(gw.writes_flushed),
            "chaos_lost_acked_writes": float(lost),
            "chaos_conflicts": float(gw.conflicts),
            "chaos_dirty_queue_end": float(gw.dirty_queue_depth),
            "chaos_partitions": float(harness.partition.partitions),
            "chaos_heals": float(harness.partition.heals),
        }
    )
    return {
        "phases": [
            {"name": "nominal", "t0": t0, "t1": cut_at},
            {"name": "partitioned", "t0": cut_at, "t1": t_heal},
            {"name": "healed", "t0": t_heal, "t1": t_end},
        ],
        "sim": g.sim,
    }


def run_e15(
    rtts_ms: Sequence[float] = (10.0, 40.0, 80.0),
    cache_fractions: Sequence[float] = (1.0, 0.5),
    write_pcts: Sequence[int] = (0, 25),
    file_blocks: int = 96,
    mix_ops: int = 32,
    chaos: bool = True,
    seed: int = 0,
) -> ExperimentResult:
    """Sweep WAN RTT x cache size x read/write mix through the gateway."""
    result = ExperimentResult(
        exp_id="E15",
        title="wide-area caching gateway: edge cache vs direct WAN mounts",
        paper_claim="(§1 database-style access, extended: re-reads of remote "
        "pieces should cost site-local latency, not a WAN RTT)",
    )
    table = Table(
        [
            "RTT ms", "cache", "writes", "direct ms/op", "warm ms/op",
            "cold/direct", "offload", "hit",
        ],
        title=f"{file_blocks} MiB file, 1 MiB ops, readahead off "
        "(per-piece access, as in E7)",
    )
    for rtt_ms in rtts_ms:
        for frac in cache_fractions:
            for pct in write_pcts:
                _run_cell(
                    result, table, rtt_ms, frac, pct,
                    file_blocks=file_blocks, mix_ops=mix_ops, seed=seed,
                )
    result.table = table
    result.metrics["site_floor_s"] = site_floor_s(int(MiB(1)))
    obs_meta = None
    if chaos:
        obs_meta = _run_chaos(
            result, rtt_ms=max(rtts_ms), file_blocks=min(file_blocks, 24),
            seed=seed,
        )
    result.notes = (
        "warm reads stay within 2x the site-local floor at every RTT; a "
        "WAN cut mid-workload surfaces zero read failures inside the lease "
        "and zero lost acknowledged writes after replay"
    )
    if OBS.enabled and obs_meta is not None:
        OBS.scrape(obs_meta["sim"])
        le = next(b for b in DEFAULT_LATENCY_BOUNDS if b >= 1.0)
        tracker = (
            SloTracker()
            .add(LatencyObjective(
                name="edge_read_latency",
                metric="client.read.latency",
                le=le,
                target=0.99,
                window=2.0,
            ))
            .add(AvailabilityObjective(
                name="zero_failed_reads",
                ok_metric="client.read.ok",
                err_metric="client.read.errors",
                target=1.0,
                window=2.0,
            ))
        )
        sim_id = obs_meta["sim"].id
        result.obs = {
            "sim": sim_id,
            "phases": obs_meta["phases"],
            "slo": tracker.evaluate(universe_rows(OBS.rows, sim_id)),
        }
    return result


E15 = Experiment(
    "E15", "caching gateway", run_e15,
    quick=dict(rtts_ms=(20.0, 80.0), cache_fractions=(1.0, 0.5),
               write_pcts=(0, 25), file_blocks=24, mix_ops=12),
    gates=(
        Gate("chaos_reads_failed", lambda m: m["chaos_reads_failed"] == 0,
             "== 0: every read during the WAN partition is served"),
        Gate("chaos_lost_acked_writes", lambda m: m["chaos_lost_acked_writes"] == 0,
             "== 0: writeback replays every acknowledged write after the cut"),
        Gate("chaos_conflicts", lambda m: m["chaos_conflicts"] == 0,
             "== 0: the chaos phase hits no write conflict"),
    ),
)
