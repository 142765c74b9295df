"""The five benchmark workloads, built only from the library's public API.

Each workload is a function ``setup(seed)`` that builds a fresh universe
(topology, clusters, keys, mounts, seed files, cache warm-up) and returns
the *timed region*: a zero-argument callable that runs the closed-loop
load and returns an :class:`Outcome`. Every simulated client issues its
next op only when its previous op completes.

``seed`` drives every generated input (stagger offsets, size jitter, read
offsets) and is passed to ``Gfs(seed=)``. Sizes are jittered by shuffling
a fixed multiset, so the total work is the same for every seed and run
time does not wander with it. ``figs`` is fully deterministic and ignores
the seed.

The sizes below are frozen: changing one changes what the benchmark
measures, and the reference values in ``reference.json`` with it. Each
timed region takes 0.2-2.5 s on a 2-vCPU virtual machine, so that one
10 s run holds several episodes.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

from repro.cache import CacheGateway, GatewayBlockCache
from repro.core import Gfs
from repro.core.cluster import NsdSpec
from repro.experiments.fig11_scaling import run_fig11
from repro.experiments.fig2_sc02 import run_fig2
from repro.experiments.fig5_sc03 import run_fig5
from repro.experiments.fig8_sc04 import run_fig8
from repro.net import FlowEngine, Network, TcpModel
from repro.sim import Simulation
from repro.topology.teragrid import add_teragrid_backbone
from repro.util.units import GB, MB, Gbps, KiB, MiB

#: E17 shape: SDSC NSD hosts behind the GbE switch -> NCSA/ANL I/O hosts.
FLEET = dict(clients=96, rounds=3, concurrency=6, servers=8, io_hosts=16)

#: Figs 2/5/8/11 (E1-E4), the quick report registry's shapes scaled down
#: so one pass of all four takes about 2 s.
FIGS = {
    "E1": (run_fig2, dict(total_bytes=GB(4))),
    "E2": (run_fig5, dict(nsd_servers=20, sdsc_viz_nodes=8, ncsa_viz_nodes=2,
                          per_node_bytes=MB(240), restart_after=0.6,
                          restart_pause=0.3)),
    "E3": (run_fig8, dict(nsd_servers=21, clients_per_site=4,
                          per_client_phase_bytes=MB(160), phases=2)),
    "E4": (run_fig11, dict(node_counts=(1, 4, 8), region_bytes=MiB(16),
                           nsd_servers=16, ds4100_count=8)),
}

#: One machine-room cluster: clients and NSD servers on one GbE switch.
LAN = dict(clients=32, servers=8, nic=Gbps(1), block=KiB(256), file_mib=32,
           io=MiB(1), read_pool=MiB(8), random_reads=16)

#: Home and edge clusters across the WAN, edge clients behind a gateway.
WAN = dict(one_way_delay=0.020, rate=Gbps(10), servers=4, clients=8,
           gateways=2, block=MiB(1), read_blocks=256, own_blocks=8,
           client_pool=MiB(16), ops_per_client=300, write_every=5)


@dataclass
class Outcome:
    """What one timed region did, in simulated terms.

    ``latencies`` maps an op type to the simulated seconds each op of
    that type took; ``outputs`` holds other simulated results compared
    against the reference. ``check`` runs after the clock stops and
    returns the exact invariants that failed.
    """

    attempted: int
    completed: int
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    outputs: Dict[str, float] = field(default_factory=dict)
    check: Callable[[], List[str]] = lambda: []


def _jittered(rng: random.Random, count: int, base: int, step: int) -> List[int]:
    """``count`` sizes around ``base``, shuffled: the sum is seed-independent."""
    sizes = [base + step * ((k % 5) - 2) for k in range(count)]
    rng.shuffle(sizes)
    return sizes


def _expect(failures: List[str], what: str, got, want) -> None:
    if got != want:
        failures.append(f"{what}: got {got!r}, expected {want!r}")


# -- fleet -------------------------------------------------------------------


def fleet(seed: int) -> Callable[[], Outcome]:
    p = FLEET
    rng = random.Random(seed)
    net = Network()
    add_teragrid_backbone(net, sites=("sdsc", "ncsa", "anl"))
    net.add_node("sdsc-gbe", site="sdsc", kind="switch")
    net.add_link("sdsc-gbe", "sdsc-sw", Gbps(128), delay=1e-5, efficiency=0.96)
    servers = [f"nsd{i:02d}" for i in range(p["servers"])]
    for name in servers:
        net.add_host(name, "sdsc-gbe", Gbps(1), site="sdsc")
    hosts = []
    for j in range(p["io_hosts"]):
        site = "ncsa" if j % 2 == 0 else "anl"
        hosts.append(f"ion{j:02d}")
        net.add_host(hosts[-1], f"{site}-sw", Gbps(10), site=site)
    sim = Simulation()
    engine = FlowEngine(sim, net, default_tcp=TcpModel(window=MiB(16)))
    clients, rounds, conc = p["clients"], p["rounds"], p["concurrency"]
    n_ops = clients * rounds * conc
    # 8-16 MiB per transfer, in 0.5 MiB steps.
    sizes = [MiB(8) + MiB(1) // 2 * (k % 17) for k in range(n_ops)]
    rng.shuffle(sizes)
    starts = [rng.uniform(0.0, 1.0) for _ in range(clients)]

    def timed() -> Outcome:
        lat: List[float] = []
        peak_cols = [0]

        def client(k: int):
            yield sim.timeout(starts[k])
            host = hosts[k % len(hosts)]
            for r in range(rounds):
                t0 = sim.now
                evts = []
                for j in range(conc):
                    evt = engine.transfer(
                        servers[(k + r * conc + j) % len(servers)], host,
                        sizes[(k * rounds + r) * conc + j], tags=("fleet",),
                    )
                    evt.callbacks.append(lambda _e, t0=t0: lat.append(sim.now - t0))
                    evts.append(evt)
                peak_cols[0] = max(peak_cols[0], engine.class_count())
                yield sim.all_of(evts)

        procs = [sim.process(client(k), name=f"cl{k:03d}") for k in range(clients)]
        sim.run(until=sim.all_of(procs))

        def check() -> List[str]:
            failures: List[str] = []
            _expect(failures, "bytes_moved", engine.bytes_moved, float(sum(sizes)))
            if peak_cols[0] > 128:
                failures.append(f"solver_cols_peak {peak_cols[0]} > 128")
            return failures

        return Outcome(n_ops, len(lat), {"transfer": lat}, {"sim_s": sim.now}, check)

    return timed


# -- figs --------------------------------------------------------------------


def figs(seed: int) -> Callable[[], Outcome]:
    # Each runner builds its own scenario inside the timed region, so the
    # set-up a user pays is loading the figure code: a fresh interpreter
    # importing the four runners, as ``python -m repro report`` does.
    modules = ",".join(run.__module__ for run, _kwargs in FIGS.values())
    subprocess.run(
        [sys.executable, "-c", f"import {modules}"], check=True,
        env={**os.environ, "PYTHONPATH": str(Path(sys.modules["repro"].__file__).parents[1])},
    )

    def timed() -> Outcome:
        outputs: Dict[str, float] = {}
        for exp_id, (run, kwargs) in FIGS.items():
            result = run(**kwargs)
            for key, value in result.metrics.items():
                outputs[f"{exp_id}.{key}"] = float(value)
        return Outcome(len(FIGS), len(FIGS), {}, outputs)

    return timed


# -- lan_write / lan_read ------------------------------------------------------


def _lan_cluster(seed: int, **mount_kwargs):
    p = LAN
    g = Gfs(seed=seed)
    net = g.network
    net.add_node("lan-sw", kind="switch")
    servers = [f"nsd{i}" for i in range(p["servers"])]
    clients = [f"c{k:02d}" for k in range(p["clients"])]
    for name in servers + clients:
        net.add_host(name, "lan-sw", p["nic"], site="lan")
    cluster = g.add_cluster("lan")
    cluster.add_nodes(servers + clients)
    max_file = MiB(p["file_mib"] + 8)
    blocks = 2 * p["clients"] * max_file // p["block"] // p["servers"] + 64
    fs = cluster.mmcrfs(
        "gpfs0", [NsdSpec(server=s, blocks=blocks) for s in servers],
        block_size=p["block"], store_data=False,
    )
    mounting = [cluster.mmmount("gpfs0", c, **mount_kwargs) for c in clients]
    g.run(until=g.sim.all_of(mounting))
    return g, fs, [m.value for m in mounting]


def _run_clients(g, loops) -> None:
    """Run one simulated client per generator until all have finished."""
    procs = [g.sim.process(loop, name=f"client{k:02d}") for k, loop in enumerate(loops)]
    g.run(until=g.sim.all_of(procs))


def lan_write(seed: int) -> Callable[[], Outcome]:
    p = LAN
    rng = random.Random(seed)
    g, fs, mounts = _lan_cluster(seed)
    io = p["io"]
    files = _jittered(rng, len(mounts), MiB(p["file_mib"]), MiB(4))
    total = sum(files)

    def timed() -> Outcome:
        lat: Dict[str, List[float]] = {"write": [], "close": []}
        t_begin = g.sim.now
        svc, engine = fs.service, g.engine
        written0, read0, moved0 = svc.blocks_written, svc.blocks_read, engine.bytes_moved

        # A checkpoint: every client starts writing as it leaves a barrier.
        def client(k, m):
            sim = g.sim
            h = yield m.open(f"/w{k:02d}", "w", create=True)
            for _ in range(files[k] // io):
                t0 = sim.now
                yield m.write(h, io)
                lat["write"].append(sim.now - t0)
            t0 = sim.now
            yield m.close(h)
            lat["close"].append(sim.now - t0)

        _run_clients(g, [client(k, m) for k, m in enumerate(mounts)])

        def check() -> List[str]:
            failures: List[str] = []
            _expect(failures, "blocks_written", svc.blocks_written - written0,
                    total // p["block"])
            _expect(failures, "blocks_read", svc.blocks_read - read0, 0)
            _expect(failures, "bytes_moved", engine.bytes_moved - moved0, float(total))
            return failures

        attempted = total // io + len(mounts)
        done = len(lat["write"]) + len(lat["close"])
        return Outcome(attempted, done, lat, {"sim_s": g.sim.now - t_begin}, check)

    return timed


def lan_read(seed: int) -> Callable[[], Outcome]:
    p = LAN
    rng = random.Random(seed)
    g, fs, mounts = _lan_cluster(seed, pagepool_bytes=p["read_pool"])
    io, bs = p["io"], p["block"]
    files = _jittered(rng, len(mounts), MiB(p["file_mib"]), MiB(4))
    n = len(mounts)

    def writer(k, m):
        h = yield m.open(f"/r{k:02d}", "w", create=True)
        yield m.write(h, files[k])
        yield m.close(h)

    _run_clients(g, [writer(k, m) for k, m in enumerate(mounts)])
    # Client k reads its peer's file: a sequential pass, then random preads
    # at block-aligned offsets. The peer file is 4x the client's page pool.
    peers = [(k + 1) % n for k in range(n)]
    offsets = [
        [rng.randrange(0, (files[peers[k]] - io) // bs + 1) * bs
         for _ in range(p["random_reads"])]
        for k in range(n)
    ]

    def timed() -> Outcome:
        lat: Dict[str, List[float]] = {"seq_read": [], "rand_read": []}
        t_begin = g.sim.now
        svc, engine = fs.service, g.engine
        written0, read0, moved0 = svc.blocks_written, svc.blocks_read, engine.bytes_moved

        def client(k, m):
            sim = g.sim
            size = files[peers[k]]
            h = yield m.open(f"/r{peers[k]:02d}", "r")
            for _ in range(size // io):
                t0 = sim.now
                yield m.read(h, io)
                lat["seq_read"].append(sim.now - t0)
            for off in offsets[k]:
                t0 = sim.now
                yield m.pread(h, off, io)
                lat["rand_read"].append(sim.now - t0)
            yield m.close(h)

        _run_clients(g, [client(k, m) for k, m in enumerate(mounts)])

        def check() -> List[str]:
            failures: List[str] = []
            blocks_read = svc.blocks_read - read0
            _expect(failures, "blocks_written", svc.blocks_written - written0, 0)
            if blocks_read < sum(files) // bs:
                failures.append(
                    f"blocks_read: {blocks_read} < one full pass ({sum(files) // bs})"
                )
            _expect(failures, "bytes_moved", engine.bytes_moved - moved0,
                    float(blocks_read * bs))
            return failures

        attempted = sum(files) // io + n * p["random_reads"]
        done = len(lat["seq_read"]) + len(lat["rand_read"])
        return Outcome(attempted, done, lat, {"sim_s": g.sim.now - t_begin}, check)

    return timed


# -- wan_gateway -----------------------------------------------------------------


def wan_gateway(seed: int) -> Callable[[], Outcome]:
    p = WAN
    rng = random.Random(seed)
    bs = p["block"]
    g = Gfs(seed=seed)
    net = g.network
    net.add_node("home-sw", kind="switch")
    net.add_node("edge-sw", kind="switch")
    net.add_link("home-sw", "edge-sw", p["rate"], delay=p["one_way_delay"])
    servers = [f"h{i}" for i in range(p["servers"])]
    clients = [f"e{k}" for k in range(p["clients"])]
    gateways = [f"gw{i}" for i in range(p["gateways"])]
    for name in servers + ["hc0"]:
        net.add_host(name, "home-sw", Gbps(1), site="home")
    for name in clients + gateways:
        net.add_host(name, "edge-sw", Gbps(1), site="edge")
    home = g.add_cluster("home", site="home")
    home.add_nodes(servers + ["hc0"])
    edge = g.add_cluster("edge", site="edge")
    edge.add_nodes(clients + gateways)
    fs = home.mmcrfs(
        "gfs0", [NsdSpec(server=s, blocks=8192) for s in servers],
        block_size=bs, store_data=False,
    )
    home.mmauth_update("AUTHONLY")
    edge.mmauth_update("AUTHONLY")
    home_pub = home.mmauth_genkey()
    edge_pub = edge.mmauth_genkey()
    home.mmauth_add("edge", edge_pub)
    edge.mmremotecluster_add("home", home_pub, contact_nodes=[servers[0]])
    home.mmauth_grant("edge", "gfs0", "rw")
    edge.mmremotefs_add("remote", "home", "gfs0")
    # The cache holds the whole read set plus every block the clients write.
    slots = p["read_blocks"] + p["clients"] * p["own_blocks"] + 16
    gw = CacheGateway(fs, gateways, GatewayBlockCache(slots * bs, bs), mode="writeback")
    seeder = g.run(until=home.mmmount("gfs0", "hc0"))
    mounting = [edge.mmmount("remote", c, gateway=gw, pagepool_bytes=p["client_pool"])
                for c in clients]
    g.run(until=g.sim.all_of(mounting))
    mounts = [m.value for m in mounting]

    def seed_files():
        h = yield seeder.open("/data", "w", create=True)
        yield seeder.write(h, p["read_blocks"] * bs)
        yield seeder.close(h)

    def own_file(k, m):
        h = yield m.open(f"/own{k}", "w", create=True)
        yield m.write(h, p["own_blocks"] * bs)
        yield m.close(h)

    def cold_pass(m):
        h = yield m.open("/data", "r")
        for b in range(p["read_blocks"]):
            yield m.pread(h, b * bs, bs)
        yield m.close(h)

    g.run(until=g.sim.process(seed_files(), name="seed"))
    _run_clients(g, [own_file(k, m) for k, m in enumerate(mounts)] + [cold_pass(mounts[0])])

    n_ops = p["ops_per_client"]
    plans = [
        [("write", rng.randrange(p["own_blocks"]) * bs) if i % p["write_every"] == 0
         else ("read", rng.randrange(p["read_blocks"]) * bs)
         for i in range(1, n_ops + 1)]
        for _ in mounts
    ]

    def timed() -> Outcome:
        lat: Dict[str, List[float]] = {"read": [], "write": [], "close": []}
        t_begin = g.sim.now

        def client(k, m):
            sim = g.sim
            hr = yield m.open("/data", "r")
            hw = yield m.open(f"/own{k}", "r+")
            for kind, off in plans[k]:
                t0 = sim.now
                if kind == "read":
                    yield m.pread(hr, off, bs)
                else:
                    yield m.pwrite(hw, off, bs)
                lat[kind].append(sim.now - t0)
            t0 = sim.now
            yield m.close(hw)  # fsync barrier: every acked write reaches home
            lat["close"].append(sim.now - t0)
            yield m.close(hr)

        _run_clients(g, [client(k, m) for k, m in enumerate(mounts)])

        def check() -> List[str]:
            failures: List[str] = []
            _expect(failures, "writes_flushed", gw.writes_flushed, gw.write_acks)
            _expect(failures, "dirty_queue_depth", gw.dirty_queue_depth, 0)
            return failures

        attempted = len(mounts) * (n_ops + 1)
        done = len(lat["read"]) + len(lat["write"]) + len(lat["close"])
        return Outcome(attempted, done, lat, {"sim_s": g.sim.now - t_begin}, check)

    return timed


#: name -> set-up; BENCHMARK.json says why each workload was chosen.
WORKLOADS: Dict[str, Callable[[int], Callable[[], Outcome]]] = {
    "fleet": fleet,
    "figs": figs,
    "lan_write": lan_write,
    "lan_read": lan_read,
    "wan_gateway": wan_gateway,
}
