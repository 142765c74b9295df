"""A1–A6: ablations of the design choices DESIGN.md calls out.

* A1 — filesystem block size vs WAN streaming throughput (the in-flight
  window is ``readahead x block_size``, so block size is a WAN lever).
* A2 — NSD server count vs aggregate throughput: the server GbE NICs are
  the paper's 64 Gb/s (→128 Gb/s) aggregate design point (§5/§8).
* A3 — TCP window vs single-stream rate at the paper's 80 ms RTT: why
  2005-default 64 KiB windows made single-stream tools hopeless and
  parallel NSD streams essential.
* A4 — one vs two GbE per NSD server (the §8 upgrade path).
* A5 — degraded/rebuilding RAID service and NSD server failover.
* A6 — packet loss vs throughput (the Mathis cap) at 80 ms.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.e8_latency import measure
from repro.experiments.harness import Experiment, ExperimentResult, Gate
from repro.topology.sdsc2005 import build_sdsc2005
from repro.util.tables import Table
from repro.util.units import GB, Gbps, KiB, MB, MiB
from repro.workloads.mpiio import mpiio_collective
from repro.workloads.viz import VizReader


def run_a1_blocksize(
    block_sizes: Sequence[int] = (KiB(256), KiB(512), MiB(1), MiB(2), MiB(4)),
    read_bytes: float = MB(256),
    readahead: int = 8,
) -> ExperimentResult:
    """A1: WAN streaming read rate vs filesystem block size."""
    result = ExperimentResult(
        exp_id="A1",
        title="ablation: block size vs WAN streaming throughput",
        paper_claim="(design choice: production fs used ~1 MiB blocks)",
    )
    table = Table(["block size KiB", "WAN read MB/s"], title=f"readahead={readahead}")
    for bs in block_sizes:
        scenario = build_sdsc2005(
            nsd_servers=16,
            ds4100_count=8,
            sdsc_clients=1,
            anl_clients=1,
            ncsa_clients=0,
            block_size=int(bs),
            store_data=False,
        )
        g = scenario.gfs
        stage = scenario.mount_clients("sdsc", 1, pagepool_bytes=MiB(512))[0]

        def seed(stage=stage):
            handle = yield stage.open("/stream", "w", create=True)
            yield stage.write(handle, int(read_bytes))
            yield stage.close(handle)

        g.run(until=g.sim.process(seed(), name="seed"))
        mount = scenario.mount_clients("anl", 1, readahead=readahead,
                                       pagepool_bytes=MiB(512))[0]
        t0 = g.sim.now
        g.run(until=VizReader(mount, "/stream", chunk=int(bs)).run())
        rate = read_bytes / (g.sim.now - t0)
        table.add_row([int(bs) // 1024, rate / 1e6])
        result.metrics[f"rate_bs{int(bs) // 1024}k"] = rate
    result.table = table
    result.notes = "in-flight window = readahead x block size; RTT ~56 ms"
    return result


A1 = Experiment(
    "A1", "block size", run_a1_blocksize,
    quick=dict(block_sizes=(KiB(256), MiB(1), MiB(4)), read_bytes=MB(96)),
    gates=(
        Gate("bigger_blocks_faster",
             lambda m: m["rate_bs256k"] < m["rate_bs1024k"] < m["rate_bs4096k"] * 1.01,
             "rate_bs256k < rate_bs1024k < 1.01 x rate_bs4096k (deeper windows)"),
        Gate("4m_over_256k", lambda m: m["rate_bs4096k"] > 2 * m["rate_bs256k"],
             "rate_bs4096k > 2 x rate_bs256k"),
    ),
)


def run_a2_server_scaling(
    server_counts: Sequence[int] = (8, 16, 32, 64),
    clients: int = 32,
    region_bytes: int = MiB(64),
) -> ExperimentResult:
    """A2: aggregate read rate vs NSD server count (server NICs bind)."""
    result = ExperimentResult(
        exp_id="A2",
        title="ablation: NSD server count vs aggregate read rate",
        paper_claim="§5/§8: server GbE aggregate is the design point (64 -> 128 Gb/s)",
    )
    table = Table(
        ["servers", "agg read MB/s", "per-server MB/s"],
        title=f"{clients} machine-room clients, MPI-IO read",
    )
    for servers in server_counts:
        scenario = build_sdsc2005(
            nsd_servers=servers,
            ds4100_count=max(4, servers // 2),
            sdsc_clients=clients,
            anl_clients=0,
            ncsa_clients=0,
            store_data=False,
        )
        g = scenario.gfs
        mounts = scenario.mount_clients("sdsc", clients)
        g.run(until=mpiio_collective(mounts, "/f", "write",
                                     region_bytes=region_bytes,
                                     transfer_bytes=MiB(1)))
        for m in mounts:
            m.pool.invalidate(scenario.fs.namespace.resolve("/f").ino)
        r = g.run(until=mpiio_collective(mounts, "/f", "read",
                                         region_bytes=region_bytes,
                                         transfer_bytes=MiB(1)))
        rate = r.extra["rate"]
        table.add_row([servers, rate / 1e6, rate / servers / 1e6])
        result.metrics[f"rate_{servers}srv"] = rate
    result.table = table
    result.notes = "rate grows with server NIC aggregate until clients bind"
    return result


A2 = Experiment(
    "A2", "server scaling", run_a2_server_scaling,
    quick=dict(server_counts=(8, 16), clients=12, region_bytes=MiB(16)),
    gates=(
        Gate("8_to_16_servers", lambda m: m["rate_16srv"] > 1.5 * m["rate_8srv"],
             "rate_16srv > 1.5 x rate_8srv: server GbE binds (paper: 64 Gb/s)"),
        Gate("16_to_32_servers", lambda m: m["rate_32srv"] > m["rate_16srv"],
             "rate_32srv > rate_16srv"),
        Gate("clients_bind", lambda m: m["rate_32srv"] < 4 * m["rate_8srv"],
             "rate_32srv < 4 x rate_8srv: the fixed client population binds"),
    ),
)


def run_a3_window(
    windows: Sequence[int] = (KiB(64), KiB(256), MiB(1), MiB(4), MiB(16)),
    rtt: float = 0.080,
    link_rate: float = Gbps(10),
) -> ExperimentResult:
    """A3: single-stream throughput vs TCP window at the SC'02 RTT."""
    result = ExperimentResult(
        exp_id="A3",
        title="ablation: TCP window vs single-stream rate at 80 ms RTT",
        paper_claim="(mechanism: why untuned 2005 stacks needed parallel streams)",
    )
    table = Table(
        ["window KiB", "1 stream MB/s", "32 streams Gb/s"],
        title=f"RTT {rtt * 1e3:.0f} ms, 10 GbE",
    )
    for window in windows:
        one = measure(rtt, 1, float(window), link_rate, GB(1))
        many = measure(rtt, 32, float(window), link_rate, GB(4))
        table.add_row([int(window) // 1024, one / 1e6, many * 8 / 1e9])
        result.metrics[f"single_{int(window) // 1024}k"] = one
        result.metrics[f"parallel32_{int(window) // 1024}k"] = many
    result.table = table
    result.notes = (
        "single stream ~ window/RTT; with 32 streams line rate needs ~4 MiB "
        "windows — 2005-default 64 KiB windows would need ~450 streams, which "
        "is what the NSD client x server mesh provides"
    )
    return result


A3 = Experiment(
    "A3", "TCP window", run_a3_window,
    quick=dict(),
    gates=(
        Gate("single_64k",
             lambda m: abs(m["single_64k"] - KiB(64) / 0.080)
             <= 0.1 * abs(KiB(64) / 0.080),
             "within 10% of 64 KiB / 80 ms: the 2005-default window binds"),
        Gate("single_1024k",
             lambda m: abs(m["single_1024k"] - 16 * m["single_64k"])
             <= 0.1 * abs(16 * m["single_64k"]),
             "within 10% of 16 x single_64k: rate linear in window"),
        Gate("parallel32_256k", lambda m: m["parallel32_256k"] > 25 * m["single_256k"],
             "> 25 x single_256k: 32 streams multiply the per-window rate"),
        Gate("parallel32_4096k", lambda m: m["parallel32_4096k"] > Gbps(9),
             "> 9 Gb/s: line rate once windows reach a few MiB"),
    ),
)


def run_a4_upgrade_path(
    clients: int = 48,
    nsd_servers: int = 16,
    region_bytes: int = MiB(48),
) -> ExperimentResult:
    """A4: the §8 upgrade — doubling each NSD server's GbE.

    "Add another GbE connection to each IA64 server, increasing the
    aggregate bandwidth to 128 Gb/s." Oversubscribe the servers with
    clients and compare read aggregates at 1 vs 2 GbE per server.
    """
    result = ExperimentResult(
        exp_id="A4",
        title="§8 upgrade path: 1 vs 2 GbE per NSD server",
        paper_claim="doubling server GbE doubles the aggregate to 128 Gb/s",
    )
    table = Table(
        ["GbE/server", "server agg Gb/s", "read MB/s"],
        title=f"{clients} clients over {nsd_servers} servers",
    )
    from repro.util.units import Gbps

    for nics in (1, 2):
        scenario = build_sdsc2005(
            nsd_servers=nsd_servers,
            ds4100_count=nsd_servers,
            sdsc_clients=clients,
            anl_clients=0,
            ncsa_clients=0,
            server_nic=Gbps(nics),
            store_data=False,
        )
        g = scenario.gfs
        mounts = scenario.mount_clients("sdsc", clients)
        g.run(until=mpiio_collective(mounts, "/f", "write",
                                     region_bytes=region_bytes,
                                     transfer_bytes=MiB(1)))
        for m in mounts:
            m.pool.invalidate(scenario.fs.namespace.resolve("/f").ino)
        r = g.run(until=mpiio_collective(mounts, "/f", "read",
                                         region_bytes=region_bytes,
                                         transfer_bytes=MiB(1)))
        rate = r.extra["rate"]
        table.add_row([nics, nics * nsd_servers, rate / 1e6])
        result.metrics[f"read_rate_{nics}gbe"] = rate
    result.table = table
    result.metrics["upgrade_gain"] = (
        result.metrics["read_rate_2gbe"] / result.metrics["read_rate_1gbe"]
    )
    return result


A4 = Experiment(
    "A4", "GbE upgrade", run_a4_upgrade_path,
    quick=dict(clients=12, nsd_servers=4, region_bytes=MiB(16)),
    gates=(
        Gate("upgrade_gain", lambda m: m["upgrade_gain"] > 1.5,
             "> 1.5 (paper §8: doubling server GbE doubles the aggregate)"),
        Gate("upgrade_gain_at_most_2x", lambda m: m["upgrade_gain"] <= 2.05,
             "<= 2.05: two NICs cannot more than double the rate"),
    ),
)


def run_a5_degraded(read_bytes: float = MB(400)) -> ExperimentResult:
    """A5: failure behaviour — degraded RAID service and NSD failover.

    Fig 9's hot spares and GPFS's primary/backup NSD servers exist for the
    hours-long windows this ablation measures: streaming read rate from
    one DS4100 LUN while healthy / degraded / rebuilding, and the
    full-stack aggregate before and after an NSD server node dies. The
    node death is scripted through a :class:`~repro.faults.FaultSchedule`
    and *detected* by disk-lease expiry — nothing marks the node down by
    hand.
    """
    from repro.faults import FaultSchedule, attach_faults
    from repro.sim import Simulation
    from repro.storage import make_ds4100

    result = ExperimentResult(
        exp_id="A5",
        title="ablation: degraded RAID service and NSD server failover",
        paper_claim="(Fig 9 hot spares / NSD server lists exist for these windows)",
    )
    table = Table(["state", "LUN read MB/s"], title="one DS4100 LUN, streaming read")
    rates = {}
    for state in ("healthy", "degraded", "rebuilding"):
        sim = Simulation()
        array = make_ds4100(sim, "b0")
        lun = array.luns[0]
        if state != "healthy":
            lun.raid.fail_disk()
        if state == "rebuilding":
            array.hot_spares -= 0  # spare assignment handled by rebuild()
            lun.raid.rebuild()
        t0 = sim.now
        done = lun.io("read", read_bytes)
        sim.run(until=done)
        rate = read_bytes / (sim.now - t0)
        rates[state] = rate
        table.add_row([state, rate / 1e6])
        result.metrics[f"lun_rate_{state}"] = rate
    # full-stack failover: aggregate read before/after killing a server
    scenario = build_sdsc2005(
        nsd_servers=8, ds4100_count=4, sdsc_clients=8,
        anl_clients=0, ncsa_clients=0, store_data=False,
    )
    g = scenario.gfs
    mounts = scenario.mount_clients("sdsc")
    g.run(until=mpiio_collective(mounts, "/f", "write",
                                 region_bytes=MiB(32), transfer_bytes=MiB(1)))
    ino = scenario.fs.namespace.resolve("/f").ino
    for m in mounts:
        m.pool.invalidate(ino)
    before = g.run(until=mpiio_collective(mounts, "/f", "read",
                                          region_bytes=MiB(32),
                                          transfer_bytes=MiB(1))).extra["rate"]
    t_crash = g.sim.now + 0.1
    harness = attach_faults(
        g.sim,
        scenario.fs.service,
        manager_node=scenario.fs.manager_node,
        schedule=FaultSchedule().crash_node(t_crash, "nsd00"),
        engine=g.engine,
        network=g.network,
        lease_duration=1.0,
    )
    g.run(until=harness.declared_dead("nsd00"))
    detection_latency = g.sim.now - t_crash
    for m in mounts:
        m.pool.invalidate(ino)
    after = g.run(until=mpiio_collective(mounts, "/f", "read",
                                         region_bytes=MiB(32),
                                         transfer_bytes=MiB(1))).extra["rate"]
    harness.stop()
    result.metrics["fs_rate_before_failover"] = before
    result.metrics["fs_rate_after_failover"] = after
    result.metrics["failovers"] = float(scenario.fs.service.failovers)
    result.metrics["detection_latency"] = detection_latency
    table.add_row(["fs: 8 servers up", before / 1e6])
    table.add_row(["fs: 1 server down", after / 1e6])
    result.table = table
    result.notes = (
        "the dead server's NSDs fail over to its neighbour, which then "
        "carries two servers' traffic on one NIC"
    )
    return result


A5 = Experiment(
    "A5", "degraded/failover", run_a5_degraded,
    quick=dict(read_bytes=MB(150)),
    gates=(
        Gate("raid_service_order",
             lambda m: m["lun_rate_degraded"] < m["lun_rate_rebuilding"]
             < m["lun_rate_healthy"],
             "degraded < rebuilding < healthy LUN rate (reconstruction costs)"),
        Gate("failover_keeps_serving",
             lambda m: 0.5 * m["fs_rate_before_failover"]
             < m["fs_rate_after_failover"] < m["fs_rate_before_failover"],
             "0.5 x before < after < before: one dead server costs rate only"),
        Gate("failovers", lambda m: m["failovers"] > 0,
             "> 0 RPCs failed over to the backup server"),
    ),
)


def run_a6_loss(
    losses=(0.0, 1e-6, 1e-5, 1e-4, 1e-3),
    rtt: float = 0.080,
    link_rate: float = Gbps(10),
) -> ExperimentResult:
    """A6: packet loss vs throughput (Mathis), and how parallelism hides it.

    Clean research backbones made loss negligible for the paper's
    demonstrations; this ablation shows how little loss it would have taken
    to change that — and that the NSD stream mesh buys loss tolerance too.
    """
    result = ExperimentResult(
        exp_id="A6",
        title="ablation: loss rate vs throughput at 80 ms (Mathis cap)",
        paper_claim="(clean TeraGrid/SCinet paths: loss effectively zero)",
    )
    table = Table(
        ["loss", "1 stream MB/s", "32 streams Gb/s"],
        title="8 MiB windows, jumbo frames, 10 GbE, 80 ms RTT",
    )
    from repro.net.flow import FlowEngine
    from repro.net.tcp import TcpModel
    from repro.net.topology import Network
    from repro.sim import Simulation

    def measure_loss(loss, streams, nbytes):
        sim = Simulation()
        net = Network()
        net.add_node("a")
        net.add_node("b")
        net.add_link("a", "b", link_rate, delay=rtt / 2, efficiency=0.94)
        tcp = TcpModel(window=float(MiB(8)), mss=8960, loss=loss)
        engine = FlowEngine(sim, net, default_tcp=tcp)
        events = [engine.transfer("a", "b", nbytes / streams) for _ in range(streams)]
        sim.run(until=sim.all_of(events))
        return nbytes / sim.now

    for loss in losses:
        one = measure_loss(loss, 1, GB(1))
        many = measure_loss(loss, 32, GB(4))
        label = "0" if loss == 0 else f"{loss:.0e}"
        table.add_row([label, one / 1e6, many * 8 / 1e9])
        key = label.replace("-", "m")
        result.metrics[f"single_{key}"] = one
        result.metrics[f"parallel32_{key}"] = many
    result.table = table
    result.notes = (
        "Mathis: rate <= (MSS/RTT)(C/sqrt(p)); parallel streams multiply the "
        "aggregate until the link binds"
    )
    return result


A6 = Experiment(
    "A6", "loss sweep", run_a6_loss,
    quick=dict(losses=(0.0, 1e-5, 1e-3)),
    gates=(
        Gate("window_limited_at_1e-6", lambda m: m["single_0"] == m["single_1em06"],
             "single_0 == single_1em06: window-limited, not loss-limited"),
        Gate("mathis_scaling",
             lambda m: 8 < m["single_1em05"] / m["single_1em03"] < 12.5,
             "8 < ratio < 12.5 (Mathis: 100x the loss, 1/10 the rate)"),
        Gate("parallel32_1em05", lambda m: m["parallel32_1em05"] > Gbps(9),
             "> 9 Gb/s: 32 streams hold line rate to 1e-5 loss"),
        Gate("parallel32_1em03", lambda m: m["parallel32_1em03"] < Gbps(2),
             "< 2 Gb/s at 1e-3 loss"),
    ),
)
