"""E17 — fleet-scale rate solving: the route-class aggregation sweep.

The paper's architecture works *because* it builds a client×server mesh
of parallel TCP flows; simulating the fleets the ROADMAP aims at (BG/L
funneling thousands of compute clients through shared I/O nodes onto the
TeraGrid) therefore used to cost one solver column per flow. E17 sweeps
the logical-client count over a fixed WAN mesh — 8 SDSC NSD servers
behind the GbE aggregation switch, 16 shared remote I/O hosts at NCSA
and ANL — and reports, per scale point: wall-clock seconds per simulated
second, solver columns vs member flows (the aggregation ratio), solve
and recompute counts, and kernel events per transfer.

The last sweep point is also run with ``aggregate=False`` (the solver's
escape hatch) to measure the speedup *and* to re-verify exactness where
it matters — at scale: both engines must produce the identical shared-tag
rate series (an order-sensitive float sum over every member flow's rate
series), identical completion times, and identical byte counters.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.experiments.harness import Experiment, ExperimentResult, Gate
from repro.net.flow import FlowEngine
from repro.net.tcp import TcpModel
from repro.net.topology import Network
from repro.sim.kernel import Simulation
from repro.topology.teragrid import add_teragrid_backbone
from repro.util.tables import Table
from repro.util.units import Gbps, MiB

#: Concurrent transfers each logical client keeps in flight (the client
#: read-ahead depth the direct-mount path sustains per node).
_CONCURRENCY = 6


def build_fleet_network(servers: int, client_hosts: int) -> Network:
    """TeraGrid backbone; SDSC NSD servers behind the GbE aggregation
    switch; shared client I/O hosts split across NCSA and ANL."""
    net = Network()
    add_teragrid_backbone(net, sites=("sdsc", "ncsa", "anl"))
    net.add_node("sdsc-gbe", site="sdsc", kind="switch")
    net.add_link("sdsc-gbe", "sdsc-sw", Gbps(128), delay=1e-5, efficiency=0.96)
    for i in range(servers):
        net.add_host(f"nsd{i:02d}", "sdsc-gbe", Gbps(1), site="sdsc")
    for j in range(client_hosts):
        site = "ncsa" if j % 2 == 0 else "anl"
        net.add_host(f"ion{j:02d}", f"{site}-sw", Gbps(10), site=site)
    return net


def run_fleet_cell(
    clients: int,
    servers: int = 8,
    client_hosts: int = 16,
    rounds: int = 4,
    block_bytes: float = MiB(8),
    aggregate: bool = True,
) -> Dict[str, float]:
    """One sweep cell; returns measurements plus exactness observables."""
    sim = Simulation()
    net = build_fleet_network(servers, client_hosts)
    engine = FlowEngine(
        sim, net, default_tcp=TcpModel(window=MiB(16)), aggregate=aggregate
    )
    server_names = [f"nsd{i:02d}" for i in range(servers)]
    host_names = [f"ion{j:02d}" for j in range(client_hosts)]
    peak = {"flows": 0, "classes": 0}
    finish_times: List[float] = []

    def client(k: int):
        host = host_names[k % client_hosts]
        # Deterministic stagger + size jitter: finishes land at distinct
        # sim times, so every join/leave re-solves the (single, shared-
        # backbone) component — the churn regime aggregation targets.
        yield sim.timeout((k % 97) * 0.011)
        for r in range(rounds):
            evts = []
            for j in range(_CONCURRENCY):
                src = server_names[(k + r * _CONCURRENCY + j) % servers]
                nbytes = block_bytes * (1 + ((k * 7 + r * 3 + j) % 13) / 13)
                evts.append(
                    engine.transfer(src, host, nbytes, tags=("fleet",))
                )
            peak["flows"] = max(peak["flows"], engine.active_count)
            peak["classes"] = max(peak["classes"], engine.class_count())
            yield sim.all_of(evts)
            finish_times.append(sim.now)

    procs = [sim.process(client(k), name=f"cl{k:04d}") for k in range(clients)]
    wall0 = time.perf_counter()
    sim.run(until=sim.all_of(procs))
    wall = time.perf_counter() - wall0
    state = engine._state
    ops = clients * rounds * _CONCURRENCY
    series = engine.tag_rate_series("fleet")
    return {
        "clients": float(clients),
        "flows_peak": float(peak["flows"]),
        "solver_cols_peak": float(peak["classes"]),
        "wall_s": wall,
        "sim_s": sim.now,
        "wall_per_sim_s": wall / sim.now if sim.now else 0.0,
        "kernel_events": float(sim._seq),
        "events_per_op": sim._seq / ops,
        "recomputes": float(engine.recomputes),
        "solves": float(state.solves),
        "solved_rows": float(state.solved_rows),
        "rate_changes": float(engine.rate_changes),
        "class_joins": float(engine.class_joins),
        "bytes_moved": engine.bytes_moved,
        # exactness observables (compared bit-for-bit agg vs unagg)
        "_series": (tuple(series.times), tuple(series.values)),
        "_finishes": tuple(finish_times),
    }


def run_e17(
    client_counts: tuple = (64, 128, 256, 512, 1024, 2048),
    compare_at: Optional[int] = 1024,
    servers: int = 8,
    client_hosts: int = 16,
    rounds: int = 4,
) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="E17",
        title="fleet-scale rate solving (route-class aggregation sweep)",
        paper_claim=(
            "the NSD client x server mesh scales to fleet-sized parallel "
            "flow counts (ROADMAP north star: beyond the paper's 1000-node "
            "clusters toward 'millions of users')"
        ),
    )
    table = Table(
        ["clients", "flows", "solver cols", "agg ratio", "wall s/sim-s",
         "events/op", "solved rows"],
        title="fleet sweep (aggregation ON)",
    )
    cells = []
    for n in client_counts:
        cell = run_fleet_cell(
            n, servers=servers, client_hosts=client_hosts, rounds=rounds
        )
        cells.append(cell)
        ratio = (
            cell["flows_peak"] / cell["solver_cols_peak"]
            if cell["solver_cols_peak"] else 1.0
        )
        table.add_row([
            int(n),
            int(cell["flows_peak"]),
            int(cell["solver_cols_peak"]),
            f"{ratio:.1f}x",
            f"{cell['wall_per_sim_s']:.4f}",
            f"{cell['events_per_op']:.1f}",
            int(cell["solved_rows"]),
        ])
    result.table = table

    last = cells[-1]
    result.metrics["clients_max"] = last["clients"]
    result.metrics["flows_peak"] = last["flows_peak"]
    result.metrics["solver_cols_peak"] = last["solver_cols_peak"]
    result.metrics["aggregation_ratio"] = (
        last["flows_peak"] / last["solver_cols_peak"]
        if last["solver_cols_peak"] else 1.0
    )
    result.metrics["wall_per_sim_s"] = last["wall_per_sim_s"]
    result.metrics["events_per_op"] = last["events_per_op"]
    result.metrics["solved_rows"] = last["solved_rows"]

    notes = [
        f"{servers} NSD servers @ SDSC, {client_hosts} shared I/O hosts @ "
        f"NCSA+ANL, {_CONCURRENCY} transfers in flight per client"
    ]
    if compare_at is not None:
        agg = next(
            (c for c in cells if c["clients"] == compare_at), None
        ) or run_fleet_cell(
            compare_at, servers=servers, client_hosts=client_hosts,
            rounds=rounds,
        )
        unagg = run_fleet_cell(
            compare_at, servers=servers, client_hosts=client_hosts,
            rounds=rounds, aggregate=False,
        )
        exact = (
            agg["_series"] == unagg["_series"]
            and agg["_finishes"] == unagg["_finishes"]
            and agg["bytes_moved"] == unagg["bytes_moved"]
            and agg["rate_changes"] == unagg["rate_changes"]
        )
        result.metrics["compare_clients"] = float(compare_at)
        result.metrics["speedup_vs_unaggregated"] = (
            unagg["wall_s"] / agg["wall_s"] if agg["wall_s"] else 0.0
        )
        result.metrics["column_reduction"] = (
            unagg["solver_cols_peak"] / agg["solver_cols_peak"]
            if agg["solver_cols_peak"] else 1.0
        )
        result.metrics["bit_identical"] = 1.0 if exact else 0.0
        notes.append(
            f"at {compare_at} clients: {result.metrics['speedup_vs_unaggregated']:.1f}x "
            f"faster than aggregate=False, "
            f"{result.metrics['column_reduction']:.1f}x fewer solver columns, "
            + ("rate series bit-identical"
               if exact else "RATE SERIES DIVERGED (bug!)")
        )
    result.notes = "; ".join(notes)
    return result


E17 = Experiment(
    "E17", "fleet scale", run_e17,
    quick=dict(client_counts=(64, 128, 256), compare_at=256, rounds=3),
    gates=(
        Gate("bit_identical", lambda m: m["bit_identical"] == 1,
             "== 1: the aggregated engine matches aggregate=False bit for bit"),
        Gate("column_reduction", lambda m: m["column_reduction"] >= 5,
             ">= 5x fewer solver columns than aggregate=False"),
        Gate("solver_cols_peak", lambda m: m["solver_cols_peak"] <= 128,
             "<= 128: solver columns stay within the route-class bound"),
    ),
)
