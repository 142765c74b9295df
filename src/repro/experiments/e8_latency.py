"""E8 — §2's central question: does WAN latency kill throughput?

"there were real concerns that the latencies involved in a widespread
network such as the TeraGrid would render them inoperable ... It not only
demonstrated that the latencies (measured at 80ms round trip
SDSC-Baltimore) did not prevent the Global File System from performing,
but that a GFS could provide some of the most efficient data transfers
possible over TCP/IP."

The sweep makes the mechanism explicit: a single TCP stream collapses with
RTT (window-limited), while the NSD architecture's many parallel streams
keep the aggregate at line rate — the paper's whole reason for existing.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.harness import Experiment, ExperimentResult, Gate
from repro.net.flow import FlowEngine
from repro.net.tcp import TcpModel
from repro.net.topology import Network
from repro.obs.registry import OBS
from repro.sim.kernel import Simulation
from repro.util.tables import Table
from repro.util.units import GB, Gbps, MiB

DEFAULT_RTTS = (0.002, 0.020, 0.080, 0.160)
DEFAULT_STREAMS = (1, 4, 16, 64)


def measure(
    rtt: float, streams: int, window: float, link_rate: float, nbytes: float
) -> float:
    """Aggregate bytes/s for ``streams`` parallel transfers over one link."""
    sim = Simulation()
    net = Network()
    net.add_node("a")
    net.add_node("b")
    net.add_link("a", "b", link_rate, delay=rtt / 2, efficiency=0.94)
    engine = FlowEngine(sim, net, default_tcp=TcpModel(window=window, mss=8960))
    per_stream = nbytes / streams
    # The cell tag makes each flow's trace record self-describing: a
    # `python -m repro trace E8` run shows window/RTT-bound singles and
    # link-bound 64-stream cells side by side (the paper's §2 mechanism).
    cell = f"rtt{int(rtt * 1e3)}ms-s{streams}"
    events = [
        engine.transfer("a", "b", per_stream, tags=(cell,))
        for _ in range(streams)
    ]
    sim.run(until=sim.all_of(events))
    if OBS.enabled:
        # One scrape per cell: each sweep cell is its own simulation, so
        # the cell's aggregate rate lands as a gauge sample at cell end.
        OBS.set_gauge(sim, "e8.cell.rate", nbytes / sim.now, cell=cell)
        OBS.scrape(sim)
    return nbytes / sim.now


def run_e8(
    rtts: Sequence[float] = DEFAULT_RTTS,
    stream_counts: Sequence[int] = DEFAULT_STREAMS,
    window: float = float(MiB(2)),
    link_rate: float = Gbps(10),
    nbytes: float = GB(4),
) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="E8",
        title="latency ablation: RTT x parallel streams on a 10 GbE WAN",
        paper_claim="80 ms RTT does not prevent line-rate transfers given NSD-style parallelism",
    )
    table = Table(
        ["RTT ms"] + [f"{s} streams (Gb/s)" for s in stream_counts],
        title=f"aggregate throughput, {int(window / MiB(1))} MiB windows",
    )
    for rtt in rtts:
        row = [rtt * 1e3]
        for streams in stream_counts:
            rate = measure(rtt, streams, window, link_rate, nbytes)
            row.append(rate * 8 / 1e9)
            result.metrics[f"rate_rtt{int(rtt * 1e3)}_s{streams}"] = rate
        table.add_row(row)
    result.table = table
    single_80 = result.metrics["rate_rtt80_s1"]
    many_80 = result.metrics[f"rate_rtt80_s{max(stream_counts)}"]
    result.metrics["parallelism_gain_at_80ms"] = many_80 / single_80
    result.notes = (
        "single-stream rate ~ window/RTT; parallel streams recover the line rate"
    )
    return result


E8 = Experiment(
    "E8", "latency ablation", run_e8,
    quick=dict(nbytes=GB(1)),
    gates=(
        Gate("single_stream_at_80ms", lambda m: m["rate_rtt80_s1"] < Gbps(0.3),
             "< 0.3 Gb/s: one 2 MiB-window stream is window/RTT bound at 80 ms"),
        Gate("parallel_streams_at_80ms", lambda m: m["rate_rtt80_s64"] > Gbps(9),
             "> 9 Gb/s (paper: line rate at 80 ms given NSD parallelism)",
             quick=False),
        Gate("parallelism_gain_at_80ms", lambda m: m["parallelism_gain_at_80ms"] > 20,
             "> 20x from 1 to 64 streams at 80 ms"),
        Gate("monotone_in_streams",
             lambda m: all(
                 m[f"rate_rtt{rtt}_s{a}"] <= m[f"rate_rtt{rtt}_s{b}"]
                 for rtt in (2, 20, 80, 160) for a, b in ((1, 4), (4, 16), (16, 64))),
             "rate non-decreasing in streams at every RTT"),
    ),
)
