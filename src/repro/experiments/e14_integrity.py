"""E14 — integrity soak: rot, a dead drive, and a WAN partition at once.

E13 shows the system riding through *fail-stop* faults; this experiment
attacks the data itself. The filesystem runs with GPFS-style replication
(``mmcrfs -r 2``: two copies of every block in distinct failure groups)
and end-to-end checksums while ANL clients stream a file whose contents
are a known deterministic pattern — so every returned byte can be
checked against ground truth. Mid-stream the schedule injects:

* **silent bit-rot** on several NSDs (``corrupt_block`` flips a stored
  byte without touching the checksum) — only end-to-end verification
  can catch it; reads must fail over to the clean replica and
  read-repair the rotten one, and the background scrubber must find and
  rebuild whatever the readers never touch;
* a **drive death** in a DS4100 (RAID rebuild steals controller
  bandwidth while degraded);
* a **WAN partition** that cuts off the filesystem-manager side
  (``nsd00``–``nsd02``) as the *minority*: the token manager parks
  grants, the lease detector goes quorumless and must *not* declare the
  majority servers dead just because their renewals parked, and client
  RPCs to minority NSDs stall until heal — inside the retry budget, so
  nothing surfaces to the application.

Reported: **wrong bytes returned (must be 0)**, corrupt reads detected
and served correctly (must be 100%), read-repairs + scrub repairs with
**zero damaged replicas left at rest**, scrub bandwidth overhead, and
the minority-side unavailability window around the partition.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.replication import ReplicationPolicy
from repro.core.scrub import Scrubber
from repro.experiments.e13_chaos import window_mean
from repro.experiments.harness import Experiment, ExperimentResult, Gate
from repro.faults import FaultSchedule, RetryPolicy, attach_faults
from repro.obs import OBS, AvailabilityObjective, SloTracker, universe_rows
from repro.util.tables import Table
from repro.util.units import MB, MiB

#: Seconds the drain phase will wait for the scrubber to finish healing
#: every replica after the readers complete.
DRAIN_LIMIT = 60.0


def pattern_chunk(chunk_index: int, length: int) -> bytes:
    """Deterministic file contents: chunk ``k`` is a 9-byte motif repeated.

    The motif encodes the chunk index, so any misplaced, stale, or
    bit-flipped data a read returns differs from the recomputed pattern.
    """
    motif = chunk_index.to_bytes(8, "big") + b"\xa5"
    reps = -(-length // len(motif))
    return (motif * reps)[:length]


def damage_at_rest(fs) -> int:
    """Count replicas whose at-rest contents fail checksum verification."""
    bad = 0
    for inode in fs.inodes:
        for block_index in sorted(inode.blocks):
            for nsd_id, phys in fs.replica_placements(inode, block_index):
                nsd = fs.nsds[nsd_id]
                if nsd.checksum(phys) is None and phys not in nsd._poisoned:
                    continue  # never written
                if not nsd.verify_full(phys):
                    bad += 1
    return bad


def default_schedule(
    t0: float,
    corruptions: List[tuple],
    minority: List[str],
    array: str = "ds4100-01",
    partition_after: float = 1.6,
    partition_duration: float = 1.8,
) -> FaultSchedule:
    """The E14 script: rot on pinned replicas, a drive death, one partition."""
    schedule = FaultSchedule()
    for k, (nsd_name, phys) in enumerate(corruptions):
        schedule.corrupt_block(t0 + 0.3 + 0.1 * k, nsd_name, phys=phys)
    schedule.fail_disk(t0 + 1.2, array, lun=0)
    schedule.partition(t0 + partition_after, minority, partition_duration)
    return schedule


def run_e14(
    file_bytes: float = MiB(192),
    anl_clients: int = 4,
    copies: int = 2,
    lease_duration: float = 1.5,
    partition_after: float = 1.6,
    partition_duration: float = 1.8,
    scrub_interval: float = 1.0,
    scrub_rate: float = 512 * MiB(1),
    corrupt_count: int = 4,
    schedule: Optional[FaultSchedule] = None,
    nsd_servers: int = 8,
    ds4100_count: int = 4,
    seed: int = 0,
) -> ExperimentResult:
    """Integrity soak on the SDSC 2005 build; deterministic for a seed."""
    from repro.topology.sdsc2005 import build_sdsc2005

    result = ExperimentResult(
        exp_id="E14",
        title="end-to-end integrity: replication, rot, scrub, partition quorum",
        paper_claim="(§6.2 NSD server lists / mmcrfs -r: a production WAN "
        "mount must survive data faults, not just dead nodes)",
    )
    scenario = build_sdsc2005(
        nsd_servers=nsd_servers,
        ds4100_count=ds4100_count,
        sdsc_clients=1,
        anl_clients=anl_clients,
        ncsa_clients=0,
        block_size=MiB(1),
        store_data=True,
        seed=seed,
        replication=ReplicationPolicy(
            copies=copies, quorum="all", verify_reads=True
        ),
    )
    g = scenario.gfs
    fs = scenario.fs
    service = fs.service
    chunk = int(MiB(1))
    size = int(file_bytes)

    # Seed the file with pattern data from a machine-room client.
    stage = scenario.mount_clients("sdsc", 1, pagepool_bytes=MiB(128))[0]

    def seed_file():
        handle = yield stage.open("/integrity", "w", create=True)
        pos = 0
        while pos < size:
            n = min(chunk, size - pos)
            yield stage.write(handle, pattern_chunk(pos // chunk, n))
            pos += n
        yield stage.close(handle)

    g.run(until=g.sim.process(seed_file(), name="seed"))

    mounts = scenario.mount_clients(
        "anl", anl_clients, readahead=8, pagepool_bytes=MiB(96)
    )
    t0 = g.sim.now
    # Pin the rot: primaries of late-in-file blocks (the readers WILL hit
    # these — exercising verify-on-read, failover, and read-repair) plus
    # one secondary replica no reader ever touches (only the scrubber can
    # find that one). The partition minority is the manager's side of the
    # machine room, so the quorum gate itself is exercised, not just
    # parked client RPCs.
    inode = fs.namespace.resolve("/integrity")
    nblocks = (size + chunk - 1) // chunk
    late = [min(nblocks - 1, int(nblocks * f)) for f in (0.70, 0.80, 0.90, 0.95)]
    corruptions: List[tuple] = []
    for block_index in late[: max(0, corrupt_count - 1)]:
        nsd_id, phys = fs.replica_placements(inode, block_index)[0]
        corruptions.append((fs.nsds[nsd_id].name, phys))
    if corrupt_count > 0 and copies > 1:
        nsd_id, phys = fs.replica_placements(inode, nblocks // 2)[1]
        corruptions.append((fs.nsds[nsd_id].name, phys))
    minority = ["nsd00", "nsd01", "nsd02"]
    if schedule is None:
        schedule = default_schedule(
            t0,
            corruptions,
            minority,
            partition_after=partition_after,
            partition_duration=partition_duration,
        )
    harness = attach_faults(
        g.sim,
        service,
        manager_node=fs.manager_node,
        schedule=schedule,
        engine=g.engine,
        network=g.network,
        lease_duration=lease_duration,
        retry=RetryPolicy(),
        retry_rng_streams=g.rng,
        token_managers=[fs.token_manager],
        arrays={a.name: a for a in scenario.arrays},
    )
    scrubber = Scrubber(
        g.sim, fs, interval=scrub_interval, rate=scrub_rate
    ).start()

    reads_ok = [0]
    reads_failed = [0]
    wrong_bytes = [0]
    ok_times: List[float] = []

    def reader(mount):
        handle = yield mount.open("/integrity", "r")
        pos = 0
        while pos < size:
            n = min(chunk, size - pos)
            try:
                got = yield mount.pread(handle, pos, n)
            except ConnectionError:
                reads_failed[0] += 1
            else:
                reads_ok[0] += 1
                ok_times.append(g.sim.now)
                want = pattern_chunk(pos // chunk, n)
                if got != want:
                    wrong_bytes[0] += sum(
                        a != b for a, b in zip(got, want)
                    ) + abs(len(got) - len(want))
            pos += n
        yield mount.close(handle)

    readers = [
        g.sim.process(reader(m), name=f"reader:{m.node}") for m in mounts
    ]
    g.run(until=g.sim.all_of(readers))
    t_readers_done = g.sim.now

    # Drain: the scrubber keeps sweeping until no replica at rest fails
    # verification (bounded, so a repair bug cannot hang the experiment).
    while damage_at_rest(fs) > 0 and g.sim.now < t_readers_done + DRAIN_LIMIT:
        g.run(until=g.sim.timeout(scrub_interval))
    t_end = g.sim.now
    scrubber.stop()
    harness.stop()

    # -- phase windows --------------------------------------------------------
    t_cut = t0 + partition_after
    t_heal = t_cut + partition_duration
    series = g.engine.tag_rate_series("anl")
    result.series["anl_rate"] = series
    nominal = window_mean(series, t0, t_cut)
    partitioned = window_mean(series, t_cut, t_heal)
    recovered = window_mean(series, t_heal, t_readers_done)
    # Unavailability seen by the readers around the cut: the gap from the
    # cut to the first read completion after heal (0 when the stream
    # finished before the partition ever bit).
    after_heal = [t for t in ok_times if t >= t_heal]
    unavail = (after_heal[0] - t_cut) if after_heal else 0.0

    table = Table(
        ["phase", "window s", "ANL aggregate MB/s"],
        title=f"{anl_clients} ANL clients each verifying "
        f"{int(file_bytes / MB(1))} MB against the known pattern "
        f"(R={copies}, quorum=all, end-to-end checksums)",
    )
    table.add_row(["nominal", t_cut - t0, nominal / 1e6])
    table.add_row(["partitioned (cut->heal)", t_heal - t_cut, partitioned / 1e6])
    table.add_row(
        ["recovered", t_readers_done - t_heal, recovered / 1e6]
    )
    result.table = table

    client_bytes = float(file_bytes) * anl_clients
    scrub = scrubber.metrics()
    result.metrics.update(harness.metrics())
    result.metrics.update(fs.integrity.metrics())
    result.metrics.update(scrub)
    corrupt_detected = fs.integrity.corrupt_reads_detected
    result.metrics.update(
        {
            "reads_ok": float(reads_ok[0]),
            "reads_failed": float(reads_failed[0]),
            "wrong_bytes": float(wrong_bytes[0]),
            "bytes_read": client_bytes,
            "corrupt_blocks_injected": float(
                sum(1 for a in schedule if a.kind == "corrupt_block")
            ),
            "corrupt_reads_served_correctly_pct": (
                100.0 if wrong_bytes[0] == 0 else
                100.0 * (1.0 - wrong_bytes[0] / client_bytes)
            ),
            "damage_at_rest_end": float(damage_at_rest(fs)),
            "scrub_overhead_ratio": (
                scrub["scrub_bytes_read"] / client_bytes if client_bytes else 0.0
            ),
            "unavailability_s": unavail,
            "wall_seconds": t_end - t0,
            "rate_nominal": nominal,
            "rate_partitioned": partitioned,
            "rate_recovered": recovered,
        }
    )
    result.notes = (
        f"rot on {len(corruptions)} replicas + a drive death + a "
        f"{partition_duration:.1f}s partition of the manager-side minority "
        f"{minority}: zero wrong bytes, zero failed reads, every damaged "
        "replica repaired (read-repair or scrub) by end of run"
    )

    if OBS.enabled:
        OBS.scrape(g.sim)
        phases = [
            {"name": "nominal", "t0": t0, "t1": t_cut},
            {"name": "partitioned", "t0": t_cut, "t1": t_heal},
            {"name": "recovered", "t0": t_heal, "t1": t_readers_done},
        ]
        tracker = SloTracker().add(AvailabilityObjective(
            name="zero_failed_reads",
            ok_metric="client.read.ok",
            err_metric="client.read.errors",
            target=1.0,
            window=2.0,
        ))
        result.obs = {
            "sim": g.sim.id,
            "phases": phases,
            "slo": tracker.evaluate(universe_rows(OBS.rows, g.sim.id)),
        }
    return result


E14 = Experiment(
    "E14", "integrity soak", run_e14,
    quick=dict(file_bytes=MiB(64), anl_clients=2, lease_duration=1.0,
               partition_after=0.8, partition_duration=1.2, corrupt_count=3,
               ds4100_count=2),
    gates=(
        Gate("wrong_bytes", lambda m: m["wrong_bytes"] == 0,
             "== 0: the application never reads a wrong byte"),
        Gate("reads_failed", lambda m: m["reads_failed"] == 0,
             "== 0: rot, a dead drive and a partition surface no failed read"),
        Gate("damage_at_rest_end", lambda m: m["damage_at_rest_end"] == 0,
             "== 0: every damaged replica is repaired"),
    ),
)
