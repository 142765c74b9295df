"""Randomized chaos fuzzing: seeded fault schedules under invariant oracles.

Hand-written chaos experiments (E13, E14, E16) each pin one failure
story. The fuzzer generates *arbitrary* stories — random mixes of node
crashes, manager kills, partitions, WAN loss bursts, link flaps, and
silent bit-rot — and checks that the properties the hand-written
experiments assert one at a time hold under **every** mix:

1. **Token safety** — at no instant do two conflicting byte-range
   tokens coexist in the manager's table (swept periodically and at
   quiesce; takeovers and quorum gates must preserve this).
2. **Acked-write durability** — every write whose ``fsync`` succeeded
   reads back byte-for-byte after the storm. Writes that *failed* are
   allowed to land or not (their ranges are excluded), but success is a
   promise.
3. **No wrong bytes** — a read either returns exactly the acked
   contents or raises. :class:`~repro.core.nsd.ChecksumError` /
   :class:`~repro.core.replication.AllReplicasFailed` are acceptable
   only when the schedule actually injected corruption.
4. **Detection validity** — the lease detector never declares a node
   that the quorum side could actually reach: every declaration must be
   backed by a real crash, an active partition cut, or a downed access
   link (renewals physically could not flow) within one lease-expiry
   window.

Everything is seeded: ``random_schedule`` consumes a ``random.Random``,
the workload derives per-client streams from the case seed, and the
cluster itself is built from the seed — so a failing seed replays
bit-identically (the CI fuzz-smoke job relies on this).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cluster import Gfs, NsdSpec
from repro.core.nsd import ChecksumError
from repro.core.replication import AllReplicasFailed, ReplicationPolicy
from repro.faults.harness import attach_faults
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.sim.kernel import Interrupt
from repro.util.units import Gbps, KiB

__all__ = [
    "FuzzReport",
    "InvariantOracle",
    "Violation",
    "random_schedule",
    "run_fuzz",
    "run_fuzz_case",
]


# ======================================================================
# Schedule generation
# ======================================================================

def random_schedule(
    rng: random.Random,
    *,
    server_nodes: Sequence[str],
    manager_node: Optional[str] = None,
    t0: float = 0.0,
    duration: float = 8.0,
    links: Sequence[str] = (),
    nsds: Sequence[str] = (),
    max_crashes: int = 2,
    manager_crash_prob: float = 0.5,
    intensity: float = 1.0,
) -> FaultSchedule:
    """One random-but-legal fault schedule inside ``[t0, t0 + duration]``.

    Legality constraints (the injector enforces most of them at runtime,
    so the generator must respect them by construction):

    * crash windows never overlap each other, and every crashed node is
      restarted strictly before the schedule ends — the post-storm
      verification phase runs against a fully healed cluster;
    * the manager node is killed only via ``crash_manager`` (at most
      once), never via plain ``crash_node``, and never partitioned into
      a minority — ordinary declarations always come from a side that
      genuinely has quorum;
    * at most one partition is active at a time (``PartitionState``
      models a single cut) and minorities are strict minorities of the
      server set;
    * loss bursts never overlap (the injector saves/restores one TCP
      model) and each link is flapped or browned out at most once;
    * corruption targets are restricted to NSDs that the caller knows
      hold written blocks (the warmup guarantees this in
      :func:`run_fuzz_case`).
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    servers = list(dict.fromkeys(server_nodes))
    if not servers:
        raise ValueError("random_schedule needs at least one server node")
    schedule = FaultSchedule()
    lo = t0 + 0.10 * duration
    hi = t0 + 0.85 * duration

    def windows(count: int, min_len: float, max_len: float, gap: float = 0.2):
        """Up to ``count`` non-overlapping (start, end) windows in [lo, hi]."""
        out: List[Tuple[float, float]] = []
        cursor = lo + rng.uniform(0.0, 0.3)
        for _ in range(count):
            length = rng.uniform(min_len, min(max_len, hi - lo))
            if cursor + length >= hi:
                break
            start = rng.uniform(cursor, min(cursor + 0.8, hi - length))
            out.append((start, start + length))
            cursor = start + length + gap
        return out

    # -- node crashes (never the manager via this kind) ----------------------
    crash_windows: List[Tuple[float, float]] = []
    victims = [n for n in servers if n != manager_node]
    if victims and max_crashes > 0:
        budget = max(0, min(max_crashes, int(round(max_crashes * intensity))))
        n_crash = rng.randint(0, budget) if budget else 0
        for start, end in windows(n_crash, 1.0, 2.5):
            node = rng.choice(victims)
            schedule.crash_node(start, node)
            schedule.restart_node(end, node)
            crash_windows.append((start, end))

    # -- control-plane kill ---------------------------------------------------
    if manager_node is not None and rng.random() < manager_crash_prob:
        # The manager outage must not overlap an ordinary crash window:
        # the election needs the lowest-id survivors answering, and the
        # docstring's "crash windows never overlap" holds globally.
        for _ in range(8):
            length = rng.uniform(1.2, 2.2)
            start = rng.uniform(lo, max(lo, hi - length))
            end = min(start + length, hi)
            if all(end <= s or e <= start for s, e in crash_windows):
                schedule.crash_manager(start, manager_node)
                schedule.restart_node(end, manager_node)
                crash_windows.append((start, end))
                break

    # -- partitions (one at a time, strict minority, manager on majority) ----
    minority_pool = [n for n in servers if n != manager_node]
    max_minority = (len(servers) - 1) // 2
    if minority_pool and max_minority >= 1 and rng.random() < 0.6 * intensity:
        for start, end in windows(rng.randint(1, 2), 0.8, 2.0):
            size = rng.randint(1, min(max_minority, len(minority_pool)))
            minority = rng.sample(minority_pool, size)
            schedule.partition(start, minority, end - start)

    # -- WAN loss bursts (non-overlapping by construction) --------------------
    if rng.random() < 0.7 * intensity:
        for start, end in windows(rng.randint(1, 2), 0.5, 1.5):
            schedule.loss_burst(start, rng.uniform(0.005, 0.05), end - start)

    # -- link flaps / brownouts (each link at most once) ----------------------
    link_pool = list(links)
    if link_pool:
        for link in rng.sample(link_pool, min(len(link_pool), rng.randint(0, 2))):
            produced = windows(1, 0.3, 1.0)
            if not produced:
                continue
            start, end = produced[0]
            if rng.random() < 0.5:
                schedule.flap_link(start, link, end - start)
            else:
                schedule.brownout_link(
                    start, link, rng.uniform(0.05, 0.5), end - start
                )

    # -- silent bit-rot --------------------------------------------------------
    nsd_pool = list(nsds)
    if nsd_pool:
        for name in rng.sample(nsd_pool, min(len(nsd_pool), rng.randint(0, 3))):
            schedule.corrupt_block(
                rng.uniform(lo, hi), name, index=rng.randrange(32)
            )

    return schedule


# ======================================================================
# Invariant oracle
# ======================================================================

@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    t: float
    kind: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"[t={self.t:.3f}] {self.kind}: {self.detail}"


class InvariantOracle:
    """Watches one fuzz case for safety violations.

    Conflict sweeps run as a background process; read-back and detection
    checks are driven by the runner. The oracle only *records* — a fuzz
    case never aborts mid-storm, so one seed can surface several
    distinct violations.
    """

    def __init__(
        self,
        sim,
        fs,
        health,
        detector=None,
        partition=None,
        link_downs: Optional[Dict[str, List[Tuple[float, float]]]] = None,
        corruption_expected: bool = False,
        sweep_interval: float = 0.25,
    ) -> None:
        if sweep_interval <= 0:
            raise ValueError(
                f"sweep_interval must be positive, got {sweep_interval}"
            )
        self.sim = sim
        self.fs = fs
        self.health = health
        self.detector = detector
        self.partition = partition
        #: node -> [(t_down, t_restore)] windows where the node's access
        #: link was administratively down (renewals could not flow).
        self.link_downs = dict(link_downs or {})
        self.corruption_expected = corruption_expected
        self.sweep_interval = sweep_interval
        self.violations: List[Violation] = []
        self.conflict_sweeps = 0
        self._proc = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "InvariantOracle":
        if self._proc is not None:
            raise RuntimeError("oracle already started")
        self._proc = self.sim.process(self._sweep_loop(), name="oracle-sweep")
        return self

    def stop(self) -> None:
        if self._proc is not None and not self._proc.triggered:
            self._proc.interrupt("oracle stopped")

    def _sweep_loop(self):
        try:
            while True:
                yield self.sim.timeout(self.sweep_interval)
                self.check_token_conflicts()
        except Interrupt:
            return

    def _flag(self, kind: str, detail: str) -> None:
        self.violations.append(Violation(self.sim.now, kind, detail))

    # -- invariant 1: token safety -------------------------------------------

    def check_token_conflicts(self) -> None:
        """No two conflicting tokens may coexist in the manager's table."""
        self.conflict_sweeps += 1
        tm = self.fs.token_manager
        for ino, tokens in tm._held.items():
            for i, a in enumerate(tokens):
                for b in tokens[i + 1:]:
                    if a.conflicts_with(b.holder, b.mode, b.start, b.end):
                        self._flag(
                            "conflicting_tokens",
                            f"ino {ino}: {a.holder}:{a.mode}"
                            f"[{a.start},{a.end}) vs {b.holder}:{b.mode}"
                            f"[{b.start},{b.end})",
                        )

    # -- invariants 2 + 3: durability and byte-exactness ----------------------

    def record_wrong_bytes(self, where: str) -> None:
        self._flag("wrong_bytes", where)

    def record_lost_write(self, where: str) -> None:
        self._flag("acked_write_lost", where)

    def record_checksum_error(self, where: str) -> None:
        """Detected rot is fine *iff* the schedule injected rot."""
        if not self.corruption_expected:
            self._flag("unexpected_checksum_error", where)

    # -- invariant 4: detection validity --------------------------------------

    def check_detections(self) -> None:
        """Every dead-declaration must be backed by a crash or a cut.

        A declaration at ``t`` is legitimate when the node was actually
        down — or unreachable from the quorum side, via a partition or a
        downed access link — at some point within the preceding
        lease-expiry window (lease duration plus two monitor sweeps of
        slack for in-flight renewals).
        """
        detector = self.detector
        if detector is None:
            return
        slack = detector.lease_duration + 2 * detector.check_interval + 0.1
        for node, t in detector.detections:
            window = (t - slack, t)
            if self._was_down_during(node, *window):
                continue
            if self._was_severed_during(node, *window):
                continue
            if self._link_was_down_during(node, *window):
                continue
            self._flag(
                "bogus_declaration",
                f"{node} declared dead at t={t:.3f} while reachable",
            )

    def _was_down_during(self, node: str, a: float, b: float) -> bool:
        return any(
            start <= b and a <= end
            for start, end in self.health.down_intervals(node)
        )

    def _was_severed_during(self, node: str, a: float, b: float) -> bool:
        partition = self.partition
        if partition is None:
            return False
        cuts = list(partition.history)
        if partition.active:
            cuts.append((partition._started_at, float("inf"), partition.minority))
        return any(
            node in minority and start <= b and a <= end
            for start, end, minority in cuts
        )

    def _link_was_down_during(self, node: str, a: float, b: float) -> bool:
        return any(
            start <= b and a <= end
            for start, end in self.link_downs.get(node, ())
        )


# ======================================================================
# Fuzz case runner
# ======================================================================

#: Fuzz cluster geometry: small blocks keep byte-exact models cheap.
_BLOCK = KiB(32)
_OWN_BLOCKS = 12         # per-client private file, blocks
_STRIPE_BLOCKS = 4       # per-client stripe of the shared file, blocks


@dataclass
class FuzzReport:
    """Outcome of one fuzz case (one seed, one storm)."""

    seed: int
    duration: float
    actions: List[Dict] = field(default_factory=list)
    ops: int = 0
    writes_acked: int = 0
    writes_failed: int = 0
    reads_ok: int = 0
    reads_failed: int = 0
    corrupt_reads_detected: int = 0
    conflict_sweeps: int = 0
    violations: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "duration": self.duration,
            "passed": self.passed,
            "actions": self.actions,
            "ops": self.ops,
            "writes_acked": self.writes_acked,
            "writes_failed": self.writes_failed,
            "reads_ok": self.reads_ok,
            "reads_failed": self.reads_failed,
            "corrupt_reads_detected": self.corrupt_reads_detected,
            "conflict_sweeps": self.conflict_sweeps,
            "violations": list(self.violations),
            "metrics": dict(self.metrics),
        }


class _FileModel:
    """Byte-exact expectation for one file.

    ``data`` is what acked writes promised; ``known[i]`` is 1 only for
    bytes whose *last* covering write was acknowledged (a failed write
    un-knows its range — it may or may not have landed).
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.data = bytearray(size)
        self.known = bytearray(size)

    def acked(self, offset: int, payload: bytes) -> None:
        end = offset + len(payload)
        self.data[offset:end] = payload
        self.known[offset:end] = b"\x01" * len(payload)

    def failed(self, offset: int, length: int) -> None:
        self.known[offset:offset + length] = b"\x00" * length

    def compare(self, offset: int, got: bytes) -> Optional[str]:
        """First known-byte mismatch in ``got`` vs the model, or None."""
        for i, byte in enumerate(got):
            pos = offset + i
            if pos >= self.size or not self.known[pos]:
                continue
            if byte != self.data[pos]:
                return (
                    f"offset {pos}: got 0x{byte:02x}, "
                    f"expected 0x{self.data[pos]:02x}"
                )
        return None


def _build_fuzz_cluster(
    seed: int,
    servers: int,
    clients: int,
    block_size: int = _BLOCK,
    blocks_per_nsd: int = 1024,
):
    """A self-contained cluster per case (mirrors tests' ``small_gfs``).

    ``store_data=True`` + two-way replication with verified reads: the
    byte oracle needs real payloads, and verification turns injected rot
    into a *detected* event instead of silent wrong bytes.
    """
    g = Gfs(seed=seed)
    net = g.network
    net.add_node("sw", kind="switch")
    server_names = [f"nsd{i}" for i in range(servers)]
    client_names = [f"c{i}" for i in range(clients)]
    for name in server_names + client_names:
        net.add_host(name, "sw", Gbps(1), site="fuzz")
    cluster = g.add_cluster("fuzz")
    cluster.add_nodes(server_names + client_names)
    fs = cluster.mmcrfs(
        f"fuzz{seed}",
        [NsdSpec(server=s, blocks=blocks_per_nsd) for s in server_names],
        block_size=block_size,
        store_data=True,
        replication=ReplicationPolicy(copies=2, verify_reads=True),
    )
    return g, cluster, fs, server_names, client_names


class _FuzzCase:
    """One seeded storm: build, warm up, inject, verify."""

    def __init__(
        self,
        seed: int,
        duration: float,
        servers: int,
        clients: int,
        intensity: float,
        settle: float,
    ) -> None:
        self.seed = seed
        self.duration = duration
        self.intensity = intensity
        self.settle = settle
        self.rng = random.Random(seed)
        (self.g, self.cluster, self.fs,
         self.server_names, self.client_names) = _build_fuzz_cluster(
            seed, servers, clients
        )
        self.sim = self.g.sim
        self.block = self.fs.block_size
        self.own_size = _OWN_BLOCKS * self.block
        self.stripe = _STRIPE_BLOCKS * self.block
        self.report = FuzzReport(seed=seed, duration=duration)
        self.mounts: Dict[str, object] = {}
        self.handles: Dict[Tuple[str, str], object] = {}
        self.own_models: Dict[str, _FileModel] = {}
        self.shared_model = _FileModel(self.stripe * len(self.client_names))
        self.oracle: Optional[InvariantOracle] = None

    # -- helpers ---------------------------------------------------------------

    def _client_rng(self, node: str) -> random.Random:
        return random.Random(f"fuzz:{self.seed}:{node}")

    def _stripe_bounds(self, node: str) -> Tuple[int, int]:
        index = self.client_names.index(node)
        return index * self.stripe, (index + 1) * self.stripe

    def _classify_read_failure(self, exc: BaseException, where: str) -> None:
        self.report.reads_failed += 1
        if isinstance(exc, (ChecksumError, AllReplicasFailed)):
            self.report.corrupt_reads_detected += 1
            self.oracle.record_checksum_error(f"{where}: {exc}")
        # ConnectionError & friends: availability loss, not a safety
        # violation — the read raised instead of returning wrong bytes.

    # -- phases ----------------------------------------------------------------

    def _mount_all(self) -> None:
        for node in self.client_names:
            event = self.cluster.mmmount(self.fs.name, node)
            self.mounts[node] = self.g.run(until=event)

    def _warmup_one(self, node: str):
        """Create + fill this client's file and shared stripe (pre-storm)."""
        rng = self._client_rng(node)
        mount = self.mounts[node]
        own = yield mount.open(f"/own-{node}", "w+", create=True)
        self.handles[(node, "own")] = own
        payload = rng.randbytes(self.own_size)
        yield mount.pwrite(own, 0, payload)
        yield mount.fsync(own)
        model = _FileModel(self.own_size)
        model.acked(0, payload)
        self.own_models[node] = model
        shared = yield mount.open("/shared", "r+", create=True)
        self.handles[(node, "shared")] = shared
        lo, _hi = self._stripe_bounds(node)
        payload = rng.randbytes(self.stripe)
        yield mount.pwrite(shared, lo, payload)
        yield mount.fsync(shared)
        self.shared_model.acked(lo, payload)

    def warmup(self) -> None:
        self._mount_all()
        for node in self.client_names:
            self.g.run(
                until=self.sim.process(
                    self._warmup_one(node), name=f"warmup:{node}"
                )
            )

    def _written_nsds(self) -> List[str]:
        return [
            nsd.name
            for nsd in self.fs.service.nsds.values()
            if nsd._sums or nsd._data
        ]

    # -- the storm workload ----------------------------------------------------

    def _write(self, node: str, which: str, offset: int, payload: bytes):
        mount = self.mounts[node]
        handle = self.handles[(node, which)]
        model = self.own_models[node] if which == "own" else self.shared_model
        try:
            yield mount.pwrite(handle, offset, payload)
            yield mount.fsync(handle)
        except Exception:
            self.report.writes_failed += 1
            model.failed(offset, len(payload))
        else:
            self.report.writes_acked += 1
            model.acked(offset, payload)

    def _read_and_check(self, node: str, which: str, offset: int, length: int,
                        check_lo: int, check_hi: int):
        """Read [offset, offset+length); byte-check only [check_lo, check_hi).

        During the storm a client may only check bytes *it* owns — a
        concurrent writer's ack can race an in-flight read, so foreign
        stripes are exercised for token traffic but verified at quiesce.
        """
        mount = self.mounts[node]
        handle = self.handles[(node, which)]
        model = self.own_models[node] if which == "own" else self.shared_model
        try:
            data = yield mount.pread(handle, offset, length)
        except Exception as exc:
            self._classify_read_failure(exc, f"{node}:{which}@{offset}")
            return
        self.report.reads_ok += 1
        lo = max(offset, check_lo)
        hi = min(offset + len(data), check_hi)
        if lo >= hi:
            return
        mismatch = model.compare(lo, bytes(data[lo - offset:hi - offset]))
        if mismatch is not None:
            self.oracle.record_wrong_bytes(f"{node}:{which}: {mismatch}")

    def _client_loop(self, node: str, t_end: float):
        rng = self._client_rng(node)
        stripe_lo, stripe_hi = self._stripe_bounds(node)
        shared_size = self.shared_model.size
        while self.sim.now < t_end:
            roll = rng.random()
            if roll < 0.35:  # write own file
                length = rng.randint(1, 2 * self.block)
                offset = rng.randrange(0, self.own_size - length)
                yield from self._write(node, "own", offset, rng.randbytes(length))
            elif roll < 0.50:  # write own stripe of the shared file
                length = rng.randint(1, self.stripe // 2)
                offset = stripe_lo + rng.randrange(0, self.stripe - length)
                yield from self._write(node, "shared", offset, rng.randbytes(length))
            elif roll < 0.80:  # read own file (fully checkable)
                length = rng.randint(1, 3 * self.block)
                offset = rng.randrange(0, self.own_size - length)
                yield from self._read_and_check(
                    node, "own", offset, length, 0, self.own_size
                )
            else:  # read anywhere in the shared file (check own stripe only)
                length = rng.randint(1, 3 * self.block)
                offset = rng.randrange(0, shared_size - length)
                yield from self._read_and_check(
                    node, "shared", offset, length, stripe_lo, stripe_hi
                )
            self.report.ops += 1
            yield self.sim.timeout(rng.uniform(0.01, 0.12))

    # -- final verification ----------------------------------------------------

    def _final_readback(self):
        """Post-storm, fully-healed: every known byte must read back."""
        for node in self.client_names:
            yield from self._read_and_check(
                node, "own", 0, self.own_size, 0, self.own_size
            )
        # One reader sweeps the whole shared file: writers are quiescent,
        # so every client's acked stripe bytes are checkable at once.
        auditor = self.client_names[0]
        yield from self._read_and_check(
            auditor, "shared", 0, self.shared_model.size,
            0, self.shared_model.size,
        )

    # -- orchestration ---------------------------------------------------------

    def run(self) -> FuzzReport:
        self.warmup()
        t0 = self.sim.now
        links = [f"{node}<->sw" for node in self.server_names[1:]]
        schedule = random_schedule(
            self.rng,
            server_nodes=self.server_names,
            manager_node=self.fs.manager_node,
            t0=t0,
            duration=self.duration,
            links=links,
            nsds=self._written_nsds(),
            intensity=self.intensity,
        )
        self.report.actions = schedule.to_dicts()
        corruption = any(a.kind == "corrupt_block" for a in schedule)
        needs_fs = any(a.kind == "crash_manager" for a in schedule)
        # A downed access link makes its node legitimately undeclarable-
        # from: renewals can't flow, so a lease expiry there is valid.
        link_downs: Dict[str, List[Tuple[float, float]]] = {}
        down_at: Dict[str, float] = {}
        for action in schedule.ordered():
            if action.kind == "link_down":
                down_at[action.target] = action.at
            elif action.kind == "link_restore" and action.target in down_at:
                node = action.target.split("<->")[0]
                link_downs.setdefault(node, []).append(
                    (down_at.pop(action.target), action.at)
                )
        harness = attach_faults(
            self.sim,
            self.fs.service,
            manager_node=self.fs.manager_node,
            schedule=schedule,
            engine=self.g.engine,
            network=self.g.network,
            retry=RetryPolicy(),
            retry_rng_streams=self.g.rng,
            token_managers=[self.fs.token_manager],
            filesystem=self.fs if needs_fs else None,
        )
        self.oracle = InvariantOracle(
            self.sim,
            self.fs,
            harness.health,
            detector=harness.detector,
            partition=harness.partition,
            link_downs=link_downs,
            corruption_expected=corruption,
        ).start()
        t_end = t0 + self.duration
        loops = [
            self.sim.process(
                self._client_loop(node, t_end), name=f"fuzz-load:{node}"
            )
            for node in self.client_names
        ]
        self.g.run(until=self.sim.all_of(loops))
        # Quiesce: leases re-granted, takeover (if any) completed, parked
        # work drained — then audit every promise the storm left behind.
        self.g.run(until=self.sim.timeout(self.settle))
        self.g.run(
            until=self.sim.process(self._final_readback(), name="fuzz-audit")
        )
        self.oracle.check_token_conflicts()
        self.oracle.check_detections()
        self.oracle.stop()
        harness.stop()
        self.report.conflict_sweeps = self.oracle.conflict_sweeps
        self.report.violations = [str(v) for v in self.oracle.violations]
        self.report.metrics = harness.metrics()
        return self.report


def run_fuzz_case(
    seed: int,
    *,
    duration: float = 6.0,
    servers: int = 4,
    clients: int = 3,
    intensity: float = 1.0,
    settle: float = 4.0,
) -> FuzzReport:
    """Run one seeded storm and return its :class:`FuzzReport`."""
    return _FuzzCase(seed, duration, servers, clients, intensity, settle).run()


def run_fuzz(
    seeds: Sequence[int] = (),
    *,
    count: int = 0,
    base_seed: int = 0,
    **case_kwargs,
) -> List[FuzzReport]:
    """Run many storms; ``seeds`` wins, else ``base_seed..base_seed+count``."""
    chosen = list(seeds) if seeds else [base_seed + i for i in range(count)]
    return [run_fuzz_case(seed, **case_kwargs) for seed in chosen]
