"""Block replication: fan-out writes, quorum acks, and read-repair.

GPFS replication (``mmcrfs -r 2``) keeps R physical copies of each
logical block in distinct *failure groups* — disks that do not share an
NSD server or controller — so no single domain failure can destroy every
copy. This module is the client-side data path for that:

* :class:`ReplicationPolicy` is the per-filesystem configuration
  (copies, ack quorum, end-to-end verification).
* :class:`ReplicaManager` fans each block write out to every replica and
  completes the caller's event at the configured ack threshold (``all``
  for GPFS semantics, ``majority`` for latency under faults); reads go
  to the cheapest replica first and fail over to survivors on server
  loss *or* checksum mismatch. A mismatch also triggers **read-repair**:
  the good bytes the reader already holds are rewritten over the rotten
  replica in the background.
* :func:`run_limit`, :func:`read_run` and :func:`write_run` choose the
  data path of a planned block run, for the client and the caching
  gateway alike: a replicated filesystem moves one-block runs through
  the :class:`ReplicaManager`, any other moves a run in one NSD RPC.

With ``copies=1`` and ``verify_reads=False`` the policy is *inactive*
and runs take the direct single-replica path — nominal runs stay
bit-identical (the empty-schedule invariance tests pin this down).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.nsd import ChecksumError
from repro.sim.kernel import Event
from repro.sim.trace import TRACE

#: (nsd_id, physical block) — one replica of a logical block.
Placement = Tuple[int, int]


class ReplicaQuorumError(IOError):
    """Too few replicas acknowledged a write to meet the quorum."""


class AllReplicasFailed(IOError):
    """Every replica of a block failed to serve a read."""


@dataclass(frozen=True)
class ReplicationPolicy:
    """Per-filesystem replication configuration.

    ``copies`` counts total physical replicas per logical block
    (1 = no replication). ``quorum`` is the write-ack rule: ``"all"``
    waits for every replica (GPFS semantics — a read never sees a stale
    copy); ``"majority"`` returns at ⌈(R+1)/2⌉ acks and lets the rest
    complete in the background. ``verify_reads`` turns on end-to-end
    checksum verification of full-block reads.
    """

    copies: int = 1
    quorum: str = "all"
    verify_reads: bool = False

    def __post_init__(self) -> None:
        if self.copies < 1:
            raise ValueError("copies must be >= 1")
        if self.quorum not in ("all", "majority"):
            raise ValueError(f"unknown quorum rule {self.quorum!r}")

    @property
    def active(self) -> bool:
        """Does the replicated data path need to run at all?"""
        return self.copies > 1 or self.verify_reads

    def ack_threshold(self, replicas: int) -> int:
        """Write acks required before the caller's write completes."""
        if self.quorum == "all":
            return replicas
        return replicas // 2 + 1


class ReplicaManager:
    """The replicated block data path of one filesystem."""

    def __init__(self, fs) -> None:
        self.fs = fs
        self.sim = fs.sim
        self.policy: ReplicationPolicy = fs.replication
        #: NSD ids whose last replica write failed — deprioritized on read.
        self.suspect_nsds: set[int] = set()
        self._repairing: set[Placement] = set()
        # -- integrity metrics (wired into harness/experiment output) --
        self.corrupt_reads_detected = 0
        self.read_repairs = 0
        self.replica_write_failures = 0
        self.degraded_reads = 0
        self.quorum_failures = 0

    # -- writes ---------------------------------------------------------------

    def write_block(
        self,
        client_node: str,
        placements: Sequence[Placement],
        offset: int,
        data: "bytes | int",
        tags: Tuple[str, ...] = (),
    ) -> Event:
        """Write ``data`` to every replica; fires at the ack quorum.

        Replica writes that fail after the quorum is met are absorbed
        (counted + NSD marked suspect) — the block is degraded, not the
        caller's write. The event fails only when so many replicas fail
        that the quorum can never be met.
        """
        n = len(placements)
        if n == 0:
            raise ValueError("write_block needs at least one placement")
        need = self.policy.ack_threshold(n)
        quorum = Event(self.sim, name="replica-quorum")
        state = {"acks": 0, "fails": 0}
        length = data if isinstance(data, int) else len(data)

        def _one(nsd_id: int, phys: int):
            try:
                yield from self.fs.service.write_block(
                    client_node, nsd_id, phys, offset, data, tags=tags
                )
            except (ConnectionError, ChecksumError):
                state["fails"] += 1
                self.replica_write_failures += 1
                self.suspect_nsds.add(nsd_id)
                if TRACE.enabled:
                    TRACE.instant(
                        self.sim, "replica.write_failed", cat="fault.integrity",
                        lane="replication", nsd=nsd_id, phys=phys,
                    )
                if (
                    not quorum.triggered
                    and n - state["fails"] < need
                ):
                    self.quorum_failures += 1
                    quorum.fail(ReplicaQuorumError(
                        f"only {state['acks']}/{need} replica acks possible "
                        f"({state['fails']}/{n} writes failed)"
                    ))
            else:
                state["acks"] += 1
                self.suspect_nsds.discard(nsd_id)
                if state["acks"] >= need and not quorum.triggered:
                    quorum.succeed(length)

        for nsd_id, phys in placements:
            self.sim.process(_one(nsd_id, phys), name=f"replica-write:{nsd_id}")
        return quorum

    # -- reads ----------------------------------------------------------------

    def read_block(
        self,
        client_node: str,
        placements: Sequence[Placement],
        tags: Tuple[str, ...] = (),
    ):
        """Read one full block from the cheapest live replica (``yield
        from`` it in a process); returns the block's data: ``bytes``, or
        its length on a size-only filesystem.

        Replicas are tried in cost order (primary first, suspects last);
        a :class:`~repro.core.nsd.ChecksumError` or server loss fails
        over to the next replica. Detected rot triggers background
        read-repair using the verified data already in hand. Raises
        :class:`AllReplicasFailed` when no replica serves the block.
        """
        bs = self.fs.block_size
        tags = tuple(tags)
        bad: List[Placement] = []
        last: BaseException | None = None
        attempts = 0
        for nsd_id, phys in self._read_order(list(placements)):
            attempts += 1
            try:
                data = yield from self.fs.service.read_block(
                    client_node, nsd_id, phys, 0, bs,
                    tags=tags, verify=self.policy.verify_reads,
                )
            except ChecksumError as exc:
                self.corrupt_reads_detected += 1
                bad.append((nsd_id, phys))
                last = exc
                continue
            except ConnectionError as exc:
                last = exc
                continue
            if attempts > 1:
                self.degraded_reads += 1
            for victim in bad:
                self._start_repair(client_node, victim, data, tags, "read_repair")
            return data
        raise AllReplicasFailed(
            f"all {len(placements)} replicas failed verification or transport"
        ) from last

    def _read_order(self, placements: List[Placement]) -> List[Placement]:
        """Cheapest-first replica ordering (stable, hence deterministic).

        Primary (index 0) wins ties; a replica behind a down server costs
        more than a healthy one (it would burn failover or retries), and
        an NSD whose last write failed costs the most.

        Fault-free fast path: with no down nodes and no suspect NSDs every
        penalty is zero, and a stable sort of all-zero penalties is the
        input order — skip the sort entirely. (Hot: replicated reads call
        this once per block — :func:`run_limit` keeps replicated runs to
        one block, precisely so this per-replica ordering and fan-out stay
        intact.)
        """
        service = self.fs.service
        if not service.down_nodes and not self.suspect_nsds:
            return list(placements)

        def cost(item: Tuple[int, Placement]) -> Tuple[int, int]:
            idx, (nsd_id, _) = item
            penalty = 0
            server = service.servers.get(nsd_id)
            if server is not None and server.node in service.down_nodes:
                penalty += 10
            if nsd_id in self.suspect_nsds:
                penalty += 100
            return (penalty, idx)

        ranked = sorted(enumerate(placements), key=cost)
        return [placement for _, placement in ranked]

    # -- repair ---------------------------------------------------------------

    def _start_repair(
        self,
        writer_node: str,
        victim: Placement,
        data: "bytes | int",
        tags: Tuple[str, ...],
        kind: str,
    ) -> Event | None:
        """Rewrite one rotten replica with known-good full-block data.

        Deduplicated: concurrent readers detecting the same rot launch
        one repair. The rewrite is a normal block write — it pays disk
        and network time like any other traffic.
        """
        if victim in self._repairing:
            return None
        self._repairing.add(victim)
        nsd_id, phys = victim
        if TRACE.enabled:
            TRACE.instant(
                self.sim, f"replica.{kind}", cat="fault.integrity",
                lane="replication", nsd=nsd_id, phys=phys,
            )

        def _proc():
            try:
                yield from self.fs.service.write_block(
                    writer_node, nsd_id, phys, 0, data, tags=tags + ("repair",)
                )
            except (ConnectionError, ChecksumError):
                self.replica_write_failures += 1
                self.suspect_nsds.add(nsd_id)
            else:
                if kind == "read_repair":
                    self.read_repairs += 1
            finally:
                self._repairing.discard(victim)

        return self.sim.process(_proc(), name=f"repair:{nsd_id}:{phys}")

    # -- reporting ------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        return {
            "corrupt_reads_detected": float(self.corrupt_reads_detected),
            "read_repairs": float(self.read_repairs),
            "replica_write_failures": float(self.replica_write_failures),
            "degraded_reads": float(self.degraded_reads),
            "quorum_failures": float(self.quorum_failures),
        }


# -- the data path of one planned run --------------------------------------


def run_limit(fs, max_coalesce: int) -> int:
    """Most blocks a planned run may hold on ``fs``.

    A replicated filesystem keeps runs to one block: each block fans out
    to its own replica set (quorum writes, cheapest-replica reads).
    """
    return 1 if fs.replication.active else max_coalesce


def read_run(fs, node: str, ino: int, block: int, nsd_id: int, phys, tags):
    """Read one planned run for ``node``; ``yield from`` it in a process.

    ``phys`` lists the run's physical blocks on NSD ``nsd_id``; logical
    block ``block`` of inode ``ino`` is the first of them. Returns the
    blocks' data in run order. A replicated filesystem reads its
    one-block runs through the :class:`ReplicaManager`; any other runs
    one NSD RPC. Either runs inside the caller's process: ``yield from``
    adds no events.
    """
    if fs.replication.active:
        placements = fs.replica_placements(fs.inodes.get(ino), block)
        return [(yield from fs.integrity.read_block(node, placements, tags=tags))]
    return (yield from fs.service.read_blocks(node, nsd_id, phys, tags=tags))


def write_run(fs, node: str, ino: int, block: int, nsd_id: int, extents, tags):
    """Write one planned run of ``(phys, offset, data)`` extents for ``node``;
    ``yield from`` it in a process.

    Arguments as for :func:`read_run`. Returns the byte count at the ack:
    on a replicated filesystem, at the ack quorum of the run's one block;
    on any other, when the run's one NSD RPC, run inside the caller's
    process, is acked.
    """
    if fs.replication.active:
        ((_phys, offset, data),) = extents
        placements = fs.replica_placements(fs.inodes.get(ino), block)
        return (
            yield fs.integrity.write_block(node, placements, offset, data, tags=tags)
        )
    return (yield from fs.service.write_blocks(node, nsd_id, extents, tags=tags))
