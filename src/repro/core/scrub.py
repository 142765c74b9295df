"""Background scrubber: sweep replicas at rest and repair latent rot.

Read-repair only heals rot that a reader happens to trip over; a cold
replica can stay rotten until the *other* copy fails — at which point
the data is gone. The scrubber closes that window: a low-priority
service sweeps every allocated replica on a cadence, verifies the
at-rest contents against the stored checksum, and rebuilds bad replicas
from a good copy.

Scrub I/O is real traffic, not bookkeeping: each verification pays a
disk read at the replica's NSD server (sharing the HBA/LUN with client
I/O), throttled to ``rate`` bytes/sec so a sweep cannot starve the
foreground workload; each repair pays a network block read from the
good replica's server to the bad one's, then a disk write.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.nsd import ChecksumError
from repro.sim.kernel import Interrupt, Simulation
from repro.sim.trace import TRACE
from repro.util.units import MiB


class Scrubber:
    """Cadenced at-rest verification + repair for one filesystem."""

    def __init__(
        self,
        sim: Simulation,
        fs,
        interval: float = 5.0,
        rate: float = 64 * MiB(1),
        tags: Tuple[str, ...] = ("scrub",),
    ) -> None:
        if interval <= 0 or rate <= 0:
            raise ValueError("interval and rate must be positive")
        self.sim = sim
        self.fs = fs
        self.interval = float(interval)
        self.rate = float(rate)
        self.tags = tags
        self.sweeps = 0
        self.blocks_scanned = 0
        self.rot_found = 0
        self.repairs = 0
        self.repair_failures = 0
        self.bytes_read = 0.0
        self._proc = None
        from repro.obs.registry import OBS

        if OBS.enabled:
            from repro.obs.wire import attach_scrubber

            attach_scrubber(self)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "Scrubber":
        if self._proc is not None:
            raise RuntimeError("scrubber already started")
        self._proc = self.sim.process(self._run(), name="scrubber")
        return self

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("scrubber stopped")
        self._proc = None

    def _run(self):
        try:
            while True:
                yield self.sim.timeout(self.interval)
                yield from self._sweep()
                self.sweeps += 1
        except Interrupt:
            return

    # -- one sweep ------------------------------------------------------------

    def _placement_lists(self) -> List[List[Tuple[int, int]]]:
        """Replica sets of every allocated logical block, in sweep order."""
        out = []
        for inode in self.fs.inodes:
            for block_index in sorted(inode.blocks):
                out.append(self.fs.replica_placements(inode, block_index))
        return out

    def _sweep(self):
        bs = self.fs.block_size
        service = self.fs.service
        for placements in self._placement_lists():
            rotten: List[Tuple[int, int]] = []
            good: Optional[Tuple[int, int]] = None
            for nsd_id, phys in placements:
                server = service.servers.get(nsd_id)
                if server is None or server.node in service.down_nodes:
                    continue  # cannot scrub behind a dead server
                nsd = self.fs.nsds[nsd_id]
                if nsd.checksum(phys) is None and phys not in nsd._poisoned:
                    continue  # never written — nothing to verify
                # The at-rest verification pays a real (throttled) disk read.
                yield from server.disk_io(self.sim, nsd, "read", bs)
                yield self.sim.timeout(bs / self.rate)
                self.blocks_scanned += 1
                self.bytes_read += bs
                if nsd.verify_full(phys):
                    if good is None:
                        good = (nsd_id, phys)
                else:
                    rotten.append((nsd_id, phys))
            if rotten and good is None and not self.fs.store_data:
                # Size-only mode records no checksums, so clean replicas
                # are skipped by the scan above; any live, unpoisoned
                # replica is by definition good — heal from the first.
                for nsd_id, phys in placements:
                    server = service.servers.get(nsd_id)
                    if server is None or server.node in service.down_nodes:
                        continue
                    if (nsd_id, phys) not in rotten:
                        good = (nsd_id, phys)
                        break
            for victim in rotten:
                self.rot_found += 1
                if TRACE.enabled:
                    TRACE.instant(
                        self.sim, "scrub.rot_found", cat="fault.integrity",
                        lane="scrub", nsd=victim[0], phys=victim[1],
                    )
                if good is None:
                    self.repair_failures += 1  # no clean copy left to heal from
                    continue
                yield from self._repair(victim, good, bs)

    def _repair(self, victim: Tuple[int, int], good: Tuple[int, int], bs: int):
        """Rebuild one rotten replica from a verified good copy.

        The rebuild runs *at the bad replica's server*: a network block
        read from the good replica's server, then a local full-block
        write — the same traffic a GPFS restripe would generate.
        """
        service = self.fs.service
        bad_nsd, bad_phys = victim
        good_nsd, good_phys = good
        home = service.servers[bad_nsd].node
        try:
            data = yield from service.read_block(
                home, good_nsd, good_phys, 0, bs, tags=self.tags, verify=True
            )
            yield from service.write_block(
                home, bad_nsd, bad_phys, 0, data, tags=self.tags
            )
        except (ConnectionError, ChecksumError):
            self.repair_failures += 1
            return
        self.repairs += 1
        if TRACE.enabled:
            TRACE.instant(
                self.sim, "scrub.repaired", cat="fault.integrity",
                lane="scrub", nsd=bad_nsd, phys=bad_phys,
            )

    # -- reporting ------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        return {
            "scrub_sweeps": float(self.sweeps),
            "scrub_blocks_scanned": float(self.blocks_scanned),
            "scrub_rot_found": float(self.rot_found),
            "scrub_repairs": float(self.repairs),
            "scrub_repair_failures": float(self.repair_failures),
            "scrub_bytes_read": self.bytes_read,
        }
