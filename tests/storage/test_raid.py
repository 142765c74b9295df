"""Tests for RaidSet (aggregate and detailed modes)."""

import pytest

from repro.sim import Simulation
from repro.storage import RaidSet, SATA_2005
from repro.util.units import KiB, MB


def make(detailed, **kw):
    sim = Simulation()
    raid = RaidSet(sim, SATA_2005, detailed=detailed, **kw)
    return sim, raid


class TestGeometry:
    def test_capacity_excludes_parity(self):
        _, raid = make(False)
        assert raid.capacity == 8 * SATA_2005.capacity

    def test_full_stripe(self):
        _, raid = make(False, segment=KiB(256))
        assert raid.full_stripe == 8 * KiB(256)

    def test_validation(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            RaidSet(sim, SATA_2005, data_disks=0)
        with pytest.raises(ValueError):
            RaidSet(sim, SATA_2005, segment=0)
        raid = RaidSet(sim, SATA_2005)
        with pytest.raises(ValueError):
            raid.io("bogus", 1)
        with pytest.raises(ValueError):
            raid.io("read", -1)


class TestRates:
    def test_read_rate_is_data_disks_times_disk(self):
        _, raid = make(False)
        assert raid.read_rate() == 8 * SATA_2005.read_rate

    def test_full_stripe_write_pays_parity_share(self):
        _, raid = make(False)
        full = raid.write_rate(raid.full_stripe)
        assert full == pytest.approx(8 * SATA_2005.write_rate * 8 / 9)

    def test_partial_stripe_write_half_rate(self):
        _, raid = make(False)
        full = raid.write_rate(raid.full_stripe)
        partial = raid.write_rate(raid.full_stripe // 2)
        assert partial == pytest.approx(full / 2)

    def test_raid0_no_parity_penalty(self):
        sim = Simulation()
        raid = RaidSet(sim, SATA_2005, parity_disks=0)
        assert raid.write_rate(1) == 8 * SATA_2005.write_rate


class TestAggregateIo:
    def test_read_time(self):
        sim, raid = make(False)
        evt = raid.io("read", 8 * MB(60))  # 1s at 8 disks x 60 MB/s
        sim.run(until=evt)
        assert sim.now == pytest.approx(1.0)

    def test_write_slower_than_read(self):
        sim, raid = make(False)
        nbytes = 8 * MB(55)
        evt = raid.io("write", nbytes)
        sim.run(until=evt)
        assert sim.now == pytest.approx(nbytes / raid.write_rate(nbytes))

    def test_random_io_pays_seek(self):
        sim, raid = make(False)
        evt = raid.io("read", MB(8), sequential=False)
        sim.run(until=evt)
        assert sim.now == pytest.approx(MB(8) / raid.read_rate() + SATA_2005.seek_time)

    def test_degraded_random_io_exact_times(self):
        # Pinned to the bit: a partial-stripe write on a degraded set, then
        # a read queued behind it, each paying seek + read-rate-equivalent
        # bytes through the one aggregate stage.
        sim, raid = make(False)
        raid.fail_disk()
        write = raid.io("write", raid.full_stripe // 3 + 1, sequential=False)
        read = raid.io("read", MB(3) + 7, sequential=False)
        sim.run(until=write)
        assert sim.now == 0.018999441115702478
        sim.run(until=read)
        assert sim.now == 0.04286310399449035

    def test_byte_accounting(self):
        sim, raid = make(False)
        sim.run(until=raid.io("read", MB(1)))
        sim.run(until=raid.io("write", MB(2)))
        assert raid.bytes_read == MB(1)
        assert raid.bytes_written == MB(2)


class TestDetailedIo:
    def test_members_created(self):
        _, raid = make(True)
        assert len(raid.disks) == 9

    def test_read_striped_across_data_disks(self):
        sim, raid = make(True)
        evt = raid.io("read", 8 * MB(60))
        sim.run(until=evt)
        # each data disk reads 60 MB at 60 MB/s in parallel
        assert sim.now == pytest.approx(1.0)

    def test_full_stripe_write_engages_parity_disk(self):
        sim, raid = make(True)
        nbytes = raid.full_stripe
        evt = raid.io("write", nbytes)
        sim.run(until=evt)
        parity = raid.disks[8]
        assert parity.bytes_written > 0

    def test_partial_stripe_write_rmw_doubles_member_work(self):
        sim, raid = make(True)
        small = raid.full_stripe // 4
        evt = raid.io("write", small)
        sim.run(until=evt)
        chunk = small / 8
        # RMW: each member serviced 2x the chunk
        assert sim.now == pytest.approx(2 * chunk / SATA_2005.write_rate)

    def test_zero_byte_io_completes(self):
        sim, raid = make(True)
        evt = raid.io("read", 0)
        sim.run(until=evt)
        assert evt.processed

    def test_detailed_vs_aggregate_agree_on_large_reads(self):
        simd, raidd = make(True)
        sima, raida = make(False)
        n = 8 * MB(120)
        ed = raidd.io("read", n)
        ea = raida.io("read", n)
        simd.run(until=ed)
        sima.run(until=ea)
        assert simd.now == pytest.approx(sima.now, rel=1e-6)
