"""Tests for Controller, StorageArray/Lun, and the FC HBA."""

import pytest

from repro.sim import Simulation
from repro.storage import (
    Controller,
    DS4100_CONTROLLER,
    Hba,
    make_ds4100,
    make_fastt600,
)
from repro.storage.controller import ControllerSpec
from repro.storage.san import FC2_RATE
from repro.util.units import MB, TB


class TestController:
    def test_read_rate(self):
        sim = Simulation()
        ctrl = Controller(sim, DS4100_CONTROLLER)
        evt = ctrl.transfer("read", MB(200))
        sim.run(until=evt)
        assert sim.now == pytest.approx(1.0 + DS4100_CONTROLLER.per_io_latency)

    def test_write_slower(self):
        sim = Simulation()
        ctrl = Controller(sim, DS4100_CONTROLLER)
        evt = ctrl.transfer("write", DS4100_CONTROLLER.write_rate)
        sim.run(until=evt)
        assert sim.now == pytest.approx(1.0 + DS4100_CONTROLLER.per_io_latency)
        assert DS4100_CONTROLLER.write_rate < DS4100_CONTROLLER.read_rate / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ControllerSpec("x", read_rate=0, write_rate=1)
        ctrl = Controller(Simulation(), DS4100_CONTROLLER)
        with pytest.raises(ValueError):
            ctrl.transfer("bogus", 1)
        with pytest.raises(ValueError):
            ctrl.transfer("read", -1)

    def test_accounting(self):
        sim = Simulation()
        ctrl = Controller(sim, DS4100_CONTROLLER)
        sim.run(until=ctrl.transfer("read", MB(1)))
        sim.run(until=ctrl.transfer("write", MB(2)))
        assert ctrl.bytes_read == MB(1)
        assert ctrl.bytes_written == MB(2)


class TestDs4100:
    def test_paper_fig9_geometry(self):
        array = make_ds4100(Simulation(), "b0")
        assert array.drive_count == 67
        assert len(array.luns) == 7
        assert len(array.controllers) == 2
        assert array.raw_capacity == pytest.approx(67 * 250e9)

    def test_paper_total_raw_capacity(self):
        # "32 x 67 x 250 GB = 536 TB" (§5)
        sim = Simulation()
        arrays = [make_ds4100(sim, f"b{i}") for i in range(32)]
        assert sum(a.raw_capacity for a in arrays) == pytest.approx(TB(536))

    def test_luns_alternate_controllers(self):
        array = make_ds4100(Simulation(), "b0")
        owners = [lun.controller for lun in array.luns]
        assert owners[0] is array.controllers[0]
        assert owners[1] is array.controllers[1]
        assert owners[2] is array.controllers[0]

    def test_lun_io_passes_both_stages(self):
        sim = Simulation()
        array = make_ds4100(sim, "b0")
        lun = array.luns[0]
        evt = sim.process(lun.io("read", MB(200)))
        sim.run(until=evt)
        # controller: 1s (+latency); raid read at 480 MB/s: ~0.42s; serial
        expected = (
            MB(200) / DS4100_CONTROLLER.read_rate
            + DS4100_CONTROLLER.per_io_latency
            + MB(200) / lun.raid.read_rate()
        )
        assert sim.now == pytest.approx(expected)

    def test_fastt600(self):
        array = make_fastt600(Simulation(), "sc04")
        assert len(array.luns) == 8
        assert array.usable_capacity > 0


class TestHba:
    def test_multi_port_hba(self):
        sim = Simulation()
        hba = Hba(sim, ports=3)
        assert hba.rate == pytest.approx(3 * FC2_RATE)
        with pytest.raises(ValueError):
            Hba(sim, ports=0)
