"""Tests for the scenario builders (paper configurations)."""

import pytest

from repro.topology import (
    TERAGRID_SITES,
    add_teragrid_backbone,
    build_deisa,
    build_sc02,
    build_sc03,
    build_sc04,
    build_sdsc2005,
)
from repro.net.topology import Network
from repro.sim.trace import TRACE
from repro.util.units import Gbps, TB


class TestTeragrid:
    def test_backbone_shape(self):
        net = Network()
        add_teragrid_backbone(net)
        # every site reaches every other through the hubs
        for a in TERAGRID_SITES:
            for b in TERAGRID_SITES:
                if a != b:
                    assert net.path(f"{a}-sw", f"{b}-sw")

    def test_cross_hub_delay(self):
        net = Network()
        add_teragrid_backbone(net)
        # SDSC (LA) to NCSA (Chicago) crosses the backbone: ~29 ms one way
        assert 0.02 < net.one_way_delay("sdsc-sw", "ncsa-sw") < 0.04
        # ANL to NCSA stays within the Chicago hub: short
        assert net.one_way_delay("anl-sw", "ncsa-sw") < 0.01

    def test_unknown_site_rejected(self):
        net = Network()
        with pytest.raises(ValueError):
            add_teragrid_backbone(net, sites=("sdsc", "atlantis"))

    def test_site_metadata(self):
        assert TERAGRID_SITES["sdsc"]["role"] == "Data-Intensive"
        assert TERAGRID_SITES["sdsc"]["online_disk"] == TB(500)


class TestSc02:
    def test_rtt_is_80ms(self):
        s = build_sc02()
        assert s.network.rtt("sdsc-san", "baltimore-sf6800") == pytest.approx(0.080)

    def test_tunnel_ceiling(self):
        s = build_sc02(nishan_pairs=2)
        assert s.tunnel.forward.rate == pytest.approx(Gbps(8))

    def test_stream_read_validation(self):
        s = build_sc02()
        with pytest.raises(ValueError):
            s.client.stream_read(0)


class TestSc03:
    def test_scaled_build(self):
        s = build_sc03(nsd_servers=6, sdsc_viz_nodes=3, ncsa_viz_nodes=2,
                       with_disks=False)
        assert len(s.fs.nsds) == 6
        assert len(s.sdsc_mounts) == 3
        assert len(s.ncsa_mounts) == 2
        assert s.writer_mount is not None

    def test_single_10gbe_uplink(self):
        s = build_sc03(nsd_servers=4, sdsc_viz_nodes=1, ncsa_viz_nodes=1,
                       with_disks=False)
        path = s.gfs.network.path("flr-nsd00", "sdsc-viz00")
        uplinks = [l for l in path if l.src == "floor-sw"]
        assert len(uplinks) == 1
        assert uplinks[0].rate == pytest.approx(Gbps(10))


class TestSc04:
    def test_lanes_assigned_round_robin(self):
        s = build_sc04(nsd_servers=6, sdsc_clients=2, ncsa_clients=2, arrays=2)
        tags = {srv.tags[0] for srv in s.fs.service.servers.values()}
        assert tags == {"lane0", "lane1", "lane2"}

    def test_three_uplinks(self):
        s = build_sc04(nsd_servers=3, sdsc_clients=1, ncsa_clients=1, arrays=1)
        net = s.gfs.network
        for k in range(3):
            assert net.path(f"floor-sw{k}", "chi-hub")

    def test_mounts_authenticated(self):
        s = build_sc04(nsd_servers=3, sdsc_clients=2, ncsa_clients=1, arrays=1)
        assert s.floor.active_remote_mounts == 3


class TestSdsc2005:
    def test_paper_capacity(self):
        s = build_sdsc2005(nsd_servers=8, ds4100_count=32, sdsc_clients=1,
                           anl_clients=1, ncsa_clients=1)
        raw = sum(a.raw_capacity for a in s.arrays)
        assert raw == pytest.approx(TB(536))  # 32 x 67 x 250 GB

    def test_all_luns_mapped(self):
        s = build_sdsc2005(nsd_servers=8, ds4100_count=4, sdsc_clients=1,
                           anl_clients=0, ncsa_clients=0)
        # 4 bricks x 7 luns = 28 NSDs
        assert len(s.fs.nsds) == 28

    def test_remote_sites_wired(self):
        s = build_sdsc2005(nsd_servers=4, ds4100_count=2, sdsc_clients=1,
                           anl_clients=2, ncsa_clients=2)
        mounts = s.mount_clients("anl", 1)
        assert mounts[0].fs is s.fs
        assert s.sdsc.active_remote_mounts == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            build_sdsc2005(nsd_servers=0)


class TestHbaLanes:
    """Each disk-backed NSD server's FC port traces on a lane of its own."""

    @pytest.mark.parametrize(
        "build, client",
        [
            (lambda: build_sc03(nsd_servers=2, sdsc_viz_nodes=1,
                                ncsa_viz_nodes=1), "sdsc-viz00"),
            (lambda: build_sc04(nsd_servers=2, sdsc_clients=1, ncsa_clients=1,
                                arrays=1), "sdsc-ds000"),
            (lambda: build_sdsc2005(nsd_servers=2, ds4100_count=1,
                                    sdsc_clients=1, anl_clients=0,
                                    ncsa_clients=0), "sdsc-tg000"),
        ],
        ids=["sc03", "sc04", "sdsc2005"],
    )
    def test_two_servers_two_hba_lanes(self, build, client):
        fs = build().fs
        svc = fs.service
        first_nsd = {}
        for nsd_id in range(len(fs.nsds)):
            first_nsd.setdefault(svc.server_of(nsd_id).name, nsd_id)
        assert len(first_nsd) == 2
        TRACE.enable()
        try:
            for nsd_id in first_nsd.values():
                rpc = svc.read_block(client, nsd_id, 0, 0, fs.block_size)
                svc.sim.run(until=svc.sim.process(rpc))
            lanes = {lane for _ph, _t0, _dur, _, lane, *_ in TRACE._events
                     if lane.endswith("hba")}
        finally:
            TRACE.disable()
            TRACE.reset()
        assert lanes == {f"pipe:{server}.hba" for server in first_nsd}


class TestDeisa:
    def test_full_mesh_exports(self):
        s = build_deisa(servers_per_site=2, clients_per_site=1)
        assert len(s.filesystems) == 4
        for importer in s.clusters.values():
            # every site can mount the other three
            assert len(importer.remote_fs) == 3

    def test_unified_uid_space(self):
        s = build_deisa(servers_per_site=1, clients_per_site=1)
        uids = {
            site: cluster.uid_domain.lookup("plasma").uid
            for site, cluster in s.clusters.items()
        }
        assert len(set(uids.values())) == 1  # same uid everywhere (§7)

    def test_cross_site_mount(self):
        s = build_deisa(servers_per_site=2, clients_per_site=1)
        mount = s.mount("fzj", "cineca")
        assert mount.fs is s.filesystems["cineca"]

    def test_wan_is_1gbs(self):
        s = build_deisa(servers_per_site=1, clients_per_site=1)
        rate = s.gfs.network.bottleneck_rate("cineca-c0", "fzj-nsd0")
        assert rate <= Gbps(1)
