"""Tests for cross-cluster export/import (§6 protocol)."""

import hashlib

import pytest

from repro.core.cluster import Gfs, NsdSpec
from repro.core.multicluster import MountAuthError, unmount
from repro.core.namespace import PermissionDenied
from repro.util.units import Gbps, KiB, MB

from tests.core.testbed import run_io


def wan_gfs(
    server_cipher="AUTHONLY",
    client_cipher="AUTHONLY",
    wan_delay=0.015,
    do_keys=True,
    do_grant="rw",
    block_size=KiB(256),
    **fs_kwargs,
):
    """Two clusters (sdsc serving, ncsa importing) across a WAN.

    Extra keyword arguments (``replication``, ...) go to ``mmcrfs``.
    """
    g = Gfs(seed=3)
    net = g.network
    net.add_node("sdsc-sw", kind="switch")
    net.add_node("ncsa-sw", kind="switch")
    net.add_link("sdsc-sw", "ncsa-sw", Gbps(30), delay=wan_delay)
    sdsc_nodes = [f"s{i}" for i in range(4)]
    ncsa_nodes = [f"n{i}" for i in range(2)]
    for name in sdsc_nodes:
        net.add_host(name, "sdsc-sw", Gbps(1), site="sdsc")
    for name in ncsa_nodes:
        net.add_host(name, "ncsa-sw", Gbps(1), site="ncsa")

    sdsc = g.add_cluster("sdsc", site="sdsc")
    sdsc.add_nodes(sdsc_nodes)
    ncsa = g.add_cluster("ncsa", site="ncsa")
    ncsa.add_nodes(ncsa_nodes)

    fs = sdsc.mmcrfs(
        "gpfs-sdsc",
        [NsdSpec(server=s, blocks=4096) for s in sdsc_nodes],
        block_size=block_size,
        **fs_kwargs,
    )
    sdsc.mmauth_update(server_cipher)
    ncsa.mmauth_update(client_cipher)
    if do_keys:
        sdsc_pub = sdsc.mmauth_genkey()
        ncsa_pub = ncsa.mmauth_genkey()
        sdsc.mmauth_add("ncsa", ncsa_pub)
        ncsa.mmremotecluster_add("sdsc", sdsc_pub, contact_nodes=["s0"])
    else:
        # still need the cluster definition to attempt a mount
        ncsa.remote_clusters["sdsc"] = type(
            "D", (), {"name": "sdsc", "contact_nodes": ["s0"]}
        )()
    if do_grant:
        sdsc.mmauth_grant("ncsa", "gpfs-sdsc", do_grant)
    ncsa.mmremotefs_add("gpfs-sdsc-remote", "sdsc", "gpfs-sdsc")
    return g, sdsc, ncsa, fs


def patterned(n, seed=7):
    out = bytearray()
    h = hashlib.sha256(str(seed).encode()).digest()
    while len(out) < n:
        out.extend(h)
        h = hashlib.sha256(h).digest()
    return bytes(out[:n])


class TestMountProtocol:
    def test_successful_remote_mount(self):
        g, sdsc, ncsa, fs = wan_gfs()
        evt = ncsa.mmmount("gpfs-sdsc-remote", "n0", access="rw")
        mount = g.run(until=evt)
        assert mount.fs is fs
        assert sdsc.active_remote_mounts == 1

    def test_servers_notified_in_nsd_order(self, monkeypatch):
        # The fan-out is sent one message at a time, so its order sets the
        # kernel's sequence numbers and the delivery-time sums; it must be
        # NSD order, not a set's hash-seed-dependent order.
        g, sdsc, ncsa, fs = wan_gfs()
        sent = []
        send = g.messages.send

        def recording_send(src, dst, *args, **kwargs):
            sent.append((src, dst))
            return send(src, dst, *args, **kwargs)

        monkeypatch.setattr(g.messages, "send", recording_send)
        g.run(until=ncsa.mmmount("gpfs-sdsc-remote", "n0"))
        servers = [srv.node for srv in fs.service.servers.values()]
        assert servers == ["s0", "s1", "s2", "s3"]
        assert [dst for src, dst in sent if src == "s0" and dst in servers] == servers

    def test_handshake_pays_wan_latency(self):
        g, sdsc, ncsa, fs = wan_gfs(wan_delay=0.040)
        evt = ncsa.mmmount("gpfs-sdsc-remote", "n0")
        g.run(until=evt)
        # at least two WAN legs of 40ms each
        assert g.sim.now >= 0.080

    def test_empty_cipher_skips_auth(self):
        g, sdsc, ncsa, fs = wan_gfs(
            server_cipher="EMPTY", client_cipher="EMPTY", do_keys=False
        )
        evt = ncsa.mmmount("gpfs-sdsc-remote", "n0")
        mount = g.run(until=evt)
        assert mount.fs is fs

    def test_missing_server_side_key_fails(self):
        g, sdsc, ncsa, fs = wan_gfs()
        sdsc.keystore.revoke("ncsa")  # mmauth add never happened / was removed
        evt = ncsa.mmmount("gpfs-sdsc-remote", "n0")
        with pytest.raises(MountAuthError, match="mmauth add"):
            g.run(until=evt)

    def test_serving_cluster_has_no_such_filesystem(self):
        g, sdsc, ncsa, fs = wan_gfs()
        ncsa.mmremotefs_add("ghost", "sdsc", "gpfs-nonexistent")
        evt = ncsa.mmmount("ghost", "n0")
        with pytest.raises(MountAuthError, match="has no filesystem"):
            g.run(until=evt)

    def test_missing_importing_side_key_fails(self):
        # ncsa generated its own keypair but never imported sdsc's
        # public key (mmremotecluster add with the wrong blob / skipped).
        g, sdsc, ncsa, fs = wan_gfs()
        ncsa.keystore.revoke("sdsc")
        evt = ncsa.mmmount("gpfs-sdsc-remote", "n0")
        with pytest.raises(MountAuthError, match="mmremotecluster missing"):
            g.run(until=evt)

    def test_missing_keypair_fails(self):
        g, sdsc, ncsa, fs = wan_gfs(
            server_cipher="AUTHONLY", client_cipher="AUTHONLY", do_keys=False
        )
        ncsa.remote_fs  # defined in fixture
        evt = ncsa.mmmount("gpfs-sdsc-remote", "n0")
        with pytest.raises(MountAuthError, match="mmauth genkey"):
            g.run(until=evt)

    def test_wrong_key_fails_verification(self):
        g, sdsc, ncsa, fs = wan_gfs()
        # server imports an attacker's key instead of ncsa's real one
        interloper = Gfs(seed=99)
        fake = interloper.add_cluster("fake")
        fake_pub = fake.mmauth_genkey()
        sdsc.mmauth_add("ncsa", fake_pub)
        evt = ncsa.mmmount("gpfs-sdsc-remote", "n0")
        with pytest.raises(MountAuthError, match="RSA verification"):
            g.run(until=evt)

    def test_no_grant_fails(self):
        g, sdsc, ncsa, fs = wan_gfs(do_grant=None)
        evt = ncsa.mmmount("gpfs-sdsc-remote", "n0")
        with pytest.raises(MountAuthError, match="not granted"):
            g.run(until=evt)

    def test_rw_mount_on_ro_grant_fails(self):
        g, sdsc, ncsa, fs = wan_gfs(do_grant="ro")
        evt = ncsa.mmmount("gpfs-sdsc-remote", "n0", access="rw")
        with pytest.raises(MountAuthError, match="read-only"):
            g.run(until=evt)

    def test_ro_grant_allows_ro_mount(self):
        g, sdsc, ncsa, fs = wan_gfs(do_grant="ro")
        evt = ncsa.mmmount("gpfs-sdsc-remote", "n0", access="ro")
        mount = g.run(until=evt)
        assert mount.access == "ro"

    def test_unmount_decrements(self):
        g, sdsc, ncsa, fs = wan_gfs()
        mount = g.run(until=ncsa.mmmount("gpfs-sdsc-remote", "n0"))
        unmount(g, mount)
        assert sdsc.active_remote_mounts == 0
        assert mount not in fs.mounts


class TestCrossClusterIo:
    def test_data_integrity_across_wan(self):
        g, sdsc, ncsa, fs = wan_gfs()
        m_sdsc = g.run(until=sdsc.mmmount("gpfs-sdsc", "s3"))
        m_ncsa = g.run(until=ncsa.mmmount("gpfs-sdsc-remote", "n0"))
        payload = patterned(3 * fs.block_size)

        def io():
            h = yield m_sdsc.open("/dataset", "w", create=True)
            yield m_sdsc.write(h, payload)
            yield m_sdsc.close(h)
            hr = yield m_ncsa.open("/dataset", "r")
            return (yield m_ncsa.read(hr, len(payload)))

        assert run_io(g, io()) == payload

    def test_ro_remote_mount_enforced_at_io(self):
        g, sdsc, ncsa, fs = wan_gfs(do_grant="ro")
        m = g.run(until=ncsa.mmmount("gpfs-sdsc-remote", "n0", access="ro"))

        def io():
            try:
                yield m.open("/newfile", "w", create=True)
            except PermissionDenied:
                return "denied"

        assert run_io(g, io()) == "denied"

    def test_encrypted_cipher_caps_throughput(self):
        # AES128 crypto_rate is 64 MB/s per connection; a single-stream
        # remote read of 64 MB should take ~1s instead of ~GbE speed.
        g, sdsc, ncsa, fs = wan_gfs(server_cipher="AES128", client_cipher="AES128",
                                    block_size=MB(1))
        m_s = g.run(until=sdsc.mmmount("gpfs-sdsc", "s3"))
        m_n = g.run(until=ncsa.mmmount("gpfs-sdsc-remote", "n0"))
        payload = patterned(int(MB(16)))

        def io2():
            h = yield m_s.open("/big", "w", create=True)
            yield m_s.write(h, payload)
            yield m_s.close(h)
            t0 = g.sim.now
            hr = yield m_n.open("/big", "r")
            yield m_n.read(hr, len(payload))
            return g.sim.now - t0

        elapsed = run_io(g, io2())
        # 16 MB over parallel encrypted connections to 4 servers at 64 MB/s
        # each: floor is 16/256 s; must be well below GbE-unencrypted time?
        # Key check: per-connection rate never exceeded the crypto cap.
        # With 4 servers and readahead the transfer uses 4 capped streams.
        assert elapsed >= len(payload) / (4 * 64e6) * 0.9

    def test_intra_cluster_traffic_not_capped(self):
        g, sdsc, ncsa, fs = wan_gfs(server_cipher="AES128", client_cipher="AES128")
        assert g.pair_cipher("s0", "s1") is None
        assert g.pair_cipher("s0", "n0") is not None
        assert g.pair_cipher("s0", "n0").crypto_rate == 64e6


class TestDnOwnership:
    def test_same_dn_different_uids_owns_across_sites(self):
        g, sdsc, ncsa, fs = wan_gfs()
        dn = "/C=US/O=TeraGrid/CN=alice"
        sdsc.add_user("alice", uid=5001, dn=dn)
        ncsa.add_user("amhb", uid=77, dn=dn)  # same human, different account
        id_sdsc = sdsc.identity_for_dn(dn)
        id_ncsa = ncsa.identity_for_dn(dn)
        m_s = g.run(until=sdsc.mmmount("gpfs-sdsc", "s3", identity=id_sdsc))
        m_n = g.run(until=ncsa.mmmount("gpfs-sdsc-remote", "n0", identity=id_ncsa))

        def io():
            h = yield m_s.open("/mine", "w", create=True)
            yield m_s.write(h, b"my data")
            yield m_s.close(h)
            inode = fs.namespace.resolve("/mine")
            inode.mode = 0o600  # owner-only
            hr = yield m_n.open("/mine", "r")  # works: DN matches
            return (yield m_n.read(hr, 10))

        assert run_io(g, io()) == b"my data"

    def test_classic_uid_ownership_breaks_across_sites(self):
        """Without the DN extension the same human is denied at the second site."""
        g, sdsc, ncsa, fs = wan_gfs()
        dn = "/CN=alice"
        sdsc.add_user("alice", uid=5001, dn=dn)
        ncsa.add_user("amhb", uid=77, dn=dn)
        id_sdsc = sdsc.identity_for_dn(dn, use_dn_ownership=False)
        id_ncsa = ncsa.identity_for_dn(dn, use_dn_ownership=False)
        m_s = g.run(until=sdsc.mmmount("gpfs-sdsc", "s3", identity=id_sdsc))
        m_n = g.run(until=ncsa.mmmount("gpfs-sdsc-remote", "n0", identity=id_ncsa))

        def io():
            h = yield m_s.open("/mine", "w", create=True)
            yield m_s.write(h, b"x")
            yield m_s.close(h)
            fs.namespace.resolve("/mine").mode = 0o600
            try:
                yield m_n.open("/mine", "r")
            except PermissionDenied:
                return "denied"

        assert run_io(g, io()) == "denied"
