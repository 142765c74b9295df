"""E9 — §6: multi-cluster authentication.

Three measurable aspects of the GPFS 2.3 auth work the paper describes:

1. mount-time cost: rsh-trust (EMPTY) vs RSA handshake (AUTHONLY) vs
   encrypting ciphers — the handshake pays WAN round trips;
2. data-path cost: ``cipherList`` encryption taxes per-connection
   throughput on 2005 CPUs;
3. semantics: per-filesystem ro/rw grants and GSI DN ownership across
   mismatched UID domains (§6's motivation).
"""

from __future__ import annotations

from repro.core.cluster import Gfs, NsdSpec
from repro.core.multicluster import MountAuthError
from repro.experiments.harness import Experiment, ExperimentResult, Gate
from repro.util.tables import Table
from repro.util.units import Gbps, MB, MiB, fmt_rate, fmt_time
from repro.workloads.viz import VizReader


def _build(cipher: str, wan_delay: float = 0.030):
    g = Gfs(seed=11)
    net = g.network
    net.add_node("sdsc-sw", kind="switch")
    net.add_node("ncsa-sw", kind="switch")
    net.add_link("sdsc-sw", "ncsa-sw", Gbps(30), delay=wan_delay)
    servers = [f"s{i}" for i in range(8)]
    for s in servers:
        net.add_host(s, "sdsc-sw", Gbps(1), site="sdsc")
    net.add_host("n0", "ncsa-sw", Gbps(1), site="ncsa")
    sdsc = g.add_cluster("sdsc", site="sdsc")
    sdsc.add_nodes(servers)
    ncsa = g.add_cluster("ncsa", site="ncsa")
    ncsa.add_node("n0")
    fs = sdsc.mmcrfs(
        "gpfs", [NsdSpec(server=s, blocks=4096) for s in servers],
        block_size=MiB(1), store_data=False,
    )
    sdsc.mmauth_update(cipher)
    ncsa.mmauth_update(cipher)
    if cipher != "EMPTY":
        sdsc_pub = sdsc.mmauth_genkey()
        ncsa_pub = ncsa.mmauth_genkey()
        sdsc.mmauth_add("ncsa", ncsa_pub)
        ncsa.mmremotecluster_add("sdsc", sdsc_pub, ["s0"])
    else:
        ncsa.mmremotecluster_add("sdsc", sdsc.mmauth_genkey(), ["s0"])
    sdsc.mmauth_grant("ncsa", "gpfs", "rw")
    ncsa.mmremotefs_add("gpfs-r", "sdsc", "gpfs")
    return g, sdsc, ncsa, fs


def run_e9(read_bytes: float = MB(128)) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="E9",
        title="§6: multi-cluster mount auth and cipherList data-path cost",
        paper_claim="RSA mount auth replaces root rsh; per-fs ro/rw grants; optional encryption",
    )
    table = Table(
        ["cipherList", "mount time", "remote read rate"],
        title="mount handshake + data path per cipher",
    )
    for cipher in ("EMPTY", "AUTHONLY", "AES128", "AES256", "3DES"):
        g, sdsc, ncsa, fs = _build(cipher)
        # stage a file at the serving side
        stage = g.run(until=sdsc.mmmount("gpfs", "s7"))

        def seed(stage=stage):
            handle = yield stage.open("/data", "w", create=True)
            yield stage.write(handle, int(read_bytes))
            yield stage.close(handle)

        g.run(until=g.sim.process(seed(), name="seed"))
        t0 = g.sim.now
        mount = g.run(until=ncsa.mmmount("gpfs-r", "n0", tags=("e9",), readahead=24))
        mount_time = g.sim.now - t0
        t0 = g.sim.now
        g.run(until=VizReader(mount, "/data", chunk=MiB(2)).run())
        rate = read_bytes / (g.sim.now - t0)
        table.add_row([cipher, fmt_time(mount_time), fmt_rate(rate)])
        result.metrics[f"mount_time_{cipher}"] = mount_time
        result.metrics[f"read_rate_{cipher}"] = rate
    result.table = table

    # semantics: ro enforcement + missing-grant refusal
    g, sdsc, ncsa, fs = _build("AUTHONLY")
    sdsc.mmauth_grant("ncsa", "gpfs", "ro")  # downgrade
    try:
        g.run(until=ncsa.mmmount("gpfs-r", "n0", access="rw"))
        rw_on_ro = "allowed (BUG)"
    except MountAuthError:
        rw_on_ro = "refused"
    result.metrics["rw_on_ro_refused"] = 1.0 if rw_on_ro == "refused" else 0.0
    result.notes = (
        f"rw mount against ro grant: {rw_on_ro}; encryption tax is the "
        "per-node software-crypto ceiling (see repro.auth.cipher)"
    )
    return result


E9 = Experiment(
    "E9", "auth", run_e9,
    quick=dict(read_bytes=MB(48)),
    gates=(
        Gate("rsa_handshake_cost",
             lambda m: m["mount_time_AUTHONLY"] > m["mount_time_EMPTY"],
             "AUTHONLY mount slower than EMPTY (RSA handshake round trips)"),
        Gate("authonly_data_path_free",
             lambda m: abs(m["read_rate_AUTHONLY"] - m["read_rate_EMPTY"])
             < 0.05 * m["read_rate_AUTHONLY"],
             "AUTHONLY read rate within 5% of EMPTY (no data-path cost)"),
        Gate("aes128_tax",
             lambda m: m["read_rate_AES128"] < 0.8 * m["read_rate_AUTHONLY"],
             "AES128 < 0.8 x AUTHONLY read rate (encryption tax)"),
        Gate("aes256_below_aes128",
             lambda m: m["read_rate_AES256"] < m["read_rate_AES128"],
             "AES256 slower than AES128 (cipher-strength order)"),
        Gate("3des_below_aes256", lambda m: m["read_rate_3DES"] < m["read_rate_AES256"],
             "3DES slower than AES256 (cipher-strength order)"),
        Gate("rw_on_ro_refused", lambda m: m["rw_on_ro_refused"] == 1.0,
             "== 1 (paper: per-filesystem ro/rw grants are enforced)"),
    ),
)
