"""Smoke tests: every experiment harness runs (scaled down) and produces a
well-formed result whose qualitative shape holds.

Full-size runs and their paper gates are ``python -m repro report``
(each experiment's declared ``Gate``s); these keep the harness code under
unit-test coverage at a few seconds each.
"""


from repro.experiments.ablations import run_a1_blocksize, run_a2_server_scaling, run_a3_window
from repro.experiments.e5_anl_remote import run_e5_anl
from repro.experiments.e6_deisa import run_e6_deisa
from repro.experiments.e7_staging_vs_gfs import run_e7
from repro.experiments.e8_latency import run_e8
from repro.experiments.e9_auth import run_e9
from repro.experiments.e10_hsm import run_e10
from repro.experiments.fig2_sc02 import run_fig2
from repro.experiments.fig5_sc03 import run_fig5
from repro.experiments.fig8_sc04 import run_fig8
from repro.experiments.fig11_scaling import run_fig11
from repro.experiments.harness import format_result
from repro.util.units import GB, KiB, MB, MiB


def well_formed(result):
    text = format_result(result)
    assert result.exp_id and result.title and result.paper_claim
    assert result.table is not None
    assert text


def test_fig2_smoke():
    result = run_fig2(total_bytes=GB(3))
    well_formed(result)
    assert result.metric("mean_rate") > MB(600)


def test_fig5_smoke():
    result = run_fig5(
        nsd_servers=12, sdsc_viz_nodes=6, ncsa_viz_nodes=2,
        per_node_bytes=MB(400), restart_after=2.0, restart_pause=1.5,
    )
    well_formed(result)
    assert result.metric("peak_rate") > 0
    assert result.metric("dip_rate") < result.metric("peak_rate")


def test_fig8_smoke():
    result = run_fig8(
        nsd_servers=12, clients_per_site=6, per_client_phase_bytes=MB(48),
        phases=2,
    )
    well_formed(result)
    assert len(result.series) == 4  # 3 lanes + aggregate
    assert result.metric("aggregate_mean") > 0


def test_fig11_smoke():
    result = run_fig11(
        node_counts=(1, 4), region_bytes=MiB(16), transfer_bytes=MiB(1),
        nsd_servers=16, ds4100_count=8,
    )
    well_formed(result)
    assert result.metric("max_read") > result.metric("max_write")


def test_e5_smoke():
    result = run_e5_anl(anl_nodes=4, per_node_bytes=MB(32))
    well_formed(result)
    assert result.metric("per_node_rate") > 0


def test_e6_smoke():
    result = run_e6_deisa(per_pair_bytes=MB(80),
                          pairs=(("cineca", "fzj"), ("rzg", "idris")))
    well_formed(result)
    assert result.metric("min_read") > MB(90)


def test_e7_smoke():
    result = run_e7(dataset_bytes=GB(1), output_bytes=MB(64),
                    compute_seconds=10.0, fractions=(0.1, 1.0),
                    ncsa_clients=2)
    well_formed(result)
    assert result.metric("gfs_moved_0.1") < result.metric("staged_moved_0.1")


def test_e8_smoke():
    result = run_e8(rtts=(0.002, 0.080), stream_counts=(1, 16),
                    nbytes=GB(0.5))
    well_formed(result)
    assert result.metric("rate_rtt80_s16") > result.metric("rate_rtt80_s1")


def test_e9_smoke():
    result = run_e9(read_bytes=MB(24))
    well_formed(result)
    assert result.metric("read_rate_3DES") < result.metric("read_rate_AUTHONLY")
    assert result.metric("rw_on_ro_refused") == 1.0


def test_e10_smoke():
    result = run_e10(files=8, file_bytes=int(MB(16)), blocks_per_nsd=48)
    well_formed(result)
    assert result.metric("migrated_files") > 0


def test_e11_smoke():
    from repro.experiments.e11_bgl import run_e11_bgl
    from repro.util.units import Gbps

    result = run_e11_bgl(io_nodes=4, per_io_node_bytes=MB(32),
                         server_nics=(Gbps(1),), nsd_servers=16)
    well_formed(result)
    assert result.metric("read_rate_1gbe") > 0


def test_a4_smoke():
    from repro.experiments.ablations import run_a4_upgrade_path

    result = run_a4_upgrade_path(clients=8, nsd_servers=3, region_bytes=MiB(8))
    well_formed(result)
    assert result.metric("upgrade_gain") > 1.0


def test_a5_smoke():
    from repro.experiments.ablations import run_a5_degraded

    result = run_a5_degraded(read_bytes=MB(100))
    well_formed(result)
    assert result.metric("lun_rate_degraded") < result.metric("lun_rate_healthy")
    assert result.metric("failovers") > 0


def test_e12_smoke():
    from repro.experiments.e12_scec import run_e12_scec

    result = run_e12_scec(ranks=4, scaled_bytes=MB(64), nsd_servers=16,
                          ds4100_count=8)
    well_formed(result)
    assert result.metric("write_rate") > 0
    assert result.metric("drain_days") > 0


def test_a6_smoke():
    from repro.experiments.ablations import run_a6_loss

    result = run_a6_loss(losses=(0.0, 1e-4))
    well_formed(result)
    assert result.metric("single_1em04") < result.metric("single_0")


def test_a1_smoke():
    result = run_a1_blocksize(block_sizes=(KiB(256), MiB(1)), read_bytes=MB(48))
    well_formed(result)
    assert result.metric("rate_bs1024k") > result.metric("rate_bs256k")


def test_a2_smoke():
    result = run_a2_server_scaling(server_counts=(4, 8), clients=8,
                                   region_bytes=MiB(16))
    well_formed(result)
    assert result.metric("rate_8srv") > result.metric("rate_4srv")


def test_a3_smoke():
    result = run_a3_window(windows=(KiB(64), MiB(4)))
    well_formed(result)
    assert result.metric("single_4096k") > result.metric("single_64k")
