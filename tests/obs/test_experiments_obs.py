"""Experiment-level telemetry: golden invariance, determinism, SLO stability.

The expensive guarantees from the issue land here:

* enabling the registry must NOT change any experiment's golden metrics
  (telemetry reads state; it never perturbs the event schedule);
* two same-seed runs export bit-identical .prom/.jsonl/.meta.json;
* the SLO tracker's output schema is stable across seeds (values may
  differ; keys and objective names may not).
"""

import json
from contextlib import contextmanager
from pathlib import Path

from repro.obs import OBS, canonical_key, export_metrics_dir, parse_key
from repro.obs import validate_metrics_dir

GOLDEN_PATH = (
    Path(__file__).resolve().parents[1]
    / "integration" / "golden" / "golden_metrics.json"
)


@contextmanager
def obs_enabled():
    OBS.reset()
    OBS.enable()
    try:
        yield OBS
    finally:
        OBS.disable()
        OBS.reset()


def golden_metrics(key: str) -> dict:
    return json.loads(GOLDEN_PATH.read_text())[key]["metrics"]


def assert_metrics_match_golden(result, key: str) -> None:
    got = {k: repr(v) for k, v in result.metrics.items()}
    want = golden_metrics(key)
    assert got == want, f"{key} metrics drifted with telemetry enabled"


def assert_every_key_names_a_universe() -> None:
    for table in OBS.read().values():
        for key in table:
            assert "sim" in parse_key(key)[1], f"{key} names no universe"


class TestGoldenInvarianceWithTelemetry:
    """OBS on → same goldens. Pins the 'observation changes nothing' claim."""

    def test_e8(self):
        from repro.experiments.e8_latency import run_e8
        from repro.util.units import GB

        with obs_enabled():
            result = run_e8(nbytes=GB(1))
            assert_every_key_names_a_universe()
        assert_metrics_match_golden(result, "E8")

    def test_e3(self):
        from repro.experiments.fig8_sc04 import run_fig8
        from repro.util.units import MB

        with obs_enabled():
            result = run_fig8(
                nsd_servers=21,
                clients_per_site=12,
                per_client_phase_bytes=MB(96),
                phases=2,
            )
            assert_every_key_names_a_universe()
        assert_metrics_match_golden(result, "E3")

    def test_e13(self):
        from repro.experiments.e13_chaos import E13

        with obs_enabled():
            result = E13.run(quick=True)
            assert_every_key_names_a_universe()
        assert_metrics_match_golden(result, "E13")
        assert result.obs is not None  # telemetry rides outside metrics

    def test_e14(self):
        from repro.experiments.e14_integrity import E14

        with obs_enabled():
            result = E14.run(quick=True)
            assert_every_key_names_a_universe()
        assert_metrics_match_golden(result, "E14")
        assert result.obs is not None


def run_e13_exported(tmp_path, name, seed=0):
    from repro.experiments.e13_chaos import E13

    out = tmp_path / name
    with obs_enabled():
        result = E13.run(quick=True, seed=seed)
        paths = export_metrics_dir(
            OBS, str(out), "E13", meta=result.obs or {}
        )
    return result, paths


class TestTwoUniverses:
    """A sweep that builds one scenario per point (Fig 11's node counts)
    reuses filesystem and client names; the ``sim`` label keeps their
    per-object metrics apart."""

    @staticmethod
    def _two_universes(out_dir):
        from tests.core.testbed import mounted, run_io, small_gfs

        for _ in range(2):
            g, cluster, fs, _clients = small_gfs(nsd_servers=2)
            writer, reader = (mounted(g, cluster, node=n) for n in ("c0", "c1"))

            def io():
                h = yield writer.open("/f", "w", create=True)
                yield writer.write(h, b"x" * fs.block_size)
                yield writer.close(h)
                h = yield reader.open("/f", "r")
                yield reader.pread(h, 0, fs.block_size)
                yield reader.close(h)

            run_io(g, io())
            OBS.scrape(g.sim)
        return export_metrics_dir(OBS, str(out_dir), "sweep")

    def test_same_names_register_per_universe(self, tmp_path):
        with obs_enabled():
            self._two_universes(tmp_path / "a")
            last = OBS.rows[-1]
        for sim in ("1", "2"):
            assert f"nsd.blocks_written{{fs=gpfs0,sim={sim}}}" in last["counters"]
            assert f"tokens.grants{{fs=gpfs0,sim={sim}}}" in last["counters"]
            assert (
                f"client.pagepool.hits{{client=c1,fs=gpfs0,m=2,sim={sim}}}"
                in last["counters"]
            )

    def test_inline_families_register_per_universe(self, tmp_path):
        # The families a call site records (RPCs, server bytes, client
        # reads) carry `sim` like the wired ones: equal node names in two
        # universes give a key per universe, never one blended key.
        with obs_enabled():
            self._two_universes(tmp_path / "a")
            last = OBS.rows[-1]

        def keys_by_universe(family):
            out = {}
            for table in ("counters", "histograms"):
                for key in last[table]:
                    name, labels = parse_key(key)
                    if name == family:
                        sim = labels.pop("sim")
                        out.setdefault(sim, set()).add(canonical_key(name, labels))
            return out

        for family in (
            "client.read.ok", "client.read.latency", "nsd.rpc.total",
            "nsd.rpc.latency", "nsd.server.bytes",
        ):
            keys = keys_by_universe(family)
            assert sorted(keys) == ["1", "2"], family
            assert keys["1"] == keys["2"], family
        for sim in ("1", "2"):
            assert last["counters"][f"client.read.ok{{client=c1,sim={sim}}}"] == 1.0
            assert last["counters"][f"nsd.rpc.total{{op=read,sim={sim}}}"] >= 1.0

    def test_same_seed_exports_bit_identical(self, tmp_path):
        exports = []
        for run in ("a", "b"):
            with obs_enabled():
                paths = self._two_universes(tmp_path / run)
            exports.append({k: Path(p).read_bytes() for k, p in paths.items()})
        assert exports[0] == exports[1]
        validate_metrics_dir(str(tmp_path / "a"))


class TestUniverseIds:
    def test_trace_pid_is_export_sim(self):
        # As in A5: a storage-only universe is traced, and never
        # registered, before the full-stack universe is built. A universe
        # is numbered at construction, so its trace pid and its export's
        # `sim` agree whether or not tracing is on.
        from repro.sim import Simulation
        from repro.sim.trace import TRACE
        from tests.core.testbed import mounted, run_io, small_gfs

        with obs_enabled():
            TRACE.enable()
            try:
                lun = Simulation()
                TRACE.instant(lun, "lun.only")
                g, cluster, fs, _ = small_gfs(nsd_servers=2)
                m = mounted(g, cluster, node="c0")

                def io():
                    h = yield m.open("/f", "w", create=True)
                    yield m.write(h, b"x" * fs.block_size)
                    yield m.close(h)

                run_io(g, io())
                row = OBS.scrape(g.sim)
                events = [
                    e for e in TRACE.to_chrome()["traceEvents"] if e["ph"] != "M"
                ]
            finally:
                TRACE.disable()
                TRACE.reset()
        assert (lun.id, g.sim.id) == (1, 2)
        assert row["sim"] == g.sim.id
        assert {e["pid"] for e in events if e["name"] == "lun.only"} == {lun.id}
        assert {e["pid"] for e in events if e["name"] != "lun.only"} == {g.sim.id}
        assert f"kernel.events{{sim={g.sim.id}}}" in row["counters"]
        assert f"nsd.rpc.total{{op=write,sim={g.sim.id}}}" in row["counters"]


class TestE13Telemetry:
    def test_same_seed_exports_bit_identical(self, tmp_path):
        _, a = run_e13_exported(tmp_path, "a")
        _, b = run_e13_exported(tmp_path, "b")
        for kind in ("prom", "jsonl", "meta"):
            assert (
                Path(a[kind]).read_bytes() == Path(b[kind]).read_bytes()
            ), f"{kind} artifact differs between same-seed runs"
        validate_metrics_dir(str(tmp_path / "a"))

    def test_phases_and_slo_in_meta(self, tmp_path):
        result, paths = run_e13_exported(tmp_path, "m")
        meta = json.loads(Path(paths["meta"]).read_text())
        assert [p["name"] for p in meta["phases"]] == [
            "nominal", "degraded", "failed-over", "recovered",
        ]
        names = [s["name"] for s in meta["slo"]]
        assert names == ["wan_read_latency", "zero_failed_reads"]
        for slo in meta["slo"]:
            assert not slo["breached"], f"{slo['name']} breached in E13 quick"
        # zero-budget objective must be JSON-safe (None, never inf).
        zero = meta["slo"][1]
        assert zero["target"] == 1.0
        assert zero["burn_rate"] is None

    def test_health_report_renders_phases(self, tmp_path):
        from repro.obs.health import render_report

        run_e13_exported(tmp_path, "h")
        text = render_report(str(tmp_path / "h"))
        for needle in (
            "wan_read_latency", "zero_failed_reads",
            "nominal", "degraded", "failed-over", "recovered",
            "read p50", "read p99", "availability",
        ):
            assert needle in text

    def test_slo_schema_stable_across_seeds(self, tmp_path):
        r0, _ = run_e13_exported(tmp_path, "s0", seed=0)
        r1, _ = run_e13_exported(tmp_path, "s1", seed=7)
        slo0, slo1 = r0.obs["slo"], r1.obs["slo"]
        assert [s["name"] for s in slo0] == [s["name"] for s in slo1]
        for a, b in zip(slo0, slo1):
            assert sorted(a) == sorted(b), "SLO result keys differ by seed"

    def test_slo_values_deterministic_per_seed(self, tmp_path):
        r0, _ = run_e13_exported(tmp_path, "d0", seed=7)
        r1, _ = run_e13_exported(tmp_path, "d1", seed=7)
        assert json.dumps(r0.obs, sort_keys=True) == json.dumps(
            r1.obs, sort_keys=True
        )


class TestE8Telemetry:
    def test_per_cell_scrapes_validate(self, tmp_path):
        from repro.experiments.e8_latency import run_e8
        from repro.util.units import MB

        with obs_enabled():
            run_e8(nbytes=MB(64))
            # One scrape per sweep cell, each from its own simulation.
            sims = {row["sim"] for row in OBS.rows}
            assert len(sims) == len(OBS.rows) == 16
            cells = {
                key for row in OBS.rows for key in row["gauges"]
                if key.startswith("e8.cell.rate")
            }
            assert len(cells) == 16
            paths = export_metrics_dir(OBS, str(tmp_path), "E8")
        validate_metrics_dir(str(tmp_path))
        assert json.loads(
            Path(paths["meta"]).read_text()
        )["exp_id"] == "E8"


class TestE14Telemetry:
    def test_phases_and_zero_failed_reads_slo(self):
        from repro.experiments.e14_integrity import E14

        with obs_enabled():
            result = E14.run(quick=True)
        assert [p["name"] for p in result.obs["phases"]] == [
            "nominal", "partitioned", "recovered",
        ]
        [slo] = result.obs["slo"]
        assert slo["name"] == "zero_failed_reads"
        assert not slo["breached"]
        assert slo["events"] > 0
