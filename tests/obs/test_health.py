"""Tests for the fleet health report (`python -m repro health`)."""

from repro.obs.export import export_metrics_dir
from repro.obs.health import (
    cache_rollup,
    client_rollup,
    control_plane_rollup,
    link_rollup,
    main,
    pagepool_rollup,
    render_html,
    render_report,
    server_rollup,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import AvailabilityObjective, SloTracker, universe_rows
from repro.sim.kernel import Simulation


def fleet_registry() -> MetricsRegistry:
    """A registry shaped like an instrumented experiment run."""
    reg = MetricsRegistry()
    sim = Simulation()
    for t in (0.0, 1.0, 2.0):
        sim._now = t
        for client in ("anl-n000", "anl-n001"):
            reg.observe(sim, "client.read.latency", 0.01 + t / 10, client=client)
            reg.inc(sim, "client.read.ok", client=client)
        reg.inc(sim, "nsd.server.bytes", 1e6, server="nsd00", dir="out")
        reg.inc(sim, "nsd.server.bytes", 5e5, server="nsd00", dir="in")
        reg.set_gauge(sim, "net.link.utilization", 0.25 * (t + 1), link="a->b")
        reg.scrape(sim)
    return reg


def export_fleet(tmp_path, exp_id="E13") -> str:
    reg = fleet_registry()
    slo = SloTracker().add(AvailabilityObjective(
        name="zero_failed_reads", ok_metric="client.read.ok",
        err_metric="client.read.errors", target=1.0, window=1.0,
    )).evaluate(reg.rows)
    phases = [
        {"name": "nominal", "t0": 0.0, "t1": 1.0},
        {"name": "recovered", "t0": 1.0, "t1": 2.0},
    ]
    export_metrics_dir(
        reg, str(tmp_path), exp_id,
        meta={"sim": reg.rows[0]["sim"], "phases": phases, "slo": slo},
    )
    return str(tmp_path)


class TestRollups:
    def test_client_rollup(self):
        rows = fleet_registry().rows
        clients = client_rollup(rows)
        assert [c["client"] for c in clients] == ["anl-n000", "anl-n001"]
        assert all(c["reads"] == 3 for c in clients)
        assert all(c["p50"] <= c["p99"] <= c["max"] for c in clients)

    def test_server_rollup(self):
        [server] = server_rollup(fleet_registry().rows)
        assert server["server"] == "nsd00"
        assert server["bytes_out"] == 3e6
        assert server["bytes_in"] == 1.5e6

    def test_link_rollup_spans_all_scrapes(self):
        [link] = link_rollup(fleet_registry().rows)
        assert link["link"] == "a->b"
        assert link["samples"] == 3
        assert link["peak"] == 0.75
        assert link["mean"] == 0.5

    def test_control_plane_rows_per_universe(self):
        reg = MetricsRegistry()
        one, two = Simulation(), Simulation()
        reg.inc(one, "tokens.manager_down", fs="gpfs0")
        reg.inc(two, "tokens.manager_down", 0, fs="gpfs0")
        reg.observe(one, "faults.detection_latency", 1.0)
        reg.observe(two, "faults.detection_latency", 0.5)
        rows = control_plane_rollup([reg.scrape(two)])
        assert [(r["signal"], r["sim"], r["mean"]) for r in rows] == [
            ("manager outages", str(one.id), None),
            ("crash detection latency", str(one.id), 1.0),
            ("crash detection latency", str(two.id), 0.5),
        ]

    def test_shared_names_roll_up_per_universe(self):
        # Fig 11's sweep builds one scenario per node count with the same
        # client, server, gateway and link names: one row per universe.
        reg = MetricsRegistry()
        sims = [Simulation(), Simulation()]
        for n, sim in enumerate(sims, 1):
            reg.observe(sim, "client.read.latency", 0.01 * n, client="c0")
            reg.inc(sim, "nsd.server.bytes", 1e6 * n, server="nsd00", dir="out")
            reg.inc(sim, "client.pagepool.hits", n, client="c0", fs="gpfs0", m="1")
            reg.inc(sim, "cache.hits", n, gw="gw0", fs="gpfs0")
            reg.set_gauge(sim, "net.link.utilization", 0.25 * n, link="a->b")
        rows = [reg.scrape(sims[1])]
        one, two = (str(sim.id) for sim in sims)
        assert [(c["sim"], c["client"], c["max"]) for c in client_rollup(rows)] == [
            (one, "c0", 0.01), (two, "c0", 0.02),
        ]
        assert [(s["sim"], s["server"], s["bytes_out"])
                for s in server_rollup(rows)] == [
            (one, "nsd00", 1e6), (two, "nsd00", 2e6),
        ]
        assert [(p["sim"], p["client"], p["hits"])
                for p in pagepool_rollup(rows)] == [
            (one, "c0", 1.0), (two, "c0", 2.0),
        ]
        assert [(g["sim"], g["gw"], g["hits"]) for g in cache_rollup(rows)] == [
            (one, "gw0", 1.0), (two, "gw0", 2.0),
        ]
        assert [(k["sim"], k["link"], k["peak"]) for k in link_rollup(rows)] == [
            (one, "a->b", 0.25), (two, "a->b", 0.5),
        ]

    def test_empty_rows(self):
        assert client_rollup([]) == []
        assert server_rollup([]) == []
        assert link_rollup([]) == []


class TestReport:
    def test_text_report_sections(self, tmp_path):
        d = export_fleet(tmp_path)
        text = render_report(d)
        for needle in (
            "== E13 ==", "SLOs:", "zero_failed_reads",
            "Phases (client reads):", "nominal", "recovered",
            "Clients:", "anl-n000", "NSD servers:", "nsd00",
            "Links:", "a->b",
        ):
            assert needle in text

    def test_report_is_deterministic(self, tmp_path):
        d = export_fleet(tmp_path)
        assert render_report(d) == render_report(d)

    def test_html_report(self, tmp_path):
        d = export_fleet(tmp_path)
        html = render_html(d)
        assert html.startswith("<!doctype html>")
        assert "zero_failed_reads" in html

    def test_phases_and_slos_read_only_the_declaring_universe(self, tmp_path):
        # E15's shape: sweep universes scrape first, then the universe the
        # phases are declared on. Its clock restarts at 0, and every row
        # holds every universe's keys.
        reg = MetricsRegistry()
        sweep, chaos = Simulation(), Simulation()
        for sim, reads in ((sweep, 100), (chaos, 3)):
            for t in (0.0, 1.0, 2.0):
                sim._now = t
                for _ in range(reads if t else 0):
                    reg.observe(sim, "client.read.latency", 0.01, client="c0")
                    reg.inc(sim, "client.read.ok", client="c0")
                reg.scrape(sim)
        [slo] = SloTracker().add(AvailabilityObjective(
            name="zero_failed_reads", ok_metric="client.read.ok",
            err_metric="client.read.errors", target=1.0, window=1.0,
        )).evaluate(universe_rows(reg.rows, chaos.id))
        assert slo["events"] == 6
        phases = [
            {"name": "nominal", "t0": 0.0, "t1": 1.0},
            {"name": "healed", "t0": 1.0, "t1": 2.0},
        ]
        export_metrics_dir(
            reg, str(tmp_path), "E15",
            meta={"sim": chaos.id, "phases": phases, "slo": [slo]},
        )
        text = render_report(str(tmp_path))
        table = text[text.index("Phases (client reads):"):].splitlines()
        assert [line.split()[:3] for line in table[3:5]] == [
            ["nominal", "0.00-1.00s", "3"], ["healed", "1.00-2.00s", "3"],
        ]

    def test_missing_dir_message(self, tmp_path):
        assert "no metrics found" in render_report(str(tmp_path))


class TestMain:
    def test_prints_report(self, tmp_path, capsys):
        d = export_fleet(tmp_path)
        assert main(["--metrics-dir", d]) == 0
        out = capsys.readouterr().out
        assert "repro fleet health" in out
        assert "E13" in out

    def test_out_and_html_files(self, tmp_path):
        d = export_fleet(tmp_path / "metrics")
        out = tmp_path / "health.txt"
        page = tmp_path / "health.html"
        rc = main([
            "--metrics-dir", d, "--out", str(out), "--html", str(page),
        ])
        assert rc == 0
        assert "SLOs:" in out.read_text()
        assert "<pre>" in page.read_text()

    def test_exp_filter(self, tmp_path, capsys):
        d = export_fleet(tmp_path)
        export_fleet(tmp_path, exp_id="E14")
        assert main(["--metrics-dir", d, "--exp", "E14"]) == 0
        out = capsys.readouterr().out
        assert "== E14 ==" in out
        assert "== E13 ==" not in out
