"""Tests for the fleet health report (`python -m repro health`)."""

from repro.obs.export import export_metrics_dir
from repro.obs.health import (
    client_rollup,
    control_plane_rollup,
    link_rollup,
    main,
    render_html,
    render_report,
    server_rollup,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import AvailabilityObjective, SloTracker
from repro.sim.kernel import Simulation


def fleet_registry() -> MetricsRegistry:
    """A registry shaped like an instrumented experiment run."""
    reg = MetricsRegistry()
    sim = Simulation()
    for t in (0.0, 1.0, 2.0):
        sim._now = t
        for client in ("anl-n000", "anl-n001"):
            reg.observe("client.read.latency", 0.01 + t / 10, client=client)
            reg.inc("client.read.ok", client=client)
        reg.inc("nsd.server.bytes", 1e6, server="nsd00", dir="out")
        reg.inc("nsd.server.bytes", 5e5, server="nsd00", dir="in")
        reg.set_gauge(
            "net.link.utilization", 0.25 * (t + 1), t, link="a->b", sim="1"
        )
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
        reg, str(tmp_path), exp_id, meta={"phases": phases, "slo": slo}
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
        reg.inc("tokens.manager_down", node="nsd00")
        reg.observe("faults.detection_latency", 1.0, sim="1")
        reg.observe("faults.detection_latency", 0.5, sim="2")
        rows = control_plane_rollup([reg.scrape(Simulation())])
        assert [(r["signal"], r["sim"], r["mean"]) for r in rows] == [
            ("manager outages", "-", None),
            ("crash detection latency", "1", 1.0),
            ("crash detection latency", "2", 0.5),
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
