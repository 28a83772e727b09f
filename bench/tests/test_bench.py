"""The benchmark's own checks: ``python3 -m pytest bench/tests -q``.

Not part of the repository's tier-1 suite (``testpaths = ["tests"]``);
they start real ``--check`` runs, about a minute in total.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def suites(tmp_path_factory) -> dict:
    """Three untraced ``--check`` suites (seed 1 twice, seed 2 once) and
    one traced one, with what they printed."""
    tmp = tmp_path_factory.mktemp("bench")
    out = {}
    for key, extra in {
        "a": ["--seed", "1"], "b": ["--seed", "1"], "c": ["--seed", "2"],
        "t": ["--seed", "1", "--trace"],
    }.items():
        path = tmp / f"{key}.json"
        proc = run_bench("--check", "--json", str(path), *extra)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        out[key] = json.loads(path.read_text())
        out[key]["printed"] = proc.stdout
    return out


def test_contract_schema(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["bench"]
    assert contract["command"][:2] == ["python3", "bench/run.py"]
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    assert len(contract["workloads"]) == 5
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in contract[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    for w in contract["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        assert json.loads((BENCH / "workloads" / f"{w['name']}.json").read_text())["name"] \
            == w["name"]
    for m in contract["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in contract["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_check_runs_repeat_exactly(suites):
    for name, detail in suites["a"]["untraced"].items():
        assert detail["correct"] and detail["failed"] == 0
        assert detail["stats_digest"] == suites["b"]["untraced"][name]["stats_digest"]
        assert detail["stats_digest"] != suites["c"]["untraced"][name]["stats_digest"]
    digests = {n: d["stats_digest"] for n, d in suites["a"]["untraced"].items()}
    # Same grid through two run layers: the same LoadPoints.
    assert digests["campaign_grid"] == digests["fabric_http"]


def test_every_metric_is_printed_with_its_unit(suites, contract):
    for key, section, kind in (("a", "end_to_end", "untraced"), ("t", "per_layer", "traced")):
        for name, detail in suites[key][kind].items():
            for m in contract[section]:
                assert detail["metrics"][m["name"]]["unit"] == m["unit"], (name, m["name"])
                assert re.search(
                    rf"^{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}\s",
                    suites[key]["printed"], re.M), m["name"]
            if kind == "untraced":
                assert all(detail["metrics"][m["name"]]["value"] > 0
                           for m in contract[section])


def test_traced_run_attributes_each_layer(suites):
    traced = suites["t"]["traced"]
    engine = traced["past_sat_h3"]["metrics"]
    assert engine["routing.route.calls"]["value"] > engine["network.execute_grant.calls"]["value"]
    assert engine["trace.overhead_ratio"]["value"] > 1
    assert traced["fabric_http"]["metrics"]["fabric.http.round_trips_per_point"]["value"] > 0
    assert traced["campaign_grid"]["metrics"]["cli.startup_ms"]["value"] > 0
    for name in traced:
        spans = json.loads((BENCH / "out" / f"trace-{name}.json").read_text())["spans"]
        assert {"name", "start", "end", "parent", "point"} <= set(spans[0])


def test_driver_form_and_result_line(contract):
    proc = run_bench("--workload", "campaign_grid", "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--check")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in contract["end_to_end"]}
    assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())


def test_no_litter(suites):
    assert not list((BENCH / "out").glob("run-*"))
    assert not (ROOT / ".repro-store").exists()
    assert not (BENCH / ".repro-store").exists()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = run_bench("--workload", "below_sat_h3", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
