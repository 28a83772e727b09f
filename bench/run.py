#!/usr/bin/env python3
"""One benchmark for the whole stack.

    python3 bench/run.py                          # all five workloads, untraced
    python3 bench/run.py --trace                  # all five, per-layer traced run
    python3 bench/run.py --workload past_sat_h3   # one workload (the driver's form)
    python3 bench/run.py --check                  # seconds-long smoke run
    python3 bench/run.py --self-check             # two full sets, compared

With ``--workload`` this process is the harness: it measures set-up by
starting ``--setup-only`` copies of itself, then runs the workload for
``--seconds`` and prints every metric by name with unit, direction and
bound; the last line of standard output is the result as one JSON
object.  Without ``--workload`` it runs each workload in a process of
its own, one after the other, so that peak memory is per workload.
Names, units, directions and bounds come from ``BENCHMARK.json``;
``bench/README.md`` says what each metric means.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import harness

#: Set-up is timed this many times per run and the median reported.
SETUP_SAMPLES = 5


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run only this workload, in this process")
    p.add_argument("--seed", type=int, default=1,
                   help="SimulationConfig.seed / campaign config.seed (default 1)")
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload (default: run_seconds "
                        "of BENCHMARK.json)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="1: the traced run (per-layer metrics, span file); "
                        "0: end-to-end metrics with no wrapper installed")
    p.add_argument("--check", action="store_true",
                   help="smoke mode: ~200 cycles per phase, 8-point grid, one repeat")
    p.add_argument("--json", metavar="OUT", help="also write the full result here")
    p.add_argument("--self-check", action="store_true",
                   help="run two full untraced sets and compare them")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def make_workload(defn: dict, seed: int, check: bool, scratch: harness.Scratch):
    from engine_wl import EngineWorkload
    from grid_wl import CampaignGrid, FabricHttp

    kinds = {"engine": EngineWorkload, "campaign": CampaignGrid, "fabric": FabricHttp}
    return kinds[defn["kind"]](defn, seed, check, scratch)


def own_command(args: argparse.Namespace, *extra: str) -> list[str]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--seed", str(args.seed), *extra]
    return cmd + ["--check"] if args.check else cmd


# ----------------------------------------------------------------------
# One workload (this process is the harness)
# ----------------------------------------------------------------------

def setup_only(args: argparse.Namespace) -> int:
    """Everything up to the first timed repeat, then stop."""
    with harness.Scratch() as scratch:
        make_workload(harness.load_workload(args.workload), args.seed, args.check,
                      scratch).setup()
        print("READY", flush=True)
    return 0


def sample_setup(args: argparse.Namespace) -> list[float]:
    """Seconds from starting a harness process to its ``READY``:
    interpreter start, imports, workload load/expand, temp store and —
    for ``fabric_http`` — the coordinator answering its first ping."""
    samples = []
    for _ in range(1 if args.check else SETUP_SAMPLES):
        t0 = perf_counter()
        proc = subprocess.Popen(
            own_command(args, "--workload", args.workload, "--setup-only"),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise harness.BenchError("set-up did not finish")
        if line.strip() != "READY" or proc.returncode != 0:
            raise harness.BenchError("set-up failed")
        samples.append(elapsed)
    return samples


def run_workload(args: argparse.Namespace, contract: dict) -> dict:
    from spans import Tracer

    defn = harness.load_workload(args.workload)
    setups = sample_setup(args)
    workload = None
    try:
        with harness.deadline(harness.HARD_TIMEOUT_S), harness.Scratch() as scratch:
            workload = make_workload(defn, args.seed, args.check, scratch)
            workload.setup()
            if args.trace:
                tracer = Tracer()
                out = workload.trace(tracer)
                tracer.write(harness.OUT / f"trace-{args.workload}.json")
            else:
                out = workload.measure(args.seconds)
    except harness.WorkloadTimeout as exc:
        out = harness.Outcome()
        out.attempted = len(getattr(workload, "specs", [None]))
        out.fail(out.attempted, f"timeout: {exc}")
    pinned = defn["stats_digest"].get(str(args.seed))
    if pinned and not args.check and out.digest != pinned:
        out.fail(out.attempted - out.failed,
                 f"stats_digest {out.digest[:16]} differs from the pinned {pinned[:16]}")
    out.samples["setup_s"] = setups
    out.add("peak_rss_mb", harness.peak_rss_mb())

    metrics = {}
    if args.trace:
        for spec in contract["per_layer"]:
            # A layer this workload does not exercise reads 0.
            metrics[spec["name"]] = {
                "value": float(out.layer.get(spec["name"], 0.0)), "unit": spec["unit"]}
    else:
        for spec in contract["end_to_end"]:
            if spec["name"] in out.samples:
                metrics[spec["name"]] = {
                    **harness.summarize(out.samples[spec["name"]]), "unit": spec["unit"]}
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "check": args.check, "correct": out.failed == 0 and out.attempted > 0,
        "attempted": max(1, out.attempted), "failed": out.failed,
        "problems": out.problems, "stats_digest": out.digest, "metrics": metrics,
    }


def print_detail(detail: dict, contract: dict) -> None:
    specs = {m["name"]: m for m in contract["end_to_end"] + contract["per_layer"]}
    kind = "traced" if detail["trace"] else "untraced"
    print(f"== {detail['workload']} (seed {detail['seed']}, {kind}"
          f"{', check' if detail['check'] else ''})")
    print(f"{'metric':<42}{'median':>14}  {'unit':<8}{'better':<8}{'bound':<7}"
          f"{'min':>12}{'q1':>12}{'q3':>12}{'n':>4}")
    for name, m in detail["metrics"].items():
        spec = specs[name]
        extra = "".join(
            f"{m[key]:>12.6g}" if key in m else f"{'-':>12}" for key in ("min", "q1", "q3"))
        print(f"{name:<42}{m['value']:>14.6g}  {spec['unit']:<8}{spec['better']:<8}"
              f"{spec.get('bound', '-')!s:<7}{extra}{m.get('n', 1):>4}")
    print(f"failed_share  {detail['failed']}/{detail['attempted']} points"
          f"   stats_digest  {detail['stats_digest']}")
    for problem in detail["problems"]:
        print(f"PROBLEM  {problem}")


def result_line(detail: dict) -> str:
    return json.dumps({
        "correct": detail["correct"], "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in detail["metrics"].items()},
    })


# ----------------------------------------------------------------------
# The whole suite (one harness process per workload)
# ----------------------------------------------------------------------

def run_suite(args: argparse.Namespace, contract: dict) -> dict:
    kind = "traced" if args.trace else "untraced"
    details = {}
    harness.OUT.mkdir(parents=True, exist_ok=True)
    for w in contract["workloads"]:
        part = harness.OUT / f"suite-{w['name']}.json"
        cmd = own_command(
            args, "--workload", w["name"], "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--json", str(part),
        )
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=harness.HARD_TIMEOUT_S + 30)
        except subprocess.TimeoutExpired:
            raise harness.BenchError(f"workload {w['name']} hung") from None
        # The child's last line is the machine form of what it printed above.
        print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
        if not part.is_file():
            raise harness.BenchError(f"workload {w['name']} produced no result")
        details[w["name"]] = json.loads(part.read_text())
        part.unlink()
    return {
        "claim": None, "machine": harness.machine_stanza(), "seed": args.seed,
        "seconds": args.seconds, "check": args.check,
        "untraced": None, "traced": None, kind: details,
    }


def write_suite(path: Path, suite: dict) -> None:
    """Write ``suite``; a file that already holds the other kind of set
    for the same seed and mode keeps it, so two commands fill both."""
    if path.is_file():
        old = json.loads(path.read_text())
        if all(old.get(k) == suite[k] for k in ("seed", "check")):
            for kind in ("untraced", "traced"):
                if suite[kind] is None:
                    suite[kind] = old.get(kind)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(suite, indent=1) + "\n")


def suite_ok(suite: dict) -> bool:
    sets = [s for s in (suite["untraced"], suite["traced"]) if s]
    return all(d["correct"] for s in sets for d in s.values())


def self_check(args: argparse.Namespace, contract: dict) -> int:
    import compare

    paths = []
    for label in "AB":
        print(f"#### set {label}", flush=True)
        suite = run_suite(args, contract)
        if not suite_ok(suite):
            print(f"set {label} failed its correctness gate")
            return 1
        paths.append(harness.OUT / f"self-check-{label}.json")
        write_suite(paths[-1], suite)
    return compare.main([str(p) for p in paths] + ["--same-code"])


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness.require_program()
        contract = harness.load_contract()
        if args.seconds is None:
            args.seconds = float(contract["run_seconds"])
        if args.setup_only:
            return setup_only(args)
        if args.self_check:
            args.trace = 0
            return self_check(args, contract)
        if args.workload is None:
            suite = run_suite(args, contract)
            if args.json:
                write_suite(Path(args.json), suite)
            return 0 if suite_ok(suite) else 1
        detail = run_workload(args, contract)
    except harness.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.json:
        Path(args.json).write_text(json.dumps(detail, indent=1) + "\n")
    print_detail(detail, contract)
    print(result_line(detail))
    return 0 if detail["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
