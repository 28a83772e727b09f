#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py --json``.

    python3 bench/compare.py A.json B.json [--same-code]

One row per workload x end-to-end metric: both medians with their
quartiles, how much B is worse than A as a share of A, and a verdict —

- ``worse``       B's median is worse than A's by more than the bound;
- ``unresolved``  it is not, but the spread between a run's repeats
                  (quartile distance over median, the wider side, where
                  a run has at least four samples) exceeds the bound, so
                  "unchanged" cannot be claimed either; with
                  ``--same-code`` (both files measure one tree, as in
                  ``run.py --self-check``) a *better* median beyond the
                  bound is run-to-run spread too;
- ``ok``          otherwise.

Exit code 1 on any ``worse`` or differing ``stats_digest`` (with
``--same-code`` also on ``unresolved``).  This is a regression screen,
not a way to claim a gain: a gain needs the alternating-pairs protocol
of ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import harness


def verdict(a: dict, b: dict, spec: dict, same_code: bool) -> tuple[float, float | None, str]:
    """``(worsening, spread, verdict)`` of B against A for one metric."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    worsening = sign * (b["value"] - a["value"]) / abs(a["value"])
    spreads = [s for s in (harness.spread(a), harness.spread(b)) if s is not None]
    wide = max(spreads) if spreads else None
    if worsening > spec["bound"]:
        return worsening, wide, "worse"
    if (wide is not None and wide > spec["bound"]) or (
            same_code and -worsening > spec["bound"]):
        return worsening, wide, "unresolved"
    return worsening, wide, "ok"


def quartiles(m: dict) -> str:
    return f"[{m['q1']:.4g}, {m['q3']:.4g}]" if "q1" in m else "[-]"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.add_argument("--same-code", action="store_true",
                   help="both files measure one tree: unresolved rows fail too")
    args = p.parse_args(argv)
    a, b = (json.loads(path.read_text()) for path in (args.a, args.b))
    if not (a.get("untraced") and b.get("untraced")):
        print("compare: both files need an untraced set", file=sys.stderr)
        return 2
    bad = 0
    print(f"{'workload':<15}{'metric':<18}{'A median [q1, q3]':>34}"
          f"{'B median [q1, q3]':>34}{'worse by':>10}{'spread':>8}{'bound':>7}  verdict")
    for spec in harness.load_contract()["end_to_end"]:
        for workload, da in a["untraced"].items():
            db = b["untraced"].get(workload)
            if db is None or spec["name"] not in da["metrics"] \
                    or spec["name"] not in db["metrics"]:
                continue
            ma, mb = da["metrics"][spec["name"]], db["metrics"][spec["name"]]
            worsening, wide, word = verdict(ma, mb, spec, args.same_code)
            bad += word == "worse" or (args.same_code and word == "unresolved")
            print(f"{workload:<15}{spec['name']:<18}"
                  f"{ma['value']:>12.5g} {quartiles(ma):>21}"
                  f"{mb['value']:>12.5g} {quartiles(mb):>21}"
                  f"{worsening:>+10.1%}{'-' if wide is None else format(wide, '.1%'):>8}"
                  f"{spec['bound']:>7}  {word}")
    for workload, da in a["untraced"].items():
        db = b["untraced"].get(workload)
        if db is None:
            continue
        failed = da["failed"] + db["failed"]
        same_inputs = a["seed"] == b["seed"] and a["check"] == b["check"]
        differs = same_inputs and da["stats_digest"] != db["stats_digest"]
        bad += bool(failed) or differs
        print(f"{workload:<15}failed_share A {da['failed']}/{da['attempted']} "
              f"B {db['failed']}/{db['attempted']}   stats_digest "
              f"{'DIFFERS' if differs else 'same' if same_inputs else 'other seed'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
