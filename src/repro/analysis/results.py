"""Result containers and emission helpers for campaigns and studies.

Experiments produce :class:`Series` (one named curve of
:class:`~repro.engine.metrics.LoadPoint`) and :class:`Table` (rows of
flat dicts).  Both render to aligned text (for the bench output the
paper figures are compared against) and CSV.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from repro.engine.metrics import LoadPoint


@dataclass
class Series:
    """One named latency/throughput-vs-load curve."""

    name: str
    points: list[LoadPoint] = field(default_factory=list)

    def add(self, point: LoadPoint) -> None:
        self.points.append(point)

    def saturation_throughput(self) -> float:
        """Maximum accepted throughput over the sweep."""
        if not self.points:
            raise ValueError(f"series {self.name!r} is empty")
        return max(p.throughput for p in self.points)

    def latency_at(self, load: float) -> float:
        """Average latency at the sweep point closest to ``load``."""
        if not self.points:
            raise ValueError(f"series {self.name!r} is empty")
        best = min(self.points, key=lambda p: abs(p.offered_load - load))
        return best.avg_latency

    def saturation_load(self, latency_factor: float = 3.0) -> float:
        """Offered load at which latency exceeds ``latency_factor`` times
        the lowest-load latency (a simple saturation-point estimator)."""
        if not self.points:
            raise ValueError(f"series {self.name!r} is empty")
        base = self.points[0].avg_latency
        for p in self.points:
            if p.avg_latency > latency_factor * base:
                return p.offered_load
        return self.points[-1].offered_load

    # ------------------------------------------------------------------
    # Lossless JSON round-trip (result store, provenance files)
    # ------------------------------------------------------------------
    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "points": [p.to_jsonable() for p in self.points],
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "Series":
        if not isinstance(data, dict) or set(data) != {"name", "points"}:
            raise ValueError("Series JSON must be {name, points}")
        return cls(
            name=data["name"],
            points=[LoadPoint.from_jsonable(p) for p in data["points"]],
        )

    def to_json(self) -> str:
        """NaN-safe JSON (NaN averages of empty windows become null)."""
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Series":
        return cls.from_jsonable(json.loads(text))


@dataclass
class Table:
    """Rows of flat dicts with aligned-text and CSV rendering."""

    title: str
    rows: list[dict] = field(default_factory=list)

    def add(self, **row) -> None:
        self.rows.append(row)

    def add_row(self, row: dict) -> None:
        self.rows.append(row)

    @property
    def columns(self) -> list[str]:
        cols: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def to_text(self) -> str:
        """Aligned plain-text rendering (what benches print)."""
        cols = self.columns
        if not cols:
            return f"== {self.title} ==\n(empty)\n"
        cells = [[str(r.get(c, "")) for c in cols] for r in self.rows]
        widths = [
            max(len(c), *(len(row[i]) for row in cells)) if cells else len(c)
            for i, c in enumerate(cols)
        ]
        out = [f"== {self.title} =="]
        out.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        for row in cells:
            out.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(out) + "\n"

    def to_csv(self) -> str:
        cols = self.columns
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=cols)
        writer.writeheader()
        for row in self.rows:
            writer.writerow({c: row.get(c, "") for c in cols})
        return buf.getvalue()

    def save_csv(self, path: str) -> None:
        with open(path, "w", newline="") as f:
            f.write(self.to_csv())


def series_table(title: str, series: list[Series]) -> Table:
    """Tabulate several curves side by side (throughput + latency)."""
    table = Table(title)
    if not series:
        return table
    loads = [p.offered_load for p in series[0].points]
    for i, load in enumerate(loads):
        row: dict = {"load": round(load, 4)}
        for s in series:
            if i < len(s.points):
                row[f"{s.name}_thr"] = round(s.points[i].throughput, 4)
                row[f"{s.name}_lat"] = round(s.points[i].avg_latency, 1)
        table.add_row(row)
    return table
