"""Seeded raw inputs for the `grid24_raw` workload.

Writes the three kinds of file `titan assemble` reads: a street-map edge
list (`roads.edges`), one `# start_index=<int>` speed file per road under
`speeds/`, and `incidents.csv`. Each incident dips its road's speed for
its duration, so the speed window around the report carries signal about
the label. Verification indices are drawn slightly beyond each series'
recorded range, so a few incidents fall outside it and `assemble` skips
them, as it would on real sensor data.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

GRID_SIZE = 4  # 4x4 intersections: 24 roads, 52 line-graph edges
SERIES_MINUTES = 1500
INCIDENTS_PER_ROAD = 60
WINDOW_SLACK = 8  # minutes beyond the series ends that incidents may land
SPEED_NOISE = 1.5  # per-minute sensor noise, km/h


def grid_roads(size=GRID_SIZE):
    """(vertex_a, vertex_b, road_id) for every street of a size x size grid."""
    roads = []
    for i in range(size):
        for j in range(size - 1):
            roads.append((f"n{i}_{j}", f"n{i}_{j + 1}", f"h{i}_{j}"))
            roads.append((f"n{j}_{i}", f"n{j + 1}_{i}", f"v{j}_{i}"))
    return roads


def write_raw_inputs(out_dir, seed):
    """Write edges, speed files and incidents under `out_dir`; return their paths."""
    out = Path(out_dir)
    speeds_dir = out / "speeds"
    speeds_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    roads = grid_roads()
    edges_path = out / "roads.edges"
    edges_path.write_text("".join(f"{a} {b} {road}\n" for a, b, road in roads), encoding="utf-8")

    minutes = np.arange(SERIES_MINUTES)
    incident_lines = ["incident_id,road_id,verification_index,duration_minutes"]
    for _, _, road in roads:
        start = int(rng.integers(0, 500))
        free_flow = rng.uniform(45.0, 70.0)
        daily = 1.0 - 0.25 * np.maximum(0.0, np.sin(2.0 * np.pi * (minutes + rng.integers(0, 1440)) / 1440.0))
        speed = free_flow * daily + rng.normal(0.0, SPEED_NOISE, SERIES_MINUTES)
        verify = rng.integers(start - WINDOW_SLACK, start + SERIES_MINUTES + WINDOW_SLACK, INCIDENTS_PER_ROAD)
        severity = rng.uniform(0.0, 1.0, INCIDENTS_PER_ROAD)
        durations = 8.0 + 55.0 * severity * rng.lognormal(0.0, 0.35, INCIDENTS_PER_ROAD)
        for idx, (v, sev, dur) in enumerate(zip(verify, severity, durations)):
            # the dip starts a few minutes before the report and recovers after `dur`
            lo = max(0, v - start - int(rng.integers(2, 6)))
            hi = min(SERIES_MINUTES, v - start + int(dur))
            if lo < hi:
                speed[lo:hi] -= free_flow * (0.15 + 0.5 * sev)
            incident_lines.append(f"{road}_{idx:03d},{road},{int(v)},{dur:.1f}")
        speed = np.maximum(speed, 0.0)
        body = "".join(f"{s:.2f}\n" for s in speed)
        (speeds_dir / f"{road}.csv").write_text(f"# start_index={start}\n{body}", encoding="utf-8")

    incidents_path = out / "incidents.csv"
    incidents_path.write_text("\n".join(incident_lines) + "\n", encoding="utf-8")
    return edges_path, incidents_path, speeds_dir
