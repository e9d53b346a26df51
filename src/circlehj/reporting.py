"""Deterministic CSV / report / plot-script writers.

All floats are written with 17 significant digits, newline-terminated
lines, '.' decimal point; nothing in a data file depends on the clock,
so identical configurations produce bit-identical artifacts.
"""

from __future__ import annotations

import json
import os


def fmt(v) -> str:
    if hasattr(v, "item") and not isinstance(v, (str, bytes)):
        v = v.item()  # numpy scalar -> Python scalar
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")
    return path


def write_flat_json(path, mapping):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(mapping, fh, indent=2, sort_keys=True, default=fmt)
        fh.write("\n")
    return path


def orbit_rows(orbit):
    return [
        (x, t, p, u, b, f)
        for x, t, p, u, b, f in zip(orbit.x_nodes, orbit.t_of_x, orbit.p_of_x,
                                    orbit.u_of_x, orbit.speed, orbit.phase)
    ]


def field_rows(field):
    return list(zip(field.grid.nodes.tolist(), field.values.tolist()))


def time_rows(times, fields):
    """Rows (t, x, value) of fields sampled at the matching times."""
    rows = []
    for t, snap in zip(times, fields):
        for x, v in zip(snap.grid.nodes.tolist(), snap.values.tolist()):
            rows.append((float(t), x, v))
    return rows


_GNUPLOT_HEADER = """# gnuplot script generated alongside the CSV artifacts.
# Run manually: gnuplot -p {name}
set datafile separator ","
set key outside
set grid
"""


def emit_plot_script(out_dir, command, csv_files, extra=None):
    """Write a self-contained gnuplot script referencing CSVs by relative path.

    The script is never executed; it only documents how to look at the run.
    """
    name = "plot.gp"
    path = os.path.join(out_dir, name)
    lines = [_GNUPLOT_HEADER.format(name=name)]
    if command == "periodic" and "periodic.csv" in csv_files:
        # at most 8 of the slice times, evenly spaced, endpoint left out
        times = (extra or [])[:-1]
        times = times[::max(1, len(times) // 8)][:8]
        lines.append('set xlabel "x"\nset ylabel "value"\n')
        parts = [
            f"'periodic.csv' using (abs($1-{fmt(t)})<1e-9?$2:1/0):3 "
            f"with lines title 't={fmt(t)}'"
            for t in times
        ]
        lines.append("plot " + ", \\\n     ".join(parts) + "\n")
    elif command == "bifurcate" and "bifurcation.csv" in csv_files:
        lines.append('set xlabel "lambda"\nset ylabel "amplitude"\n')
        lines.append("plot 'bifurcation.csv' skip 1 using 1:3 "
                     "with points pt 7 title 'amplitude'\n")
    elif command == "evolve" and "trace_supnorm.csv" in csv_files:
        lines.append('set xlabel "t"\nset ylabel "sup |w|"\n')
        lines.append("plot 'trace_supnorm.csv' skip 1 using 1:2 "
                     "with lines title 'sup norm'\n")
    else:
        target = next((f for f in csv_files if f.endswith(".csv")), None)
        if target is None:
            raise ValueError("no CSV artifact to plot")
        lines.append(f"plot '{target}' skip 1 using 1:2 with lines\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)
    return name
