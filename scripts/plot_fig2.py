#!/usr/bin/env python3
"""Plot the Figure-2 reproduction CSVs written by the sweep driver.

Usage:
    build/bench/sweep --figure fig2_lmax    # writes fig2_lmax.csv here
    build/bench/sweep --figure fig2_m
    build/bench/sweep --figure fig2_n
    python3 scripts/plot_fig2.py fig2_lmax.csv fig2_m.csv fig2_n.csv -o fig2.png

Produces one row of paired insets per CSV (global left, partitioned right),
mirroring the layout of Figure 2 in the paper. Requires matplotlib.
"""
import argparse
import csv
import sys


def read_rows(path):
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    if not rows:
        raise SystemExit(f"{path}: empty CSV")
    x_label = reader.fieldnames[0]
    xs = [float(r[x_label]) for r in rows]
    series = {
        name: [float(r[name]) for r in rows]
        for name in ("global_baseline", "global_proposed",
                     "partitioned_baseline", "partitioned_proposed")
    }
    return x_label, xs, series


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("csvs", nargs="+", help="CSV files from the fig2_* benches")
    parser.add_argument("-o", "--output", default="fig2.png")
    args = parser.parse_args()

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        raise SystemExit("matplotlib is required: pip install matplotlib")

    n = len(args.csvs)
    fig, axes = plt.subplots(n, 2, figsize=(9, 3 * n), squeeze=False)
    for row, path in enumerate(args.csvs):
        x_label, xs, series = read_rows(path)
        for col, (kind, title) in enumerate(
            (("global", "global scheduling"),
             ("partitioned", "partitioned scheduling"))):
            ax = axes[row][col]
            ax.plot(xs, series[f"{kind}_baseline"], "o--", label="baseline")
            ax.plot(xs, series[f"{kind}_proposed"], "s-", label="proposed")
            ax.set_xlabel(x_label)
            ax.set_ylabel("schedulability ratio")
            ax.set_ylim(-0.02, 1.02)
            ax.set_title(f"{path}: {title}", fontsize=9)
            ax.grid(True, alpha=0.3)
            ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(args.output, dpi=150)
    print(f"wrote {args.output}")


if __name__ == "__main__":
    sys.exit(main())
