#!/usr/bin/env python3
"""Plot the CSV artifacts `afactl exp <name> --out target/afa-results` writes.

Usage:
    python3 scripts/plot_figures.py [target/afa-results] [out_dir]

Produces, for whichever inputs exist:
  * fig06/07/08/09/11 — per-device latency-distribution line plots
    (one line per SSD, log-y), the visual form of the paper's figures,
  * fig13a–fig13d — the same plot for each Table II row of fig13.csv,
  * fig10 — the latency scatter with its periodic SMART spikes,
  * fig12, fig14 — grouped bars of mean and std per metric per
    configuration (kernel stage, Table II row).

Requires matplotlib; degrades to a message if it is missing.
"""

import csv
import os
import sys


def load_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def plot_distributions(plt, rows, title, out):
    points = ["avg", "p99", "p999", "p9999", "p99999", "p999999", "max"]
    labels = ["avg", "99%", "99.9%", "99.99%", "99.999%", "99.9999%", "max"]
    fig, ax = plt.subplots(figsize=(7, 4))
    for row in rows:
        ys = [float(row[p]) for p in points]
        ax.plot(labels, ys, linewidth=0.7, alpha=0.6)
    ax.set_yscale("log")
    ax.set_ylabel("latency (us)")
    ax.set_title(title)
    ax.grid(True, which="both", alpha=0.3)
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")


def plot_scatter(plt, rows, out):
    fig, ax = plt.subplots(figsize=(8, 4))
    xs = [int(r["index"]) for r in rows]
    ys = [float(r["latency_us"]) for r in rows]
    ax.scatter(xs, ys, s=1, alpha=0.4)
    ax.set_xlabel("sample index")
    ax.set_ylabel("latency (us)")
    ax.set_title("Fig. 10 — latency samples (SMART spikes)")
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")


def plot_mean_std(plt, rows, key, out):
    stages = []
    for r in rows:
        if r[key] not in stages:
            stages.append(r[key])
    metrics = []
    for r in rows:
        if r["metric"] not in metrics:
            metrics.append(r["metric"])
    fig, axes = plt.subplots(1, 2, figsize=(11, 4))
    for ax, field, title in ((axes[0], "mean_us", "average (us)"),
                             (axes[1], "std_us", "standard deviation (us)")):
        width = 0.8 / max(len(stages), 1)
        for i, stage in enumerate(stages):
            vals = [float(r[field]) for r in rows if r[key] == stage]
            xs = [j + i * width for j in range(len(metrics))]
            ax.bar(xs, [max(v, 0.01) for v in vals], width=width, label=stage)
        ax.set_yscale("log")
        ax.set_xticks([j + 0.4 for j in range(len(metrics))])
        ax.set_xticklabels(metrics, rotation=30)
        ax.set_title(title)
        ax.legend(fontsize=7)
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")


def main():
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; CSVs remain usable directly")
        return 1

    src = sys.argv[1] if len(sys.argv) > 1 else "target/afa-results"
    out_dir = sys.argv[2] if len(sys.argv) > 2 else src
    os.makedirs(out_dir, exist_ok=True)

    titles = {
        "fig06": "Fig. 6 — default configuration",
        "fig07": "Fig. 7 — +chrt",
        "fig08": "Fig. 8 — +isolcpus",
        "fig09": "Fig. 9 — +IRQ affinity",
        "fig11": "Fig. 11 — experimental firmware",
    }
    for name, title in titles.items():
        path = os.path.join(src, f"{name}.csv")
        if os.path.exists(path):
            plot_distributions(plt, load_rows(path), title,
                               os.path.join(out_dir, f"{name}.png"))
    # fig13.csv holds every Table II row, labelled "Fig. 13(a)" to
    # "Fig. 13(d)" in its `row` column: one plot per row.
    p13 = os.path.join(src, "fig13.csv")
    if os.path.exists(p13):
        rows = load_rows(p13)
        labels = []
        for r in rows:
            if r["row"] not in labels:
                labels.append(r["row"])
        for label in labels:
            letter = label[label.index("(") + 1:label.index(")")]
            plot_distributions(plt, [r for r in rows if r["row"] == label],
                               label, os.path.join(out_dir, f"fig13{letter}.png"))
    p10 = os.path.join(src, "fig10.csv")
    if os.path.exists(p10):
        plot_scatter(plt, load_rows(p10), os.path.join(out_dir, "fig10.png"))
    for name, key in (("fig12", "stage"), ("fig14", "row")):
        path = os.path.join(src, f"{name}.csv")
        if os.path.exists(path):
            plot_mean_std(plt, load_rows(path), key,
                          os.path.join(out_dir, f"{name}.png"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
