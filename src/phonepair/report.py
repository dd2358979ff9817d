"""Result tables and their CSV / markdown renderings."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .dataio import DataError


@dataclass
class ResultTable:
    title: str
    rows: list = field(default_factory=list)       # dicts with summary stats
    comparisons: list = field(default_factory=list)  # dicts: label, W, p, method

    COLUMNS = (
        "modality", "model", "configuration",
        "accuracy_mean", "accuracy_std",
        "f1_mean", "f1_std", "auc_mean", "auc_std",
        "n", "W", "p",
    )


def format_pm(mean: float, std: float) -> str:
    """Percent with one decimal, e.g. 0.76612 +- 0.10548 -> '76.6 ± 10.5'."""
    return f"{100 * mean:.1f} ± {100 * std:.1f}"


def _cell(row, col):
    v = row.get(col, "")
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def _write_csv(path: str, header, rows: list) -> None:
    """The one CSV writer: a header line, then one line per row."""
    if not rows:
        raise DataError(f"refusing to write an empty table to {path}")
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_table_csv(table: ResultTable, path: str) -> None:
    cols = ResultTable.COLUMNS
    _write_csv(path, cols, [[_cell(r, c) for c in cols] for r in table.rows])


def write_table_markdown(table: ResultTable, path: str) -> None:
    if not table.rows:
        raise DataError(f"refusing to write empty table {table.title!r}")
    lines = [f"# {table.title}", ""]
    header = ["Modality", "Model", "Configuration", "Accuracy (%)", "F-1 (%)",
              "AUC (%)", "n"]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for r in table.rows:
        lines.append("| " + " | ".join([
            str(r.get("modality", "")),
            str(r.get("model", "")),
            str(r.get("configuration", "")),
            format_pm(r["accuracy_mean"], r["accuracy_std"]),
            format_pm(r["f1_mean"], r["f1_std"]),
            format_pm(r["auc_mean"], r["auc_std"]),
            str(r.get("n", "")),
        ]) + " |")
    if table.comparisons:
        lines += ["", "## Significance (Wilcoxon signed-rank)", ""]
        lines.append("| Comparison | W | p | method |")
        lines.append("|---|---|---|---|")
        for c in table.comparisons:
            if c.get("W") is None:
                lines.append(f"| {c['label']} | — | — | identical |")
            else:
                lines.append(
                    f"| {c['label']} | {c['W']:.1f} | {c['p']:.3g} | {c['method']} |"
                )
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def write_fold_rows_csv(rows: list, path: str) -> None:
    """Raw per-fold rows (subject, task, pair, model, configuration, fold,
    accuracy, f1, auc)."""
    cols = ("subject", "task", "pair", "model", "configuration", "fold",
            "accuracy", "f1", "auc")
    _write_csv(path, cols, [[_cell(r, c) for c in cols] for r in rows])


def write_pair_matrix(rows: list, path: str) -> None:
    """Phone x phone mean-accuracy matrix (symmetric, empty diagonal)."""
    acc = {}
    for r in rows:
        acc.setdefault(r["pair"], []).append(r["accuracy"])
    means = {pair: float(np.mean(v)) for pair, v in acc.items()}
    phones = sorted({ph for pair in means for ph in pair.split("-")})
    matrix = []
    for a in phones:
        row = [a]
        for b in phones:
            if a == b:
                row.append("")
            else:
                key = "-".join(sorted((a, b)))
                row.append(f"{means[key]:.6f}" if key in means else "")
        matrix.append(row)
    _write_csv(path, [""] + phones, matrix)


def write_inventory_csv(counts: dict, path: str) -> None:
    labels = sorted(counts, key=lambda l: (-counts[l], l))
    _write_csv(path, ["label", "count"], [[l, counts[l]] for l in labels])


def write_reports(table: ResultTable, out_dir: str, stem: str,
                  fold_rows: list | None = None,
                  pair_matrix: bool = False) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    outputs = [(".csv", write_table_csv, table),
               (".md", write_table_markdown, table)]
    if fold_rows:
        outputs.append(("_folds.csv", write_fold_rows_csv, fold_rows))
        if pair_matrix:
            outputs.append(("_pair_matrix.csv", write_pair_matrix, fold_rows))
    written = []
    for suffix, write, content in outputs:
        path = os.path.join(out_dir, f"{stem}{suffix}")
        write(content, path)
        written.append(path)
    return written
