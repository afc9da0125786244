"""Generic parameter sweeps over configurations, graphs, and (r,s) pairs.

The figure drivers each hand-roll a loop; this module provides the general
tool for users running their own studies: a cartesian sweep over any
subset of {graphs, (r,s) pairs, config variations}, with results collected
as flat rows ready for :func:`repro.experiments.harness.format_table` or a
DataFrame.

Example::

    from repro.experiments.sweeps import sweep, config_grid

    rows = sweep(
        graphs={"dblp": load_dataset("dblp")},
        rs_pairs=[(2, 3), (3, 4)],
        configs=config_grid(aggregation=["array", "hash"],
                            relabel=[False, True]),
    )
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product

from ..core.config import NucleusConfig
from ..graph.csr import CSRGraph
from .harness import run_arb


def config_grid(base: NucleusConfig | None = None,
                **axes) -> list[tuple[str, NucleusConfig]]:
    """All combinations of the given config-field values.

    Each keyword names a :class:`NucleusConfig` field and supplies the
    values to sweep; returns ``(label, config)`` pairs where the label
    encodes the combination (e.g. ``"aggregation=hash,relabel=True"``).
    """
    base = base or NucleusConfig()
    for field in axes:
        if not hasattr(base, field):
            raise ValueError(f"NucleusConfig has no field {field!r}")
    names = list(axes)
    combos = []
    for values in product(*(axes[name] for name in names)):
        label = ",".join(f"{name}={value}"
                         for name, value in zip(names, values))
        combos.append((label, replace(base, **dict(zip(names, values)))))
    return combos


def sweep(graphs: dict[str, CSRGraph],
          rs_pairs: list[tuple[int, int]],
          configs: list[tuple[str, NucleusConfig]] | None = None
          ) -> list[dict]:
    """Run every (graph, (r,s), config) combination; one row per run.

    Rows carry the run's identity (graph / rs / config label) plus the
    result's shape and the run record, from
    :meth:`repro.experiments.harness.ArbRun.row`.
    """
    configs = configs or [("default", None)]
    rows = []
    for graph_name, graph in graphs.items():
        for r, s in rs_pairs:
            for label, config in configs:
                row = run_arb(graph, r, s, config, graph_name).row()
                row["config"] = label
                rows.append(row)
    return rows


def best_per_group(rows: list[dict], group_by: tuple[str, ...] = ("graph", "r", "s"),
                   metric: str = "T60") -> list[dict]:
    """The minimum-``metric`` row of each group (e.g. fastest config)."""
    best: dict[tuple, dict] = {}
    for row in rows:
        key = tuple(row.get(field) for field in group_by)
        if key not in best or row[metric] < best[key][metric]:
            best[key] = row
    return list(best.values())
