"""Spillover sweeps, CSV emission, and the named desk experiments.

A sweep evaluates one scenario on its spillover grid: at each value it
projects the unrestricted price onto the regulation, records the welfare
ratios and the average-deviation statistic, solves the frontier point at
the equilibrium profit ratio, and reports the vertical gap to it.  One
market is built per sweep and each row takes it to its spillover with
``MarketPrimitives.at``, so the delta-independent spectral data is formed
once; nothing else carries from row to row, and every row equals the
single-point ``gap`` at its spillover bit for bit.

The named experiments reproduce the desk-scale figure data: the
core-periphery uniform-pricing cases, the complete-graph control, the
difference-cap families, and the complete-bipartite variants.  Each
returns ``{stem: rows}``; multi-cap families get one stem per cap value.
"""

from dataclasses import dataclass

from .errors import NetregError, SweepError, UnknownExperimentError
from .market import MarketPrimitives, a_statistic
from .regulation import RegulationSet, gap_parts
from .scenario import Scenario, delta_grid, parse_scenario, scenario_text

CSV_HEADER = "delta,r_v_star,r_pi_star,r_v_plus,a_stat,gap"


@dataclass(frozen=True)
class SweepRow:
    delta: float
    r_v_star: float
    r_pi_star: float
    r_v_plus: float
    a_stat: float
    gap: float


def _row_at(prim: MarketPrimitives, regulation: RegulationSet) -> SweepRow:
    p_star, r_v_star, r_pi_star, r_v_plus = gap_parts(prim, regulation)
    return SweepRow(
        delta=prim.delta,
        r_v_star=r_v_star,
        r_pi_star=r_pi_star,
        r_v_plus=r_v_plus,
        a_stat=a_statistic(prim, p_star),
        gap=r_v_plus - r_v_star,
    )


def run_sweep(scenario: Scenario) -> list[SweepRow]:
    """One SweepRow per grid spillover, ordered ascending.

    A failure at any grid point, a negative equilibrium profit ratio
    included, aborts the sweep with a ``SweepError`` naming the offending
    value and the regulation kind.
    """
    market = MarketPrimitives(net=scenario.network, a=scenario.a, c=scenario.c, delta=0.0)
    rows = []
    for delta in delta_grid(scenario):
        try:
            rows.append(_row_at(market.at(float(delta)), scenario.regulation))
        except NetregError as err:
            raise SweepError(float(delta), err, scenario.regulation.kind) from err
    return rows


def emit_csv(rows, destination) -> None:
    """Write rows at full precision (17 significant digits), newline-terminated.

    ``destination`` is a path or an open text file.
    """
    if not rows:
        raise ValueError("no rows to emit")
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                f"{value:.17g}"
                for value in (row.delta, row.r_v_star, row.r_pi_star, row.r_v_plus, row.a_stat, row.gap)
            )
        )
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)


def read_csv(source) -> list[SweepRow]:
    """Inverse of emit_csv; round-trips values bit-for-bit."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected header: {lines[:1]!r}")
    rows = []
    for line in lines[1:]:
        values = [float(tok) for tok in line.split(",")]
        rows.append(SweepRow(*values))
    return rows


# -- named experiments -------------------------------------------------------

_CASE_THETAS = {"a": "20 10", "b": "10 20"}
_DIFF_CAPS = (0.0, 2.5, 5.0)
_GRID_FRACTION = 0.999999
_CORE_PERIPHERY = {"kind": "core_periphery", "core_size": "3", "periphery_per_core": "2"}
_BIPARTITE = {"kind": "complete_bipartite", "part1": "2", "part2": "10"}

# family -> ([network] lines, extra [values] lines, one stem per difference cap?)
_FAMILIES = {
    "fig52": (_CORE_PERIPHERY, {}, False),
    "figB1": ({"kind": "complete", "nodes": "9"}, {"part1": "0 1 2"}, False),
    "figB2": (_CORE_PERIPHERY, {}, True),
    "figB3": (_BIPARTITE, {}, False),
    "figB4": (_BIPARTITE, {}, True),
}

EXPERIMENT_NAMES = tuple(family + case for family in _FAMILIES for case in _CASE_THETAS)


def experiment_scenarios(name: str, count: int = 60) -> dict[str, Scenario]:
    """Scenarios behind a named experiment, keyed by output stem."""
    if name not in EXPERIMENT_NAMES:
        raise UnknownExperimentError(f"unknown experiment {name!r}; known: {EXPERIMENT_NAMES}")
    network, extra, capped = _FAMILIES[name[:-1]]
    values = {"theta": _CASE_THETAS[name[-1]], **extra}
    if capped:
        regulations = {
            f"{name}_cap{cap:g}": {"kind": "price_difference", "max_difference": f"{cap:g}"}
            for cap in _DIFF_CAPS
        }
    else:
        regulations = {name: {"kind": "uniform"}}
    return {
        stem: parse_scenario(scenario_text(network, values, lines, count=count, max_fraction=_GRID_FRACTION))
        for stem, lines in regulations.items()
    }


def run_named_experiment(name: str, count: int = 60) -> dict[str, list[SweepRow]]:
    """Run a named experiment; returns ``{stem: rows}`` (one stem per cap
    value for the difference-cap families)."""
    return {stem: run_sweep(s) for stem, s in experiment_scenarios(name, count).items()}
