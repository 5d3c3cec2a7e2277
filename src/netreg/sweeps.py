"""Spillover sweeps, CSV emission, and the named desk experiments.

A sweep evaluates one scenario on its spillover grid: at each value it
projects the unrestricted price onto the regulation, records the welfare
ratios and the average-deviation statistic, solves the frontier point at
the equilibrium profit ratio, and reports the vertical gap to it.

The named experiments reproduce the desk-scale figure data: the
core-periphery uniform-pricing cases, the complete-graph control, the
difference-cap families, and the complete-bipartite variants.  Each
returns ``{stem: rows}``; multi-cap families get one stem per cap value.
"""

from dataclasses import dataclass

from .errors import NetregError, SweepError, UnknownExperimentError
from .market import MarketPrimitives, a_statistic, ratios
from .pareto import rv_plus
from .regulation import project
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


def _row_at(scenario: Scenario, delta: float) -> SweepRow:
    prim = MarketPrimitives(net=scenario.network, a=scenario.a, c=scenario.c, delta=delta)
    p_star = project(prim, scenario.regulation)
    r_v_star, r_pi_star = ratios(prim, p_star)
    stat = a_statistic(prim, p_star)
    if r_pi_star < -1e-9:
        raise SweepError(delta, f"equilibrium profit ratio {r_pi_star!r} is negative")
    tau = min(max(r_pi_star, 0.0), 1.0)
    r_v_plus = rv_plus(prim, tau)
    return SweepRow(
        delta=float(delta),
        r_v_star=r_v_star,
        r_pi_star=r_pi_star,
        r_v_plus=r_v_plus,
        a_stat=stat,
        gap=r_v_plus - r_v_star,
    )


def run_sweep(scenario: Scenario) -> list[SweepRow]:
    """One SweepRow per grid spillover, ordered ascending.

    A failure at any grid point aborts the sweep with the offending value
    named in the exception.
    """
    rows = []
    for delta in delta_grid(scenario):
        try:
            rows.append(_row_at(scenario, float(delta)))
        except SweepError:
            raise
        except NetregError as err:
            raise SweepError(float(delta), err) from err
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


def _core_periphery_net():
    return {"kind": "core_periphery", "core_size": "3", "periphery_per_core": "2"}


def _bipartite_net():
    return {"kind": "complete_bipartite", "part1": "2", "part2": "10"}


def _complete_net():
    return {"kind": "complete", "nodes": "9"}


def _experiment_specs(name: str):
    case = name[-1]
    theta = _CASE_THETAS.get(case)
    if theta is None:
        raise UnknownExperimentError(f"unknown experiment {name!r}")
    base = name[:-1]
    if base == "fig52":
        yield name, _core_periphery_net(), {"theta": theta}, {"kind": "uniform"}, _GRID_FRACTION
    elif base == "figB1":
        yield name, _complete_net(), {"theta": theta, "part1": "0 1 2"}, {"kind": "uniform"}, _GRID_FRACTION
    elif base == "figB2":
        for cap in _DIFF_CAPS:
            yield (
                f"{name}_cap{cap:g}",
                _core_periphery_net(),
                {"theta": theta},
                {"kind": "price_difference", "max_difference": f"{cap:g}"},
                _GRID_FRACTION,
            )
    elif base == "figB3":
        yield name, _bipartite_net(), {"theta": theta}, {"kind": "uniform"}, _GRID_FRACTION
    elif base == "figB4":
        for cap in _DIFF_CAPS:
            yield (
                f"{name}_cap{cap:g}",
                _bipartite_net(),
                {"theta": theta},
                {"kind": "price_difference", "max_difference": f"{cap:g}"},
                _GRID_FRACTION,
            )
    else:
        raise UnknownExperimentError(f"unknown experiment {name!r}")


EXPERIMENT_NAMES = (
    "fig52a",
    "fig52b",
    "figB1a",
    "figB1b",
    "figB2a",
    "figB2b",
    "figB3a",
    "figB3b",
    "figB4a",
    "figB4b",
)


def experiment_scenarios(name: str, count: int = 60) -> dict[str, Scenario]:
    """Scenarios behind a named experiment, keyed by output stem."""
    if name not in EXPERIMENT_NAMES:
        raise UnknownExperimentError(f"unknown experiment {name!r}; known: {EXPERIMENT_NAMES}")
    out = {}
    for stem, net_lines, value_lines, reg_lines, fraction in _experiment_specs(name):
        text = scenario_text(net_lines, value_lines, reg_lines, count=count, max_fraction=fraction)
        out[stem] = parse_scenario(text)
    return out


def run_named_experiment(name: str, count: int = 60) -> dict[str, list[SweepRow]]:
    """Run a named experiment; returns ``{stem: rows}`` (one stem per cap
    value for the difference-cap families)."""
    return {stem: run_sweep(s) for stem, s in experiment_scenarios(name, count).items()}
