"""Scenario files: a line-oriented key-value format for batch experiments.

Grammar (also documented in the README):

* blank lines and ``#`` comments are ignored;
* ``[section]`` headers open one of ``network``, ``values``, ``costs``,
  ``regulation``, ``delta_grid``;
* every other line is ``key = value``; values are whitespace-separated
  numbers unless noted.  Matrix values separate rows with ``;``.
  Infinite bounds are spelled ``inf`` / ``-inf``.
* numbers are plain decimal literals.  A matrix is read by numpy's text
  reader in one call, so its entries take no ``_`` digit separators
  (``1_0`` is an error) and its rows must have equal lengths; blank rows
  are skipped.

Sections and keys::

    [network]
    kind = core_periphery | complete_bipartite | complete | inline
    core_size, periphery_per_core          (core_periphery)
    part1, part2                           (complete_bipartite)
    nodes                                  (complete)
    adjacency = 0 1; 1 0                   (inline)

    [values]                               one of:
    a = 20 20 10 ...                       explicit vector
    theta = 20 10                          per-part levels; needs a two-part
                                           network or an explicit
    part1 = 0 1 2                          list of part-1 node indices

    [costs]                                optional; default zero
    c = zero | <vector>

    [regulation]
    kind = unrestricted | uniform | box | price_difference | average_price
           | halfspaces
    lower, upper                           (box)
    max_difference = 2.5  or  matrix rows  (price_difference)
    weights, cap                           (average_price)
    halfspace = 1 0 <= 5                   (halfspaces; repeatable)

    [delta_grid]
    count = 60
    max_fraction = 0.999999                fraction of 1/lambda_1, in (0, 1)

The grid refines geometrically toward the spectral bound: point ``j`` of
``count`` sits at fraction ``1 - (1 - max_fraction)**(j/(count-1))`` of
``1/lambda_1``, so the first point is 0 and the last is ``max_fraction``.

``format_scenario`` emits canonical text; parse-format round-trips are
byte-identical.
"""

from dataclasses import dataclass, field

import numpy as np

from . import network as netmod
from .errors import InvariantError, ScenarioParseError, ValidationError
from .market import MarketPrimitives
from .network import Network
from .regulation import (
    AveragePrice,
    Box,
    Halfspaces,
    PriceDifference,
    RegulationSet,
    Unrestricted,
    Uniform,
)

# section -> its keys, both in canonical emission order
_SECTION_KEYS = {
    "network": ("kind", "core_size", "periphery_per_core", "part1", "part2", "nodes", "adjacency"),
    "values": ("a", "theta", "part1"),
    "costs": ("c",),
    "regulation": ("kind", "lower", "upper", "max_difference", "weights", "cap", "halfspace"),
    "delta_grid": ("count", "max_fraction"),
}


@dataclass(frozen=True, eq=False)
class Scenario:
    """A parsed experiment: resolved model objects plus raw key-values.

    The raw section dictionaries are kept verbatim (modulo canonical number
    formatting) so that emission reproduces the parse input.
    """

    network: Network
    part1: tuple | None
    a: np.ndarray
    c: np.ndarray
    regulation: RegulationSet
    grid_count: int
    grid_max_fraction: float
    raw: dict = field(repr=False)


def _fmt(x: float) -> str:
    return repr(float(x))  # shortest text that round-trips the value


def _parse_numbers(value, line_no, kind=float):
    try:
        return [kind(tok) for tok in value.split()]
    except ValueError as err:
        raise ScenarioParseError(line_no, f"bad number in {value!r}") from err


def _parse_vector(value, line_no):
    return np.array(_parse_numbers(value, line_no))


def _parse_scalar(value, line_no, kind=float):
    numbers = _parse_numbers(value, line_no, kind)
    if len(numbers) != 1:
        raise ScenarioParseError(line_no, f"expected one number, got {value!r}")
    return numbers[0]


def _parse_matrix(value, line_no):
    # one call to numpy's C text reader; _collect has already cut '#' comments
    rows = value.split(";")
    if not any(row.strip() for row in rows):  # loadtxt would only warn
        raise ScenarioParseError(line_no, "matrix has no rows")
    try:
        return np.loadtxt(rows, ndmin=2, comments=None)
    except ValueError as err:  # a bad number, or rows of unequal lengths
        raise ScenarioParseError(line_no, f"bad matrix: {_matrix_fault(rows)}") from err


def _reads(text):
    # whether numpy's text reader takes ``text`` as one row of numbers
    try:
        np.loadtxt([text], comments=None)
    except ValueError:
        return False
    return True


def _matrix_fault(rows):
    # the first row that np.loadtxt rejects, counted from 1 as written (numpy
    # counts a bad entry's row from 0 and a short row's from 1, both past
    # blank rows), and its bad entry or its length
    width = None
    for number, row in enumerate(rows, start=1):
        entries = row.split()
        if not entries:
            continue
        if not _reads(row):
            bad = next((entry for entry in entries if not _reads(entry)), row.strip())
            return f"row {number} has a bad entry {bad!r}"
        width = width or len(entries)
        if len(entries) != width:
            return f"row {number} has {len(entries)} entries, expected {width}"
    raise InvariantError("np.loadtxt rejected rows that each read alone, at one length")


def _collect(text):
    sections = {name: {} for name in _SECTION_KEYS}
    lines = {name: {} for name in _SECTION_KEYS}
    current = None
    for line_no, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTION_KEYS:
                raise ScenarioParseError(line_no, f"unknown section [{name}]")
            current = name
            continue
        if current is None:
            raise ScenarioParseError(line_no, "content before any [section] header")
        if "=" not in line:
            raise ScenarioParseError(line_no, f"expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTION_KEYS[current]:
            raise ScenarioParseError(line_no, f"unknown key {key!r} in section [{current}]")
        if key == "halfspace":  # repeatable: one value and one line number per entry
            sections[current].setdefault(key, []).append(value)
            lines[current].setdefault(key, []).append(line_no)
        elif key in sections[current]:
            raise ScenarioParseError(line_no, f"duplicate key {key!r} in section [{current}]")
        else:
            sections[current][key] = value
            lines[current][key] = line_no
    return sections, lines


def _need(sec, lin, section_name, key):
    if key not in sec:
        raise ValidationError(f"section [{section_name}] is missing key {key!r}")
    return sec[key], lin.get(key, 0)


def _build_network(sec, lin):
    kind, line_no = _need(sec, lin, "network", "kind")

    def size(key):
        return _parse_scalar(*_need(sec, lin, "network", key), int)

    if kind == "core_periphery":
        core = size("core_size")
        net = netmod.gen_core_periphery(core, size("periphery_per_core"))
        part1 = tuple(range(core))
    elif kind == "complete_bipartite":
        m = size("part1")
        net = netmod.gen_complete_bipartite(m, size("part2"))
        part1 = tuple(range(m))
    elif kind == "complete":
        net = netmod.gen_complete(size("nodes"))
        part1 = None
    elif kind == "inline":
        text, adj_line = _need(sec, lin, "network", "adjacency")
        net = netmod.build_network(_parse_matrix(text, adj_line))
        part1 = None
    else:
        raise ScenarioParseError(line_no, f"unknown network kind {kind!r}")
    return net, part1


def _build_values(sec, lin, net, generator_part1):
    if "a" in sec and "theta" in sec:
        raise ValidationError("give either 'a' or 'theta' in [values], not both")
    if "a" in sec:
        a = _parse_vector(sec["a"], lin.get("a", 0))
        if a.shape != (net.n,):
            raise ValidationError(f"'a' has {a.shape[0]} entries for {net.n} markets")
        return a, generator_part1
    if "theta" not in sec:
        raise ValidationError("section [values] needs 'a' or 'theta'")
    theta = _parse_vector(sec["theta"], lin.get("theta", 0))
    if theta.shape != (2,):
        raise ValidationError("'theta' must give exactly two per-part levels")
    if "part1" in sec:
        part1 = tuple(_parse_numbers(sec["part1"], lin.get("part1", 0), int))
    else:
        part1 = generator_part1
    if part1 is None:
        raise ValidationError("per-part 'theta' needs a two-part network or an explicit 'part1'")
    if not part1 or len(set(part1)) != len(part1) or not all(0 <= i < net.n for i in part1):
        raise ValidationError("'part1' must list distinct valid node indices")
    if len(part1) == net.n:
        raise ValidationError("'part1' must be a proper subset of the nodes")
    a = np.full(net.n, theta[1])
    a[list(part1)] = theta[0]
    return a, tuple(part1)


def _build_costs(sec, lin, net):
    if not sec or sec.get("c", "zero").strip() == "zero":
        return np.zeros(net.n)
    c = _parse_vector(sec["c"], lin.get("c", 0))
    if c.shape != (net.n,):
        raise ValidationError(f"'c' has {c.shape[0]} entries for {net.n} markets")
    return c


def _build_regulation(sec, lin, net):
    kind = sec.get("kind")
    if kind is None:
        raise ValidationError("section [regulation] is missing key 'kind'")
    if kind == "unrestricted":
        return Unrestricted()
    if kind == "uniform":
        return Uniform()
    if kind == "box":
        lower, lower_line = _need(sec, lin, "regulation", "lower")
        upper, upper_line = _need(sec, lin, "regulation", "upper")
        return Box(lower=_parse_vector(lower, lower_line), upper=_parse_vector(upper, upper_line))
    if kind == "price_difference":
        text, ln = _need(sec, lin, "regulation", "max_difference")
        if ";" in text or len(text.split()) > 1:
            mat = _parse_matrix(text, ln)
        else:
            mat = np.full((net.n, net.n), _parse_scalar(text, ln))
            np.fill_diagonal(mat, 0.0)
        return PriceDifference(delta_matrix=mat)
    if kind == "average_price":
        weights, ln = _need(sec, lin, "regulation", "weights")
        cap = _parse_scalar(*_need(sec, lin, "regulation", "cap"))
        return AveragePrice(theta=_parse_vector(weights, ln), cap=cap)
    if kind == "halfspaces":
        entries, entry_lines = _need(sec, lin, "regulation", "halfspace")
        constraints = []
        for entry, ln in zip(entries, entry_lines):
            if "<=" not in entry:
                raise ScenarioParseError(ln, f"halfspace needs 'normal <= offset': {entry!r}")
            normal, offset = entry.split("<=", 1)
            constraints.append((_parse_vector(normal, ln), _parse_scalar(offset, ln)))
        return Halfspaces(constraints=tuple(constraints))
    raise ValidationError(f"unknown regulation kind {kind!r}")


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text; see the module docstring for keys."""
    sections, lines = _collect(text)
    net, generator_part1 = _build_network(sections["network"], lines["network"])
    a, part1 = _build_values(sections["values"], lines["values"], net, generator_part1)
    c = _build_costs(sections["costs"], lines["costs"], net)
    regulation = _build_regulation(sections["regulation"], lines["regulation"], net)
    grid, grid_lines = sections["delta_grid"], lines["delta_grid"]
    count = _parse_scalar(grid.get("count", "60"), grid_lines.get("count", 0), int)
    max_fraction = _parse_scalar(grid.get("max_fraction", "0.999999"), grid_lines.get("max_fraction", 0))
    if count < 1:
        raise ValidationError(f"delta_grid count must be >= 1, got {count}")
    if not 0.0 < max_fraction < 1.0:
        raise ValidationError(
            f"delta_grid max_fraction must lie strictly inside (0, 1), got {max_fraction!r}"
        )
    MarketPrimitives(net=net, a=a, c=c, delta=0.0)  # finite values with a > c in every market
    return Scenario(
        network=net,
        part1=part1,
        a=a,
        c=c,
        regulation=regulation,
        grid_count=count,
        grid_max_fraction=max_fraction,
        raw=sections,
    )


def _emit(sections: dict) -> str:
    """Canonical text: nonempty sections and their keys in table order."""
    out = []
    for name, keys in _SECTION_KEYS.items():
        src = sections.get(name)
        if not src:
            continue
        unknown = set(src) - set(keys)
        if unknown:
            raise ValidationError(f"unknown keys {sorted(unknown)} in section [{name}]")
        out.append(f"[{name}]")
        for key in keys:
            if key == "halfspace":
                out += [f"halfspace = {entry}" for entry in src.get(key, ())]
            elif key in src:
                out.append(f"{key} = {src[key]}")
        out.append("")
    return "\n".join(out).rstrip("\n") + "\n"


def format_scenario(s: Scenario) -> str:
    """Canonical text for a scenario; parse(format(s)) reproduces it."""
    return _emit(s.raw)


def scenario_text(
    network_lines: dict,
    values_lines: dict,
    regulation_lines: dict,
    costs: str = "zero",
    count: int = 60,
    max_fraction: float = 0.999999,
) -> str:
    """Assemble scenario text from per-section key-value dicts."""
    return _emit(
        {
            "network": network_lines,
            "values": values_lines,
            "costs": {"c": costs},
            "regulation": regulation_lines,
            "delta_grid": {"count": count, "max_fraction": _fmt(max_fraction)},
        }
    )


def delta_grid(s: Scenario) -> np.ndarray:
    """Spillover grid of the scenario, refined geometrically toward the bound."""
    lam1 = s.network.lambda1
    bound = 1.0 / lam1 if lam1 > 0.0 else 1.0
    if s.grid_count == 1:
        return np.array([s.grid_max_fraction * bound])
    j = np.arange(s.grid_count)
    fractions = 1.0 - (1.0 - s.grid_max_fraction) ** (j / (s.grid_count - 1))
    return fractions * bound
