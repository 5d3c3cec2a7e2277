"""The benchmark's three workloads.

Each workload has a set-up (inputs from the seed, everything that must
exist before the first job), a list of jobs run closed-loop by
``run.py``, and an output check that runs outside the timed region.

* ``desk``    -- the ten named experiments and ``sweep`` on the three
  shipped scenarios, through ``netreg.cli.main``; n <= 12, so Dykstra in
  ``regulation.project`` does almost all the work.  Outputs are compared
  with reference CSVs captured from the seed commit.
* ``large_n`` -- seeded ring-plus-random-edge graphs at n = 300 and 1000
  under closed-form regulations only, through ``run_sweep`` + ``emit_csv``;
  dense solves in ``network.h_apply`` dominate and Dykstra never runs.
  The n = 300 matrix fits in one core's L2, the n = 1000 one does not.
* ``queries`` -- 200 independent one-shot requests, each on a fresh graph;
  network build is a real share of the work, nothing is reused across
  requests, and two infeasible requests exercise the projection's error
  path.
"""

import contextlib
import io
import shutil
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

import oracle

BENCH_DIR = Path(__file__).resolve().parent
DESK_DIR = BENCH_DIR / "desk"
REFERENCE_DIR = DESK_DIR / "reference"

DESK_RTOL = 1e-8  # named-experiment values against the seed references
GAP_TOL = 1e-9  # gap may undershoot zero by root-solve tolerance
RATIO_SLACK = 1e-12  # R_Pi may exceed 1 by rounding
DIRECTION_MARGIN = 1e-8  # psi correlations this close to the 1e-10 threshold are not judged


@dataclass
class Tally:
    """Rows attempted and failed; ``wrong`` counts returned values that
    failed a check (they also count as failed and make the run incorrect)."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list = field(default_factory=list)

    def fail(self, what, wrong=False, rows=1):
        self.failed += rows
        self.wrong += rows if wrong else 0
        if len(self.problems) < 20:
            self.problems.append(what)


@dataclass
class State:
    """What a set-up hands to the timed loop and the checks."""

    jobs: list  # (label, zero-argument callable)
    largest_n: int
    inputs: object = None


def ring_graph(rng, n, mean_degree):
    """Ring plus uniformly random chords (connected by construction), redrawn
    until not regular so that every network statistic is defined."""
    idx = np.arange(n)
    while True:
        g = np.zeros((n, n))
        g[idx, (idx + 1) % n] = g[(idx + 1) % n, idx] = 1.0
        extra = int(round(n * (mean_degree - 2.0) / 2.0))
        while extra > 0:
            i, j = rng.integers(n, size=2)
            if i != j and g[i, j] == 0.0:
                g[i, j] = g[j, i] = 1.0
                extra -= 1
        degree = g.sum(axis=1)
        if degree.max() > degree.min():
            return g


def stratified(rng, strata, lo, hi):
    """One draw from U[lo, hi) inside each listed equal-width stratum."""
    return lo + (hi - lo) * (strata + rng.random(len(strata))) / len(strata)


def _rows_in(text):
    lines = [line for line in text.splitlines() if line]
    return lines[0], [[float(tok) for tok in line.split(",")] for line in lines[1:]]


# -- desk ---------------------------------------------------------------------


class Desk:
    name = "desk"
    seeded = False
    setup_repeats = 9
    largest_n = 12  # bipartite(2, 10)

    def __init__(self):
        self._reference = None

    def reference(self):
        if self._reference is None:
            self._reference = {
                path.name: _rows_in(path.read_text(encoding="utf-8"))
                for path in sorted(REFERENCE_DIR.glob("*.csv"))
            }
        return self._reference

    def setup(self, nr, seed, workdir):
        out = workdir / "desk"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        jobs = [
            (f"experiment {name}", ["experiment", name, "-o", str(out)])
            for name in nr.EXPERIMENT_NAMES
        ]
        jobs += [
            (f"sweep {path.name}", ["sweep", str(path), "-o", str(out / f"{path.stem}.csv")])
            for path in sorted(DESK_DIR.glob("*.scn"))
        ]
        return State(
            jobs=[(label, partial(_cli, nr.cli, argv)) for label, argv in jobs],
            largest_n=self.largest_n,
            inputs=out,
        )

    def check(self, state, results, tally):
        out = state.inputs
        for name, (header, expected) in self.reference().items():
            tally.attempted += len(expected)
            path = out / name
            if not path.is_file():
                tally.fail(f"{name}: not written", rows=len(expected))
                continue
            got_header, got = _rows_in(path.read_text(encoding="utf-8"))
            path.unlink()
            if got_header != header or len(got) != len(expected):
                tally.fail(f"{name}: header or row count differs", wrong=True, rows=len(expected))
                continue
            for i, (row, ref) in enumerate(zip(got, expected)):
                if len(row) != len(ref) or not oracle.close(row, ref, DESK_RTOL):
                    tally.fail(f"{name} row {i}: differs from reference", wrong=True)
        for label, result in results:
            if isinstance(result, BaseException):
                tally.problems.append(f"{label}: {type(result).__name__}: {result}")


def _cli(cli, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"netreg {' '.join(argv[:2])} exited with {code}")


# -- large_n ------------------------------------------------------------------

LARGE_SIZES = ((300, 60), (1000, 8))  # (markets, grid points); n = 1000 rows cost ~0.2 s each
LARGE_MEAN_DEGREE = 6.0
GRID_FRACTION = 0.999999


@dataclass
class SweepCase:
    label: str
    g: np.ndarray
    a: np.ndarray
    regulation: tuple  # oracle form
    count: int
    verified: str = None  # CSV text that passed the check in an earlier pass


def _numbers(values):
    return " ".join(repr(float(x)) for x in values)


def _scenario_text(adjacency_text, a, regulation_lines, count):
    return "\n".join(
        [
            "[network]",
            "kind = inline",
            f"adjacency = {adjacency_text}",
            "",
            "[values]",
            f"a = {_numbers(a)}",
            "",
            "[costs]",
            "c = zero",
            "",
            "[regulation]",
            *regulation_lines,
            "",
            "[delta_grid]",
            f"count = {count}",
            f"max_fraction = {GRID_FRACTION!r}",
            "",
        ]
    )


class LargeN:
    name = "large_n"
    seeded = True
    setup_repeats = 3

    def setup(self, nr, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        cases, jobs = [], []
        for n, count in LARGE_SIZES:
            g = ring_graph(rng, n, LARGE_MEAN_DEGREE)
            a = rng.uniform(5.0, 25.0, n)
            theta = rng.dirichlet(np.ones(n))
            cap = 0.7 * float(theta @ (0.5 * a))  # below the unrestricted average, so it binds at every delta
            adjacency_text = "; ".join(" ".join(map(str, row)) for row in g.astype(int).tolist())
            theta_text = _numbers(theta)
            regulations = (
                ("uniform", ["kind = uniform"], ("uniform",)),
                (
                    "average_price",
                    ["kind = average_price", f"weights = {theta_text}", f"cap = {cap!r}"],
                    ("average_price", theta / theta.sum(), cap),
                ),
                ("zero_caps", ["kind = price_difference", "max_difference = 0"], ("uniform",)),
            )
            for tag, lines, form in regulations:
                label = f"n{n} {tag}"
                scenario = nr.parse_scenario(_scenario_text(adjacency_text, a, lines, count))
                cases.append(SweepCase(label, g, a, form, count))
                jobs.append((label, partial(_sweep, nr, scenario)))
        return State(jobs=jobs, largest_n=max(n for n, _ in LARGE_SIZES), inputs=cases)

    def check(self, state, results, tally):
        spectra = {}
        for case, (label, result) in zip(state.inputs, results):
            tally.attempted += case.count
            if isinstance(result, BaseException):
                tally.fail(f"{label}: {type(result).__name__}: {result}", rows=case.count)
                continue
            if result == case.verified:
                continue
            header, rows = _rows_in(result)
            if header != "delta,r_v_star,r_pi_star,r_v_plus,a_stat,gap" or len(rows) != case.count:
                tally.fail(f"{label}: header or row count differs", wrong=True, rows=case.count)
                continue
            key = id(case.g)
            if key not in spectra:
                spectra[key] = oracle.leading_pair(case.g)
            lam1, w1 = spectra[key]
            j = np.arange(case.count)
            deltas = (1.0 - (1.0 - GRID_FRACTION) ** (j / (case.count - 1))) / lam1
            zeros = np.zeros_like(case.a)
            failed_before = tally.failed
            for i, row in enumerate(rows):
                delta, r_v, r_pi, r_v_plus, a_stat, gap = row
                _, ref_v, ref_pi, ref_a = oracle.closed_form(case.g, w1, deltas[i], case.a, zeros, case.regulation)
                ok = (
                    np.all(np.isfinite(row))
                    and oracle.close(delta, deltas[i])
                    and oracle.close([r_v, r_pi, a_stat], [ref_v, ref_pi, ref_a])
                    and r_pi <= 1.0 + RATIO_SLACK
                    and gap >= -GAP_TOL
                    and abs(gap - (r_v_plus - r_v)) <= RATIO_SLACK * max(1.0, abs(r_v_plus))
                )
                if not ok:
                    tally.fail(f"{label} row {i}: {row}", wrong=True)
            if tally.failed == failed_before:
                case.verified = result


def _sweep(netreg, scenario):
    rows = netreg.run_sweep(scenario)
    buffer = io.StringIO()
    netreg.emit_csv(rows, buffer)
    return buffer.getvalue()


# -- queries ------------------------------------------------------------------

QUERY_COUNT = 200
QUERY_KINDS = ("uniform", "average_price", "box", "price_difference")
QUERY_MEAN_DEGREE = 6.0
DIFFERENCE_CAP = 2.5
CEILING_SHARE = 0.3


@dataclass
class Request:
    label: str
    kind: str
    g: np.ndarray
    a: np.ndarray
    c: np.ndarray
    fraction: float
    params: dict


def _regulation(nr, req):
    p = req.params
    if req.kind == "uniform":
        return nr.Uniform()
    if req.kind == "average_price":
        return nr.AveragePrice(theta=p["theta"], cap=p["cap"])
    if req.kind == "box":
        return nr.Box(lower=p["lower"], upper=p["upper"])
    if req.kind == "price_difference":
        return nr.PriceDifference(delta_matrix=p["caps"])
    return nr.Halfspaces(constraints=p["constraints"])


@dataclass
class Answer:
    prim: object
    regulation: object
    outcome: object
    gap: float
    certificate: object
    limit: object
    direction: object


def _query(nr, req):
    net = nr.build_network(req.g)
    prim = nr.MarketPrimitives(net=net, a=req.a, c=req.c, delta=req.fraction / net.lambda1)
    k = _regulation(nr, req)
    outcome = nr.equilibrium_outcome(prim, k)
    gap = nr.gap(prim, k)
    certificate = nr.pareto_certificate(prim, k)
    limit = nr.classify_limit(prim, k)
    direction = None if req.c.any() else nr.welfare_direction_large_delta(net, req.a)
    return Answer(prim, k, outcome, gap, certificate, limit, direction)


def _core_periphery(core, leaves_per_core):
    n = core * (1 + leaves_per_core)
    g = np.zeros((n, n))
    g[:core, :core] = 1.0
    np.fill_diagonal(g, 0.0)
    for i in range(core):
        for t in range(leaves_per_core):
            leaf = core + i * leaves_per_core + t
            g[i, leaf] = g[leaf, i] = 1.0
    return g


def _infeasible_requests(rng):
    """An empty box and a contradictory 3-cycle of difference constraints,
    both as halfspace lists on core-periphery(3, 2)."""
    g = _core_periphery(3, 2)
    a = np.array([20.0] * 3 + [10.0] * 6)
    e0 = np.eye(9)[0]

    def diff(i, j):
        v = np.zeros(9)
        v[i], v[j] = 1.0, -1.0
        return v

    sets = (
        ("empty box", ((e0, 1.0), (-e0, -2.0))),
        ("contradictory 3-cycle", ((diff(0, 1), -1.0), (diff(1, 2), -1.0), (diff(2, 0), -1.0))),
    )
    return [
        Request(label, "halfspaces", g, a, np.zeros(9), float(rng.uniform(0.05, 0.999)), {"constraints": hs})
        for label, hs in sets
    ]


def _feasible_requests(rng, count):
    """The pairing of size, spillover and zero-cost strata is one fixed
    design; the seed jitters inside the strata and draws graphs, values and
    regulations.  Seeds then differ in detail but not in how much work the
    mix holds."""
    design = np.random.default_rng(0)
    kinds = np.array([QUERY_KINDS[i % len(QUERY_KINDS)] for i in range(count)])
    requests = []
    for kind in QUERY_KINDS:
        m = int((kinds == kind).sum())
        lo, hi = (6, 21) if kind == "price_difference" else (20, 201)
        strata = np.arange(m)
        sizes = stratified(rng, strata, lo, hi).astype(int)
        fractions = stratified(rng, design.permutation(m), 0.05, 0.999)
        for n, fraction, free in zip(sizes, fractions, strata % 2 == 0):
            n = int(n)
            g = ring_graph(rng, n, min(QUERY_MEAN_DEGREE, (n - 1) / 2.0))
            a = rng.uniform(5.0, 25.0, n)
            c = np.zeros(n) if free else a * rng.uniform(0.0, 0.5, n)
            q, d = 0.5 * (a + c), 0.5 * (a - c)
            if kind == "average_price":
                theta = rng.dirichlet(np.ones(n))
                params = {"theta": theta, "cap": float(theta @ q) - rng.uniform(0.1, 0.5) * float(theta @ d)}
            elif kind == "box":
                upper = np.full(n, np.inf)
                capped = rng.permutation(n)[: max(1, int(round(CEILING_SHARE * n)))]
                upper[capped] = q[capped] - rng.uniform(0.1, 0.5, capped.size) * d[capped]
                params = {"lower": np.full(n, -np.inf), "upper": upper}
            elif kind == "price_difference":
                caps = np.full((n, n), DIFFERENCE_CAP)
                np.fill_diagonal(caps, 0.0)
                params = {"caps": caps}
            else:
                params = {}
            requests.append(Request(f"{kind} n={n}", kind, g, a, c, float(fraction), params))
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


class Queries:
    name = "queries"
    seeded = True
    setup_repeats = 5

    def setup(self, nr, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        infeasible = _infeasible_requests(rng)
        requests = _feasible_requests(rng, QUERY_COUNT - len(infeasible))
        for position, req in zip(sorted(rng.choice(QUERY_COUNT, len(infeasible), replace=False)), infeasible):
            requests.insert(int(position), req)
        jobs = [(req.label, partial(_query, nr, req)) for req in requests]
        return State(jobs=jobs, largest_n=max(req.g.shape[0] for req in requests), inputs=(nr, requests))

    def check(self, state, results, tally):
        nr, requests = state.inputs
        for req, (label, result) in zip(requests, results):
            tally.attempted += 1
            if req.kind == "halfspaces":
                if isinstance(result, nr.InfeasibleError):
                    continue
                if isinstance(result, BaseException):
                    tally.fail(f"{label}: {type(result).__name__} instead of InfeasibleError")
                else:
                    tally.fail(f"{label}: returned a price for an empty set", wrong=True)
                continue
            if isinstance(result, BaseException):
                tally.fail(f"{label}: {type(result).__name__}: {result}")
                continue
            problem = _query_problem(nr, req, result)
            if problem:
                tally.fail(f"{label} (fraction {req.fraction:.6f}): {problem}", wrong=True)


def _query_problem(nr, req, ans):
    """Why an answer is wrong, or None."""
    out, prim, k = ans.outcome, ans.prim, ans.regulation
    values = [out.price, out.quantity, out.profit, out.surplus, out.r_v, out.r_pi, out.a_stat, ans.gap]
    if not all(np.all(np.isfinite(v)) for v in values):
        return "non-finite output"
    if not nr.regulation.contains(prim, k, out.price):
        return "equilibrium price is infeasible"
    if out.r_pi > 1.0 + RATIO_SLACK:
        return f"R_Pi = {out.r_pi!r} > 1"
    if ans.gap < -GAP_TOL:
        return f"gap = {ans.gap!r} < 0"
    if req.kind in ("uniform", "average_price"):
        _, w1 = oracle.leading_pair(req.g)
        form = ("uniform",) if req.kind == "uniform" else ("average_price", k.theta, k.cap)
        price, r_v, r_pi, a_stat = oracle.closed_form(req.g, w1, prim.delta, req.a, req.c, form)
        if not oracle.close(out.price, price) or not oracle.close([out.r_v, out.r_pi, out.a_stat], [r_v, r_pi, a_stat]):
            return "closed-form price or ratios differ from the numpy re-derivation"
    # a binding set of these kinds is never certified efficient; a slack one always is
    expected = nr.regulation.contains(prim, k, 0.5 * (req.a + req.c))
    if ans.certificate.efficient != expected:
        return f"certificate says efficient={ans.certificate.efficient}, expected {expected}"
    # the price level stays free in the limit for all these sets
    if ans.limit.label.value != "neutral":
        return f"limit class {ans.limit.label.value}, expected neutral"
    if ans.direction is not None:
        value = oracle.psi_correlation(req.g, req.a)
        if abs(value) > DIRECTION_MARGIN:
            expected_direction = "consumers_gain" if value > 0 else "consumers_lose"
            if ans.direction.value != expected_direction:
                return f"welfare direction {ans.direction.value}, expected {expected_direction}"
    return None


WORKLOADS = {wl.name: wl for wl in (Desk(), LargeN(), Queries())}
