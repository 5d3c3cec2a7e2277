import hashlib

import numpy as np
import pytest

import netreg
from netreg.cli import main
from netreg.scenario import delta_grid, format_scenario, parse_scenario, scenario_text
from netreg.sweeps import CSV_HEADER, experiment_scenarios, read_csv


CP_UNIFORM = scenario_text(
    {"kind": "core_periphery", "core_size": "3", "periphery_per_core": "2"},
    {"theta": "20 10"},
    {"kind": "uniform"},
    count=12,
    max_fraction=0.999,
)

INLINE = """\
[network]
kind = inline
adjacency = 0 1; 1 0

[values]
a = 6 8

[costs]
c = 1 2

[regulation]
kind = box
lower = -inf 0
upper = 4 inf

[delta_grid]
count = 5
max_fraction = 0.9
"""

AVERAGE = INLINE.replace(
    "kind = box\nlower = -inf 0\nupper = 4 inf",
    "kind = average_price\nweights = 0.5 0.5\ncap = 4",
)

HALFSPACES = INLINE.replace(
    "kind = box\nlower = -inf 0\nupper = 4 inf",
    "kind = halfspaces\nhalfspace = 1 0 <= 4\nhalfspace = 0 1 <= 9",
)


class TestParsing:
    def test_theta_resolution(self):
        s = parse_scenario(CP_UNIFORM)
        assert s.network.n == 9
        assert np.array_equal(s.a, [20.0] * 3 + [10.0] * 6)
        assert np.array_equal(s.c, np.zeros(9))
        assert s.part1 == (0, 1, 2)
        assert s.regulation.kind == "uniform"

    def test_inline_with_box(self):
        s = parse_scenario(INLINE)
        assert s.network.n == 2
        assert np.array_equal(s.a, [6.0, 8.0])
        assert np.array_equal(s.c, [1.0, 2.0])
        assert s.regulation.lower[0] == -np.inf
        assert s.regulation.upper[1] == np.inf

    def test_round_trip_bytes(self):
        for text in (CP_UNIFORM, INLINE):
            once = format_scenario(parse_scenario(text))
            twice = format_scenario(parse_scenario(once))
            assert once == twice

    def test_unit_fraction_rejected(self):
        bad = CP_UNIFORM.replace("max_fraction = 0.999", "max_fraction = 1.0")
        with pytest.raises(netreg.ValidationError):
            parse_scenario(bad)

    def test_parse_error_carries_line_number(self):
        bad = CP_UNIFORM.replace("theta = 20 10", "theta 20 10")
        with pytest.raises(netreg.ScenarioParseError) as err:
            parse_scenario(bad)
        assert err.value.line_no == 7

    def test_unknown_key_rejected(self):
        bad = CP_UNIFORM.replace("theta = 20 10", "thetas = 20 10")
        with pytest.raises(netreg.ScenarioParseError):
            parse_scenario(bad)

    def test_theta_needs_partition(self):
        text = INLINE.replace("a = 6 8", "theta = 6 8")
        with pytest.raises(netreg.ValidationError):
            parse_scenario(text)
        ok = INLINE.replace("a = 6 8", "theta = 6 8\npart1 = 0")
        s = parse_scenario(ok)
        assert np.array_equal(s.a, [6.0, 8.0])

    def test_values_must_beat_costs(self):
        bad = INLINE.replace("c = 1 2", "c = 7 2")
        with pytest.raises(netreg.ValidationError):
            parse_scenario(bad)

    def test_costs_section_optional(self):
        text = CP_UNIFORM.replace("[costs]\nc = zero\n\n", "")
        s = parse_scenario(text)
        assert np.array_equal(s.c, np.zeros(9))

    @pytest.mark.parametrize(
        "text, old, new",
        [
            (CP_UNIFORM, "core_size = 3", "core_size = three"),
            (CP_UNIFORM, "count = 12", "count = 6o"),
            (CP_UNIFORM, "count = 12", "count = 2.5"),
            (CP_UNIFORM, "max_fraction = 0.999", "max_fraction = x"),
            (CP_UNIFORM, "theta = 20 10", "theta = 20 10\npart1 = 0 x"),
            (INLINE, "box\nlower = -inf 0\nupper = 4 inf", "average_price\nweights = 0.5 0.5\ncap = seven"),
            (INLINE, "upper = 4 inf", "upper = 5 x"),
            (HALFSPACES, "halfspace = 1 0 <= 4", "halfspace = 1 x <= 5"),
        ],
        ids=["core_size", "count_typo", "count_fraction", "max_fraction", "part1", "cap", "upper", "halfspace"],
    )
    def test_malformed_scalar_names_its_line(self, tmp_path, capsys, text, old, new):
        bad = text.replace(old, new)
        bad_line = new.splitlines()[-1]
        with pytest.raises(netreg.ScenarioParseError) as err:
            parse_scenario(bad)
        assert err.value.line_no == bad.splitlines().index(bad_line) + 1
        scen = tmp_path / "bad.scn"
        scen.write_text(bad)
        assert main(["sweep", str(scen)]) == 1
        assert f"line {err.value.line_no}: " in capsys.readouterr().err

    def test_halfspace_lines(self):
        s = parse_scenario(HALFSPACES)
        assert s.regulation.kind == "halfspaces"
        assert len(s.regulation.constraints) == 2
        assert format_scenario(s).count("halfspace = ") == 2


class TestGrid:
    def test_endpoints_and_safety(self):
        s = parse_scenario(CP_UNIFORM)
        grid = delta_grid(s)
        lam1 = s.network.lambda1
        assert len(grid) == 12
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(0.999 / lam1, rel=1e-12)
        assert np.all(np.diff(grid) > 0.0)
        assert np.all(grid * lam1 < 1.0)

    def test_refines_toward_bound(self):
        s = parse_scenario(CP_UNIFORM)
        grid = delta_grid(s)
        steps = np.diff(grid)
        assert steps[-1] < steps[0]

    def test_single_point_grid(self):
        s = parse_scenario(CP_UNIFORM.replace("count = 12", "count = 1"))
        grid = delta_grid(s)
        assert len(grid) == 1
        assert grid[0] == pytest.approx(0.999 / s.network.lambda1, rel=1e-12)


class TestSweep:
    def test_unrestricted_rows(self):
        text = CP_UNIFORM.replace("kind = uniform", "kind = unrestricted")
        rows = netreg.run_sweep(parse_scenario(text))
        for row in rows:
            assert row.r_v_star == pytest.approx(1.0, abs=1e-12)
            assert row.r_pi_star == pytest.approx(1.0, abs=1e-12)
            assert row.r_v_plus == pytest.approx(1.0, abs=1e-12)
            assert row.a_stat == pytest.approx(0.0, abs=1e-12)
            assert row.gap == pytest.approx(0.0, abs=1e-12)

    def test_row_identities(self):
        rows = netreg.run_sweep(parse_scenario(CP_UNIFORM))
        assert [r.delta for r in rows] == sorted(r.delta for r in rows)
        for row in rows:
            assert row.gap == row.r_v_plus - row.r_v_star
            assert row.r_v_plus >= row.r_v_star - 1e-8

    def test_failure_names_delta(self):
        # ceilings far above values make the equilibrium profit ratio negative
        text = INLINE.replace("lower = -inf 0", "lower = 40 40").replace("upper = 4 inf", "upper = 41 41")
        with pytest.raises(netreg.SweepError) as err:
            netreg.run_sweep(parse_scenario(text))
        assert err.value.delta is not None
        assert str(err.value.delta) in str(err.value)
        assert err.value.kind == "box"
        assert f"delta={err.value.delta!r} (box): " in str(err.value)

    def test_rows_match_single_point_api(self):
        scenarios = [parse_scenario(CP_UNIFORM), parse_scenario(INLINE), parse_scenario(AVERAGE)]
        scenarios += experiment_scenarios("figB2b", count=6).values()
        for s in scenarios:
            for row in netreg.run_sweep(s):
                prim = netreg.MarketPrimitives(net=s.network, a=s.a, c=s.c, delta=row.delta)
                p_star = netreg.project(prim, s.regulation)
                assert row.gap == netreg.gap(prim, s.regulation)
                assert (row.r_v_star, row.r_pi_star) == netreg.ratios(prim, p_star)
                assert row.a_stat == netreg.a_statistic(prim, p_star)

    def test_uniform_line_sweeps_apply_no_h(self, monkeypatch):
        # the uniform level is summed in the eigenbasis from delta-free data
        calls, h_apply = [], netreg.network.h_apply

        def counting(*args):
            calls.append(args)
            return h_apply(*args)

        for module in (netreg.network, netreg.market, netreg.regulation):
            monkeypatch.setattr(module, "h_apply", counting)
        uniform = CP_UNIFORM.replace("count = 12", "count = 10")
        zero_caps = uniform.replace("kind = uniform", "kind = price_difference\nmax_difference = 0")
        for text in (uniform, zero_caps):
            assert len(netreg.run_sweep(parse_scenario(text))) == 10
        assert calls == []


class TestCsv:
    def test_header_and_length(self, tmp_path):
        rows = netreg.run_sweep(parse_scenario(CP_UNIFORM))[:1]
        path = tmp_path / "one.csv"
        netreg.emit_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert path.read_text().endswith("\n")

    def test_bitwise_round_trip(self, tmp_path):
        rows = netreg.run_sweep(parse_scenario(CP_UNIFORM))
        path = tmp_path / "sweep.csv"
        netreg.emit_csv(rows, path)
        again = read_csv(path)
        assert again == rows

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            netreg.emit_csv([], tmp_path / "never.csv")

    def test_identical_text_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        netreg.emit_csv(netreg.run_sweep(parse_scenario(CP_UNIFORM)), p1)
        netreg.emit_csv(netreg.run_sweep(parse_scenario(CP_UNIFORM)), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestNamedExperiments:
    def test_unknown_name(self):
        with pytest.raises(netreg.UnknownExperimentError):
            netreg.run_named_experiment("fig99x")

    def test_stems_and_texts_pinned(self):
        families = ("52", "B1", "B2", "B3", "B4")
        assert netreg.EXPERIMENT_NAMES == tuple(f"fig{f}{case}" for f in families for case in "ab")
        texts = {}
        for name in netreg.EXPERIMENT_NAMES:
            scenarios = experiment_scenarios(name)
            capped = name[:-1] in ("figB2", "figB4")
            assert list(scenarios) == ([f"{name}_cap{cap}" for cap in ("0", "2.5", "5")] if capped else [name])
            texts.update((stem, format_scenario(s)) for stem, s in scenarios.items())
        # sha256 over "stem NUL text NUL" in sorted stem order: any edit to an
        # experiment's network, values, regulation or grid changes it
        digest = hashlib.sha256()
        for stem in sorted(texts):
            digest.update(stem.encode() + b"\0" + texts[stem].encode() + b"\0")
        assert digest.hexdigest() == "5b3a38a84e964a708acb8beab8472c53bc8a0f5dbd3ad037bf66fa34e33aca3e"

    def test_fig52a_shape(self):
        rows = netreg.run_named_experiment("fig52a", count=50)["fig52a"]
        assert len(rows) == 50
        assert rows[0].r_v_star > 1.0  # ban helps consumers with no spillovers
        assert abs(rows[-1].r_v_star - 1.0) < 0.02
        assert abs(rows[-1].r_pi_star - 1.0) < 0.02

    def test_fig52b_low_surplus_near_bound(self):
        rows = netreg.run_named_experiment("fig52b", count=24)["fig52b"]
        tail = rows[-6:]
        assert all(r.r_v_star < 1.0 for r in tail)

    def test_blue_over_red_everywhere(self):
        for name in netreg.EXPERIMENT_NAMES:
            for stem, rows in netreg.run_named_experiment(name, count=8).items():
                for row in rows:
                    assert row.r_v_plus >= row.r_v_star - 1e-8, (name, stem, row.delta)

    def test_difference_family_ordering(self):
        family = netreg.run_named_experiment("figB2b", count=10)
        mid = 5
        tight = family["figB2b_cap0"][mid]
        loose = family["figB2b_cap2.5"][mid]
        vacuous = family["figB2b_cap5"][mid]
        assert abs(loose.r_v_star - 1.0) < abs(tight.r_v_star - 1.0)
        assert abs(vacuous.r_v_star - 1.0) < abs(loose.r_v_star - 1.0)

    def test_widest_caps_match_unrestricted(self):
        family = netreg.run_named_experiment("figB2a", count=10)
        for row in family["figB2a_cap5"]:
            assert row.r_v_star == 1.0
            assert row.r_pi_star == 1.0
            assert row.gap == 0.0


class TestShippedScenarios:
    def test_all_parse_and_sweep(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent / "scenarios"
        paths = sorted(root.glob("*.scn"))
        assert len(paths) >= 3
        for path in paths:
            s = parse_scenario(path.read_text())
            text = format_scenario(s)
            assert format_scenario(parse_scenario(text)) == text
            short = parse_scenario(text.replace(f"count = {s.grid_count}", "count = 4"))
            rows = netreg.run_sweep(short)
            assert len(rows) == 4


class TestCli:
    def test_sweep_to_file(self, tmp_path, capsys):
        scen = tmp_path / "case.scn"
        scen.write_text(CP_UNIFORM)
        out = tmp_path / "rows.csv"
        assert main(["sweep", str(scen), "-o", str(out)]) == 0
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_sweep_to_stdout(self, tmp_path, capsys):
        scen = tmp_path / "case.scn"
        scen.write_text(CP_UNIFORM)
        assert main(["sweep", str(scen)]) == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)

    def test_experiment_deterministic(self, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["experiment", "figB3a", "-o", str(out1), "--count", "6"]) == 0
        assert main(["experiment", "figB3a", "-o", str(out2), "--count", "6"]) == 0
        f1 = out1 / "figB3a.csv"
        f2 = out2 / "figB3a.csv"
        assert f1.read_bytes() == f2.read_bytes()

    def test_experiment_family_files(self, tmp_path):
        assert main(["experiment", "figB4a", "-o", str(tmp_path), "--count", "5"]) == 0
        stems = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert stems == ["figB4a_cap0.csv", "figB4a_cap2.5.csv", "figB4a_cap5.csv"]

    def test_analyze_uniform(self, tmp_path, capsys):
        scen = tmp_path / "case.scn"
        scen.write_text(CP_UNIFORM)
        assert main(["analyze", str(scen)]) == 0
        out = capsys.readouterr().out
        assert "inefficient" in out
        assert "neutral" in out
        assert "consumers gain" in out

    def test_analyze_without_ban_analysis(self, tmp_path, capsys):
        # flat values make the discrimination-ban analysis inapplicable
        scen = tmp_path / "flat.scn"
        scen.write_text(CP_UNIFORM.replace("theta = 20 10", "theta = 15 15"))
        assert main(["analyze", str(scen)]) == 0
        assert "not applicable" in capsys.readouterr().out

    def test_analyze_with_costs_skips_ban_analysis(self, tmp_path, capsys):
        scen = tmp_path / "costs.scn"
        scen.write_text(INLINE)
        assert main(["analyze", str(scen)]) == 0
        assert "not applicable (marginal costs are nonzero)" in capsys.readouterr().out

    def test_analyze_inexact_interval(self, tmp_path, capsys):
        # two one-market ceilings as halfspaces: no exact statistic interval
        scen = tmp_path / "rows.scn"
        scen.write_text(HALFSPACES)
        assert main(["analyze", str(scen)]) == 0
        out = capsys.readouterr().out
        assert "large-spillover class: not determined (no exact statistic interval" in out
        assert "limit ratios" not in out

    def test_validation_exit_code(self, tmp_path, capsys):
        scen = tmp_path / "bad.scn"
        scen.write_text(CP_UNIFORM.replace("max_fraction = 0.999", "max_fraction = 2.0"))
        assert main(["sweep", str(scen)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["inf", "nan"])
    def test_non_finite_weight_exit_code(self, tmp_path, capsys, weight):
        scen = tmp_path / "bad_weight.scn"
        scen.write_text(INLINE.replace("adjacency = 0 1; 1 0", f"adjacency = 0 {weight}; {weight} 0"))
        assert main(["sweep", str(scen)]) == 1
        assert f"g[0,1]={weight} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_value_exit_code(self, tmp_path, capsys, value):
        scen = tmp_path / "bad_value.scn"
        scen.write_text(INLINE.replace("a = 6 8", f"a = 6 {value}"))
        assert main(["sweep", str(scen)]) == 1
        assert f"a[1]={value} must be finite" in capsys.readouterr().err

    def test_numerical_exit_code(self, tmp_path, capsys):
        scen = tmp_path / "hard.scn"
        scen.write_text(
            INLINE.replace("lower = -inf 0", "lower = 40 40").replace("upper = 4 inf", "upper = 41 41")
        )
        assert main(["sweep", str(scen)]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["sweep", "/nonexistent/path.scn"]) == 1
