"""Interval Funk distance, chains, the estimator, and the checkers."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from finslerproj import distance
from finslerproj.cli import dump_json
from finslerproj.distance import (Chain, ChainLink, IntervalPair,
                                  PseudoDistanceOptions, corollary_check, funk_distance_interval,
                                  positivity_probe, pseudo_distance_upper,
                                  schwarz_ratio)
from finslerproj.errors import (ConstructionError, DomainError, HypothesisError,
                                InadmissibleChartError)
from finslerproj.metrics import funk_ball, interval_funk_eval, klein_metric

from test_projective import SphereMetric


def quad_oracle(a, b, k):
    d = b - a
    val, _ = integrate.quad(lambda t: interval_funk_eval(a + t * d, d, k),
                            0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


class TestIntervalDistance:
    def test_pinned_values(self):
        assert abs(funk_distance_interval(0.0, 0.5) - math.log(2.0)) <= 1e-12
        assert abs(funk_distance_interval(0.5, 0.0) - math.log(1.5)) <= 1e-12

    def test_identity(self):
        assert funk_distance_interval(0.3, 0.3) == 0.0

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_matches_line_integral(self, k, rng):
        for _ in range(20):
            a, b = rng.uniform(-0.95, 0.95, 2)
            assert funk_distance_interval(a, b, k) == pytest.approx(
                quad_oracle(a, b, k), abs=1e-9)

    def test_axioms(self, rng):
        for _ in range(300):
            a, b, c = rng.uniform(-0.95, 0.95, 3)
            dab = funk_distance_interval(a, b)
            assert dab >= 0.0
            if a != b:
                assert dab > 0.0
            assert funk_distance_interval(a, c) <= dab + funk_distance_interval(b, c) + 1e-12
            lo, mid, hi = sorted((a, b, c))
            assert abs(funk_distance_interval(lo, hi)
                       - funk_distance_interval(lo, mid)
                       - funk_distance_interval(mid, hi)) <= 1e-10

    def test_asymmetry_exhibited(self):
        assert funk_distance_interval(0.0, 0.5) != funk_distance_interval(0.5, 0.0)

    def test_interval_pair_validation(self):
        with pytest.raises(DomainError):
            IntervalPair(1.0, 0.0)
        with pytest.raises(ConstructionError):
            IntervalPair(0.0, 0.5, k=0.0)
        with pytest.raises(ConstructionError):
            IntervalPair(0.0, 0.5, k=math.inf)
        assert funk_distance_interval(IntervalPair(0.0, 0.5)) == pytest.approx(
            math.log(2.0))


class TestChains:
    def test_empty_motion_chain(self, klein2):
        link = ChainLink.degenerate_link(np.array([0.1, 0.2]))
        chain = Chain(links=[link], waypoints=[np.array([0.1, 0.2])] * 2)
        assert chain.length == 0.0

    def test_two_link_concatenation_adds(self, klein2):
        opts = PseudoDistanceOptions()
        first = pseudo_distance_upper(klein2, [0.0, 0.0], [0.3, 0.0], opts)
        second = pseudo_distance_upper(klein2, [0.3, 0.0], [0.5, 0.0], opts)
        links = [first.canonical_chain.links[0],
                 second.canonical_chain.links[0]]
        chain = Chain(links=links, waypoints=[np.array([0.0, 0.0]),
                                              np.array([0.3, 0.0]),
                                              np.array([0.5, 0.0])])
        assert chain.length == pytest.approx(
            links[0].funk_length + links[1].funk_length)

    def test_collinear_split_on_shared_chart_adds_exactly(self, klein2):
        # one geodesic, one chart, interval waypoint between the endpoints:
        # the oriented interval triangle equality transfers to the chain
        opts = PseudoDistanceOptions()
        single = pseudo_distance_upper(klein2, [0.0, 0.0], [0.5, 0.0], opts)
        link = single.canonical_chain.links[0]
        mid_u = 0.3
        mid_point = link.map_point(mid_u)
        first = ChainLink(geodesic=link.geodesic, parameter=link.parameter,
                          chart=link.chart, a=link.a, b=mid_u, k=link.k,
                          start_point=link.start_point, end_point=mid_point,
                          stages=link.stages)
        second = ChainLink(geodesic=link.geodesic, parameter=link.parameter,
                           chart=link.chart, a=mid_u, b=link.b, k=link.k,
                           start_point=mid_point, end_point=link.end_point,
                           stages=link.stages)
        chain = Chain(links=[first, second],
                      waypoints=[link.start_point, mid_point, link.end_point])
        assert chain.length == pytest.approx(link.funk_length, abs=1e-10)

    def test_waypoint_mismatch_rejected(self, klein2):
        link = ChainLink.degenerate_link(np.array([0.1, 0.2]))
        with pytest.raises(ConstructionError):
            Chain(links=[link], waypoints=[np.array([0.1, 0.2]),
                                           np.array([0.3, 0.2])])

    def test_link_endpoint_consistency(self, klein2):
        opts = PseudoDistanceOptions()
        single = pseudo_distance_upper(klein2, [0.0, 0.0], [0.5, 0.0], opts)
        link = single.canonical_chain.links[0]
        assert np.abs(link.map_point(link.a) - [0.0, 0.0]).max() <= 1e-6
        assert np.abs(link.map_point(link.b) - [0.5, 0.0]).max() <= 1e-6

    def test_start_is_checked_before_the_end_is_solved(self, klein2, monkeypatch):
        link = pseudo_distance_upper(klein2, [0.0, 0.0], [0.5, 0.0]).canonical_chain.links[0]
        solved = []
        solve = ChainLink.parameter_of
        monkeypatch.setattr(ChainLink, "parameter_of",
                            lambda self, u: solved.append(u) or solve(self, u))
        with pytest.raises(ConstructionError, match="waypoints"):
            ChainLink(geodesic=link.geodesic, parameter=link.parameter, chart=link.chart,
                      a=link.a, b=link.b, k=link.k, start_point=[0.1, 0.0],
                      end_point=link.end_point, stages=link.stages)
        assert solved == [link.a]


class TestPseudoDistance:
    def test_coincident_points(self, klein2):
        report = pseudo_distance_upper(klein2, [0.2, 0.1], [0.2, 0.1])
        assert report.estimate == 0.0
        assert report.canonical_value == 0.0
        assert report.chain.length == 0.0

    def test_euclid_estimates_vanish(self, eucl2, rng):
        for _ in range(5):
            x = rng.uniform(-1, 1, 2)
            y = rng.uniform(-1, 1, 2)
            assert pseudo_distance_upper(eucl2, x, y).estimate <= 1e-9

    def test_klein_identity_chart_value(self, klein2):
        report = pseudo_distance_upper(klein2, [0.0, 0.0], [0.5, 0.0])
        assert report.canonical_value == pytest.approx(math.log(2.0), abs=1e-4)

    def test_klein_canonical_formula(self, klein2):
        # canonical single-segment value is L + ln cosh L for a pair at
        # geodesic distance L
        for target in (0.1, 0.5, 1.0):
            x_target = math.tanh(target)
            report = pseudo_distance_upper(klein2, [0.0, 0.0], [x_target, 0.0])
            L = report.geodesic_distance
            assert report.canonical_value == pytest.approx(
                L + math.log(math.cosh(L)), abs=1e-6)

    def test_search_never_beats_zero_and_reports_chain(self, klein2):
        report = pseudo_distance_upper(klein2, [0.0, 0.0], [0.5, 0.0])
        assert 0.0 <= report.estimate <= report.canonical_value
        assert report.chain.links[0].funk_length == pytest.approx(report.estimate,
                                                                  abs=1e-12)

    def test_monotone_improvement(self, klein2):
        last = math.inf
        for budget in (8, 16, 32, 64):
            est = pseudo_distance_upper(
                klein2, [0.1, 0.2], [-0.3, 0.4],
                PseudoDistanceOptions(budget=budget)).estimate
            assert est <= last + 1e-15
            last = est

    def test_triangle_property(self, klein2, rng):
        options = PseudoDistanceOptions(budget=10)
        for _ in range(10):
            pts = [0.7 * klein2.random_interior_point(rng) for _ in range(3)]
            dxz = pseudo_distance_upper(klein2, pts[0], pts[2], options).estimate
            dxy = pseudo_distance_upper(klein2, pts[0], pts[1], options).estimate
            dyz = pseudo_distance_upper(klein2, pts[1], pts[2], options).estimate
            assert dxz <= dxy + dyz + 1e-6

    def test_subdivision_never_worse(self, klein2):
        single = pseudo_distance_upper(klein2, [0.0, 0.0], [0.5, 0.0],
                                       PseudoDistanceOptions(budget=16))
        split = pseudo_distance_upper(klein2, [0.0, 0.0], [0.5, 0.0],
                                      PseudoDistanceOptions(budget=16, segments=3))
        assert split.estimate <= single.estimate + 1e-12

    def test_options_validation(self):
        with pytest.raises(ConstructionError):
            PseudoDistanceOptions(segments=5)
        with pytest.raises(ConstructionError):
            PseudoDistanceOptions(budget=0)
        with pytest.raises(ConstructionError):
            PseudoDistanceOptions(k=-1.0)
        with pytest.raises(ConstructionError):
            PseudoDistanceOptions(c=0.0)
        with pytest.raises(ConstructionError):
            PseudoDistanceOptions(c=-1.0)

    def test_pole_separated_endpoints_inadmissible(self):
        sphere = SphereMetric()
        x = np.array([math.tan(-1.3), 0.0])
        y = np.array([math.tan(1.3), 0.0])
        # arc length between them is 2.6 > pi/2, so a parameter pole sits
        # between the endpoints and no single Moebius chart covers both
        with pytest.raises(InadmissibleChartError) as info:
            pseudo_distance_upper(sphere, x, y,
                                  PseudoDistanceOptions(extension_cap=4.0,
                                                        bvp_tolerance=1e-6))
        assert info.value.attainable_range is not None

    def test_subdivision_reuses_the_parent_line(self, klein2, monkeypatch):
        calls = []
        for name in ("connect", "extend_geodesic", "projective_parameter"):
            original = getattr(distance, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(distance, name, counting)
        report = pseudo_distance_upper(klein2, [0.1, 0.2], [-0.3, 0.4],
                                       PseudoDistanceOptions(budget=12, segments=4))
        assert sorted(calls) == ["connect", "extend_geodesic", "projective_parameter"]
        for link in report.chain.links:
            assert link.parameter is report.canonical_chain.links[0].parameter

    def test_cap_bound_flag(self, klein2):
        # the Funk chart search runs into its reach +-TAU_MAX on this pair
        report = pseudo_distance_upper(klein2, [0.1, 0.2], [-0.3, 0.4],
                                       PseudoDistanceOptions(budget=48))
        assert report.estimate_cap_bound is True
        assert report.to_dict()["estimate_cap_bound"] is True
        split = pseudo_distance_upper(klein2, [0.1, 0.2], [-0.3, 0.4],
                                      PseudoDistanceOptions(budget=12, segments=2))
        assert split.estimate_cap_bound is True
        same = pseudo_distance_upper(klein2, [0.1, 0.2], [0.1, 0.2])
        assert same.estimate_cap_bound is False

    def test_subdivision_builds_one_canonical_link(self, klein2, monkeypatch):
        canonical = []
        check = ChainLink.__post_init__

        def counting(self):
            if self.stages is not None and self.stages[1:] == (0.0, False):
                canonical.append(self)
            check(self)

        monkeypatch.setattr(ChainLink, "__post_init__", counting)
        report = pseudo_distance_upper(klein2, [0.1, 0.2], [-0.3, 0.4],
                                       PseudoDistanceOptions(budget=12, segments=2))
        assert canonical == report.canonical_chain.links

    @pytest.mark.parametrize("make, x, y, canonical, geodesic", [
        (lambda: klein_metric(2), [0.1, 0.2], [-0.3, 0.4],
         "0x1.3a616c4b898dfp-1", "0x1.fbbae56977c62p-2"),
        (lambda: funk_ball(3), [0.1, 0.2, 0.0], [-0.3, 0.4, 0.0],
         "0x1.69e67a5a436cap-2", "0x1.3a616c6650078p-1"),
    ])
    def test_pinned_values(self, make, x, y, canonical, geodesic):
        # float.hex values frozen from the closed forms on floats; the Klein pair
        # from its one spray formula, the jet closed form
        report = pseudo_distance_upper(make(), x, y,
                                       PseudoDistanceOptions(budget=12, segments=2))
        assert report.canonical_value.hex() == canonical
        assert report.geodesic_distance.hex() == geodesic

    def test_canonical_chain_kept_off_the_dict(self, klein2):
        report = pseudo_distance_upper(klein2, [0.1, 0.2], [-0.3, 0.4])
        assert report.canonical_chain.length == report.canonical_value
        assert report.canonical_chain.links[0].stages[1:] == (0.0, False)
        assert "canonical_chain" not in report.to_dict()
        same = pseudo_distance_upper(klein2, [0.1, 0.2], [0.1, 0.2])
        assert same.canonical_chain is same.chain

    def test_lower_bound_fields(self, klein2):
        report = pseudo_distance_upper(klein2, [0.0, 0.0], [0.5, 0.0],
                                       PseudoDistanceOptions(c=1.0))
        assert report.hypothesis_passed
        assert report.lower_bound == pytest.approx(2.0 * math.atanh(0.5), abs=1e-6)
        assert report.lower_bound_alternate == pytest.approx(math.atanh(0.5), abs=1e-6)
        # the documented finding: the optimized estimate undercuts the
        # printed bound, and even the canonical value undercuts the doubled
        # constant
        assert report.estimate_above_lower_bound is False
        assert report.canonical_above_lower_bound is False


@pytest.fixture(scope="module")
def klein_link(klein2):
    single = pseudo_distance_upper(klein2, [0.0, 0.0], [0.5, 0.0], PseudoDistanceOptions())
    return single.canonical_chain.links[0]


class TestSchwarzRatio:

    def test_closed_form_profile(self, klein2, klein_link):
        grid = np.linspace(-0.9, 0.9, 13)
        report = schwarz_ratio(klein2, klein_link, grid, c=1.0)
        assert np.abs(report.h_values - 1.0 / (1.0 + grid)).max() <= 1e-6

    def test_pinned_h_values(self, klein2, klein_link):
        report = schwarz_ratio(klein2, klein_link, [0.0, 0.5], c=1.0)
        assert report.h_values[0] == pytest.approx(1.0, abs=1e-9)
        assert report.h_values[1] == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_sup_bound_and_diagnosis(self, klein2, klein_link):
        report = schwarz_ratio(klein2, klein_link, np.linspace(-0.9, 0.9, 13), c=1.0)
        assert report.empirical_sup == pytest.approx(10.0, abs=1e-6)
        assert report.sup_at == -0.9
        assert report.bound == pytest.approx(0.5)
        assert not report.passed
        assert report.monotonicity == "no interior maximum"

    def test_euclid_hypothesis_refused(self, eucl2):
        single = pseudo_distance_upper(eucl2, [0.0, 0.0], [0.5, 0.0], PseudoDistanceOptions())
        with pytest.raises(HypothesisError) as info:
            schwarz_ratio(eucl2, single.canonical_chain.links[0],
                          [0.0, 0.5], c=1.0)
        assert info.value.report is not None

    def test_degenerate_link_refused(self, klein2):
        link = ChainLink.degenerate_link(np.array([0.1, 0.0]))
        with pytest.raises(DomainError):
            schwarz_ratio(klein2, link, [0.0, 0.5], c=1.0)

    def test_grid_validation(self, klein2, klein_link):
        with pytest.raises(DomainError):
            schwarz_ratio(klein2, klein_link, [0.0, 1.0], c=1.0)
        with pytest.raises(ConstructionError):
            schwarz_ratio(klein2, klein_link, [0.0, 0.5], c=-1.0)


class TestCorollary:
    def test_klein_both_constants(self, klein2):
        single = pseudo_distance_upper(klein2, [0.0, 0.0], [0.5, 0.0], PseudoDistanceOptions())
        report = corollary_check(klein2, single.canonical_chain.links[0], c=1.0)
        assert report.lhs == pytest.approx(math.log(2.0), abs=1e-6)
        assert report.rhs == pytest.approx(2.0 * math.atanh(0.5), abs=1e-6)
        assert not report.passed
        assert report.rhs_alternate == pytest.approx(math.atanh(0.5), abs=1e-6)
        assert report.passed_alternate

    def test_degenerate_link_passes(self, klein2):
        link = ChainLink.degenerate_link(np.array([0.1, 0.0]))
        report = corollary_check(klein2, link, c=1.0)
        assert report.lhs == 0.0
        assert report.passed and report.passed_alternate


class TestPositivityProbe:
    def test_klein_pairs(self, klein2):
        pairs = [([0.0, 0.0], [math.tanh(d), 0.0]) for d in (0.1, 0.5, 1.0)]
        report = positivity_probe(klein2, pairs, c=1.0)
        assert report.all_positive
        for entry, d in zip(report.entries, (0.1, 0.5, 1.0)):
            assert entry.hypothesis_passed
            assert entry.canonical_value == pytest.approx(
                d + math.log(math.cosh(d)), abs=1e-6)

    def test_identical_points_entry(self, klein2):
        report = positivity_probe(klein2, [([0.1, 0.0], [0.1, 0.0])], c=1.0)
        entry = report.entries[0]
        assert entry.estimate == 0.0
        assert entry.positive is None

    def test_report_dict_pinned(self, klein2):
        report = positivity_probe(klein2, [([0.0, 0.0], [0.5, 0.0]), ([0.1, 0.0], [0.1, 0.0])],
                                  c=1.0, budget=4)
        pinned = Path(__file__).parent / "pins" / "positivity_klein.json"
        assert dump_json(report.to_dict()) + "\n" == pinned.read_text()

    def test_euclid_hypothesis_diagnostic(self, eucl2):
        report = positivity_probe(eucl2, [([0.0, 0.0], [0.5, 0.0])], c=1.0)
        assert not report.entries[0].hypothesis_passed
        assert report.entries[0].estimate is None
