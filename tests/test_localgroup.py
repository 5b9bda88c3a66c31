import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from carleman import localgroup as lg
from carleman.errors import (
    ReferencePathError,
    SingularPath,
    UndefinedInverse,
    UndefinedProduct,
)
from oracles import float_winding, on_segment


def lifted(x, y):
    return lg.lift_segment(lg.identity_element(), (x, y))


class TestLiftSegment:
    def test_single_chart_angle(self):
        p = lifted(2, 1)
        assert p.z == (2.0, 1.0)
        assert p.theta == pytest.approx(math.atan2(1, 3), abs=1e-12)

    def test_zero_length(self):
        e = lg.identity_element()
        assert lg.lift_segment(e, (0.0, 0.0)) is e

    def test_through_puncture(self):
        with pytest.raises(SingularPath):
            lifted(-2, 0)

    def test_reverse_restores_angle(self):
        p = lifted(-2, 1)
        q = lg.lift_segment(p, (1.0, 2.0))
        back = lg.lift_segment(q, (-2.0, 1.0))
        assert back.theta == pytest.approx(p.theta, abs=1e-9)

    def test_winding_accumulates_beyond_2pi(self):
        # walk a square loop around the puncture and return
        path = [(1.0, 1.0), (-3.0, 1.0), (-3.0, -1.0), (1.0, -1.0), (1.0, 1.0)]
        point = lifted(1, 1)
        start_theta = point.theta
        for target in path[1:]:
            point = lg.lift_segment(point, target)
        assert point.theta - start_theta == pytest.approx(2 * math.pi, abs=1e-9)


class TestExactSheets:
    def test_point_next_to_the_puncture_is_valid(self):
        p = lg.CoveredPoint((-1.0, 1e-10), math.pi / 2)
        assert p.theta == math.pi / 2
        assert lg.sheet_index(p) == 0

    def test_segment_just_above_the_puncture_lifts(self):
        p = lifted(-2.0, 2e-10)
        assert lg.sheet_index(p) == 0
        assert lg.is_straight_representable(p)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_angle_must_be_finite(self, theta):
        with pytest.raises(ValueError):
            lg.CoveredPoint((1.0, 1.0), theta)

    def test_crossing_the_cut_next_to_the_puncture(self):
        below = lg.lift_segment(lifted(-2.0, 1e-12), (-2.0, -1e-12))
        assert lg.sheet_index(below) == 1
        assert not lg.is_straight_representable(below)


vertices = st.tuples(st.integers(-5, 5), st.integers(-5, 5))


@given(st.lists(vertices, min_size=3, max_size=6))
def test_closed_walk_ends_on_its_winding_sheet(polygon):
    # from the identity to the first corner, once round the polygon, and back
    # to the first corner: the sheet index there is the polygon's winding
    path = [(0, 0)] + polygon + polygon[:1]
    assume(not any(on_segment((-1, 0), p, q) for p, q in zip(path, path[1:])))
    point = lg.identity_element()
    for corner in path[1:]:
        point = lg.lift_segment(point, corner)
    assert lg.sheet_index(point) == float_winding(polygon, (-1, 0))


class TestLocalProduct:
    def test_identity_laws(self):
        e = lg.identity_element()
        for base in [(-2, 1), (0, -2), (2, 1), (3, 0.5)]:
            x = lifted(*base)
            assert lg.local_product(e, x) == x
            assert lg.local_product(x, e) == x

    def test_past_branch_direction(self):
        a = lifted(-2, 1)
        b = lifted(0, -2)
        ab = lg.local_product(a, b)
        assert ab.z == (-2.0, -1.0)
        assert ab.theta == pytest.approx(5 * math.pi / 4, abs=1e-9)

    def test_right_factor_must_be_straight(self):
        a = lifted(2, 1)
        off_sheet = lg.CoveredPoint(a.z, a.theta + 2 * math.pi)
        with pytest.raises(UndefinedProduct):
            lg.local_product(lifted(1, 1), off_sheet)

    def test_translated_segment_must_clear(self):
        # both factors are fine, but the translated path (0,1) -> (-2,-1)
        # passes straight through the puncture
        x = lifted(0, 1)
        y = lifted(-2, -2)
        with pytest.raises(UndefinedProduct):
            lg.local_product(x, y)


class TestLocalInverse:
    def test_identity(self):
        e = lg.identity_element()
        assert lg.local_inverse(e) == e

    def test_round_trip(self):
        x = lifted(2, 1)
        y = lg.local_inverse(x)
        assert y.z == (-2.0, -1.0)
        rt = lg.local_product(y, x)
        assert math.hypot(*rt.z) < 1e-9
        assert abs(rt.theta) < 1e-9
        other = lg.local_product(x, y)
        assert math.hypot(*other.z) < 1e-9
        assert abs(other.theta) < 1e-9

    def test_obstructed_ray(self):
        with pytest.raises(UndefinedInverse):
            lg.local_inverse(lifted(2, 0))


class TestSheetIndex:
    def test_identity_sheet(self):
        assert lg.sheet_index(lg.identity_element()) == 0

    def test_straight_lifts_are_sheet_zero(self):
        for base in [(1, 1), (-2, 1), (0, -2), (2, 1)]:
            assert lg.sheet_index(lifted(*base)) == 0

    def test_full_turn_is_sheet_one(self):
        p = lifted(1, 1)
        raised = lg.CoveredPoint(p.z, p.theta + 2 * math.pi)
        assert lg.sheet_index(raised) == 1

    def test_reference_path_error(self):
        # reachable only by a detour; the straight reference hits the puncture
        point = lg.CoveredPoint((-2.0, 0.0), math.pi)
        with pytest.raises(ReferencePathError):
            lg.sheet_index(point)


class TestAssociativityDemo:
    def test_report(self):
        rep = lg.associativity_demo()
        assert rep.left.z == (0.0, 0.0)
        assert rep.right.z == (0.0, 0.0)
        assert math.hypot(*rep.left.z) < 1e-12
        assert math.hypot(*rep.right.z) < 1e-12
        assert rep.sheet_left == 1
        assert rep.sheet_right == 0
        assert rep.triangle_winding == 1
        assert rep.broken
        assert rep.left.theta == pytest.approx(2 * math.pi, abs=1e-9)
        assert rep.right.theta == pytest.approx(0.0, abs=1e-9)

    def test_json(self):
        data = lg.associativity_demo().to_json()
        assert data["sheet_left"] == 1
        assert data["sheet_right"] == 0
        assert data["broken"] is True
