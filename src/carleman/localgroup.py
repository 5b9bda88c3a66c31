"""Local Lie group on the covering of the punctured plane.

Points of the plane act on each other by translation; removing the point
sigma = (-1, 0) and passing to the universal cover turns this into a local
group. An element is a base point z and an integer sheet, the sheets cut
along the ray {y = 0, x < -1}; y = 0 counts as the upper side, where atan2
gives pi. The continuous argument theta of z - sigma is derived from both:
the principal atan2 plus 2 pi times the sheet. The sheet is exact: a float
is a dyadic rational, so a segment's signed crossing of the cut and its
passage through the puncture are decided on Fraction values. Only a float
angle handed to CoveredPoint is rounded to a sheet, within ANGLE_TOL. The
sheet index of an element is its sheet minus the straight lift's sheet.

Product convention: the product of xbar and ybar lifts the RIGHT factor's
canonical straight path, translated to start at the base of xbar. The right
factor must itself be straight-representable (its sheet must agree with its
straight lift); lifting arbitrary path histories is excluded from the domain
because translation moves the puncture and changes homotopy classes. That
restriction is exactly the locality of the local group.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import record
from .errors import ReferencePathError, SingularPath, UndefinedInverse, UndefinedProduct

SINGULAR_POINT = (-1.0, 0.0)
ANGLE_TOL = 1e-6 * 2 * math.pi
_SIGMA = tuple(map(Fraction, SINGULAR_POINT))


def _offset(z) -> tuple:
    """z - sigma, exactly."""
    return (Fraction(z[0]) - _SIGMA[0], Fraction(z[1]) - _SIGMA[1])


def _principal(z) -> float:
    """atan2 of z - sigma; adding 0.0 turns y = -0.0 into +0.0, so the cut reads pi."""
    return math.atan2(z[1] - SINGULAR_POINT[1] + 0.0, z[0] - SINGULAR_POINT[0])


@record
class CoveredPoint:
    """Point of the punctured plane on an integer sheet of the cover."""

    z: tuple
    _sheet: int

    def __init__(self, z, theta: float):
        if _offset(z) == (0, 0):
            raise ValueError("point coincides with the puncture")
        turn = theta - _principal(z)
        residue = math.remainder(turn, 2 * math.pi)  # ValueError for an infinite turn
        if not abs(residue) <= ANGLE_TOL:  # written so that NaN fails too
            raise ValueError("stored angle is inconsistent with the base point")
        _place(self, z, round((turn - residue) / (2 * math.pi)))

    @property
    def theta(self) -> float:
        """Continuous argument of z - sigma on this sheet."""
        return _principal(self.z) + 2 * math.pi * self._sheet


def _place(point: CoveredPoint, z, sheet: int) -> CoveredPoint:
    object.__setattr__(point, "z", z)
    object.__setattr__(point, "_sheet", sheet)
    return point


def identity_element() -> CoveredPoint:
    return CoveredPoint((0.0, 0.0), 0.0)


def lift_segment(start: CoveredPoint, target) -> CoveredPoint:
    """Carry the sheet along the straight segment: +1 down across the cut, -1 up."""
    target = (float(target[0]), float(target[1]))
    if target == start.z:
        return start
    (ax, ay), (bx, by) = _offset(start.z), _offset(target)
    cross = ax * by - ay * bx
    if cross == 0 and ax * bx + ay * by <= 0:
        raise SingularPath(
            f"segment from {start.z} to {target} passes through the puncture"
        )
    sheet = start._sheet
    # A segment that changes side meets y = 0 at x = sigma_x - cross / (ay - by);
    # left of sigma, that point lies on the cut.
    if (ay >= 0) != (by >= 0) and cross / (ay - by) > 0:
        sheet += 1 if by < 0 else -1
    return _place(object.__new__(CoveredPoint), target, sheet)


def _straight_lift(target) -> CoveredPoint:
    try:
        return lift_segment(identity_element(), target)
    except SingularPath as exc:
        raise ReferencePathError(str(exc)) from exc


def is_straight_representable(p: CoveredPoint) -> bool:
    """True when p lies on the sheet of the straight lift from the identity."""
    try:
        return _straight_lift(p.z)._sheet == p._sheet
    except ReferencePathError:
        return False


def local_product(x: CoveredPoint, y: CoveredPoint) -> CoveredPoint:
    """Lift, starting at x, of the straight segment from base(x) to base(x) + base(y).

    Defined only when y is straight-representable and the translated segment
    clears the puncture; normalized so the identity laws hold on the nose.
    """
    if not is_straight_representable(y):
        raise UndefinedProduct(
            "right factor is not straight-representable; product undefined here"
        )
    endpoint = (x.z[0] + y.z[0], x.z[1] + y.z[1])
    try:
        return lift_segment(x, endpoint)
    except SingularPath as exc:
        raise UndefinedProduct(str(exc)) from exc


def local_inverse(x: CoveredPoint) -> CoveredPoint:
    """The element y with local_product(y, x) = identity, when defined."""
    if not is_straight_representable(x):
        raise UndefinedInverse("element is not straight-representable")
    neg = (-x.z[0], -x.z[1])
    try:
        y = lift_segment(identity_element(), neg)
    except SingularPath as exc:
        raise UndefinedInverse(str(exc)) from exc
    try:
        round_trip = local_product(y, x)
    except UndefinedProduct as exc:
        raise UndefinedInverse(str(exc)) from exc
    if round_trip != identity_element():
        raise UndefinedInverse("round trip failed to return to the identity")
    return y


def sheet_index(x: CoveredPoint) -> int:
    """Winding count of x against its straight reference path."""
    return x._sheet - _straight_lift(x.z)._sheet


@record
class AssociativityReport:
    """Both bracketings of the triangle product and their sheet indices."""

    a: tuple
    b: tuple
    c: tuple
    left: CoveredPoint
    right: CoveredPoint
    sheet_left: int
    sheet_right: int
    triangle_winding: int

    @property
    def broken(self) -> bool:
        return self.sheet_left != self.sheet_right

    def to_json(self) -> dict:
        return {
            "a": list(self.a),
            "b": list(self.b),
            "c": list(self.c),
            "left_base": list(self.left.z),
            "right_base": list(self.right.z),
            "left_theta_over_pi": self.left.theta / math.pi,
            "right_theta_over_pi": self.right.theta / math.pi,
            "sheet_left": self.sheet_left,
            "sheet_right": self.sheet_right,
            "triangle_winding": self.triangle_winding,
            "broken": self.broken,
        }


def associativity_demo() -> AssociativityReport:
    """Translate around the triangle (-2,1), (0,-2), (2,1) both ways.

    The closed triangle encircles the puncture once, so the two bracketings
    end at the same base point (the origin) but on different sheets.
    """
    a, b, c = (-2.0, 1.0), (0.0, -2.0), (2.0, 1.0)
    abar, bbar, cbar = map(_straight_lift, (a, b, c))
    left = local_product(local_product(abar, bbar), cbar)
    right = local_product(abar, local_product(bbar, cbar))
    walk = identity_element()
    for corner in (a, (a[0] + b[0], a[1] + b[1]), (0.0, 0.0)):
        walk = lift_segment(walk, corner)
    return AssociativityReport(
        a, b, c, left, right, sheet_index(left), sheet_index(right), walk._sheet
    )
