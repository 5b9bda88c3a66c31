"""Every frozen record class against a stdlib twin.

For each record class the test builds, with `dataclasses.make_dataclass`,
a frozen dataclass with the same fields and defaults. That twin shares no
code with the package's record helper; `repr`, `==`, `hash` and argument
binding must agree with it.
"""

import dataclasses
import math
from fractions import Fraction as F

import pytest

from carleman import convergence, goldens, linalg, localgroup, matrices, scenarios, series
from carleman._record import FrozenRecordError, record
from carleman.polynomials import Poly

GEOMETRIC = matrices.builtin_carleman_handle("geometric")
TRANSLATION = matrices.translation_handle(F(1))
WINDOW = matrices.identity_matrix(2)
T = Poly.variable("t", ("t",))
PLANE = localgroup.CoveredPoint((1.0, 0.0), 0.0)
TURNED = localgroup.CoveredPoint((1.0, 0.0), 2 * math.pi)
PROBE = convergence.EntryProbeReport((2, 1), "finite-exact", F(1), (), F(0), 8, 4)
JUNCTION = convergence.JunctionReport(1, "latent", {"finite-exact": 1}, (PROBE,))


def first_coefficient(k):
    return F(1, math.factorial(k))


# two full value tuples per class, in field order, differing in one field
SAMPLES = {
    series.GroupoidElement: ((F(0), (F(1), F(2), F(3))), (F(0), (F(1), F(2), F(4)))),
    series.AnalyticCoefficientStream: (
        ("exp", first_coefficient, math.inf),
        ("exp", first_coefficient, 1.0),
    ),
    matrices.TruncatedMatrix: (
        (2, WINDOW.rows, "rational", True, "general"),
        (2, WINDOW.rows, "rational", False, "diagonal"),
    ),
    matrices.MonomialColumn: ((F(1, 2), (F(1), F(1, 2))), (F(1, 3), (F(1), F(1, 3)))),
    matrices.LatentProduct: (
        ((GEOMETRIC, TRANSLATION), (matrices.LATENT,)),
        ((TRANSLATION, GEOMETRIC), (matrices.LATENT,)),
    ),
    matrices.MonomialCheck: ((F(0), (F(0), F(0)), 1e-9, True), (F(1), (F(0), F(1)), 1e-9, False)),
    linalg.PermutationSpec: (((2, 1),), ((1, 2),)),
    linalg.BlockInjection: (((1, 3),), ((2, 3),)),
    linalg.FiniteSupportVector: ((((1, F(1)),),), (((2, F(-1, 2)),),)),
    linalg.GammaVerdict: (
        (linalg.NO_OBSTRUCTION, None, 3, 4, None, False),
        (linalg.KERNEL_CERTIFIED, linalg.FiniteSupportVector(((1, F(1)),)), 3, 4, "rank", True),
    ),
    convergence.EntryProbeReport: (
        ((2, 1), "finite-exact", F(1), ((1, F(1), F(1)),), F(0), 8, 4),
        ((2, 1), "finite-exact", F(2), ((1, F(2), F(2)),), F(0), 8, 4),
    ),
    convergence.JunctionReport: (
        (1, "latent", {"finite-exact": 1}, (PROBE,)),
        (2, "latent", {"finite-exact": 1}, (PROBE,)),
    ),
    convergence.LatentReport: ((4, (JUNCTION,)), (5, (JUNCTION,))),
    scenarios.AdjointFamily: (
        (2, GEOMETRIC, TRANSLATION, GEOMETRIC, TRANSLATION, GEOMETRIC),
        (2, GEOMETRIC, TRANSLATION, GEOMETRIC, TRANSLATION, TRANSLATION),
    ),
    scenarios.MuCheck: ((True, 4, T - T, None), (False, 4, T, (1, 2))),
    localgroup.AssociativityReport: (
        ((0.0, 1.0), (1.0, 0.0), (0.0, -1.0), PLANE, PLANE, 0, 0, 0),
        ((0.0, 1.0), (1.0, 0.0), (0.0, -1.0), PLANE, TURNED, 0, 1, 1),
    ),
    goldens.GoldenFixture: (
        ("g", "M_g", ((F(1),),), "geometric", None),
        ("g", "M_g", ((F(1),),), "geometric", "pinned"),
    ),
    goldens.FixtureResult: (("g", True, (), None), ("g", False, ((1, 1, F(1), F(2)),), None)),
}
OWN_INIT = {localgroup.CoveredPoint: (((1.0, 0.0), 0.0), ((1.0, 0.0), 2 * math.pi))}
RECORDS = [*SAMPLES, *OWN_INIT]


def field_names(cls):
    return list(cls.__annotations__)


def twin_of(cls):
    spec = [
        (name, object, dataclasses.field(default=cls.__dict__[name]))
        if name in cls.__dict__ else (name, object)
        for name in field_names(cls)
    ]
    return dataclasses.make_dataclass(cls.__qualname__, spec, frozen=True)


def values_of(obj, names):
    return [getattr(obj, name) for name in names]


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError:
        return TypeError


def instances(cls):
    if cls in OWN_INIT:
        return [cls(*args) for args in OWN_INIT[cls]]
    return [cls(*values) for values in SAMPLES[cls]]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_eq_and_hash_match_the_dataclass_twin(cls):
    twin, names = twin_of(cls), field_names(cls)
    a, b = instances(cls)
    twins = [twin(*values_of(r, names)) for r in (a, b)]
    again = [twin(*values_of(r, names)) for r in (a, b)]
    copy = cls.__new__(cls)
    for name, value in zip(names, values_of(a, names)):
        object.__setattr__(copy, name, value)
    assert repr(a) == repr(twins[0]) and repr(b) == repr(twins[1])
    assert (a == copy, a != copy, a == b, a != b) == (
        twins[0] == again[0], twins[0] != again[0], twins[0] == twins[1], twins[0] != twins[1]
    ) == (True, False, False, True)
    assert hash_or_error(a) == hash_or_error(twins[0])
    assert hash_or_error(b) == hash_or_error(twins[1])
    # equal fields in another class are not equal
    assert a != twins[0] and not a == twins[0] and twins[0] != a


def test_records_of_two_classes_with_equal_fields_differ():
    spec, injection = linalg.PermutationSpec((1, 3)), linalg.BlockInjection((1, 3))
    assert spec != injection and not spec == injection and injection != spec


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda c: c.__name__)
def test_arguments_bind_as_in_the_twin(cls):
    twin, names = twin_of(cls), field_names(cls)
    required = [n for n in names if n not in cls.__dict__]
    for values in SAMPLES[cls]:
        keywords = dict(zip(reversed(names), reversed(values)))
        calls = [
            (values, {}),
            ((), keywords),
            (values[:1], dict(zip(names[1:], values[1:]))),
            (values[: len(required)], {}),  # defaults taken
        ]
        for args, kwargs in calls:
            made, expected = cls(*args, **kwargs), twin(*args, **kwargs)
            assert all(x is y for x, y in zip(values_of(made, names), values_of(expected, names)))


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda c: c.__name__)
def test_bad_arguments_raise_type_error(cls):
    names, values = field_names(cls), SAMPLES[cls][0]
    bad_calls = [
        (values + (None,), {}),  # one positional too many
        (values, {"bogus": None}),  # unknown keyword
        ((), dict(zip(names[1:], values[1:]))),  # first field missing
        (values[:1], {names[0]: values[0]}),  # first field twice
    ]
    for args, kwargs in bad_calls:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_attributes_cannot_be_set_or_deleted(cls):
    assert issubclass(FrozenRecordError, AttributeError)
    made = instances(cls)[0]
    for name in [*field_names(cls), "extra"]:
        with pytest.raises(FrozenRecordError):
            setattr(made, name, None)
        with pytest.raises(FrozenRecordError):
            delattr(made, name)
    assert values_of(made, field_names(cls)) == values_of(instances(cls)[0], field_names(cls))


@pytest.mark.parametrize(
    "make",
    [
        lambda: series.GroupoidElement(F(0), (F(1),)),
        lambda: series.GroupoidElement(base_point=F(0), coeffs=(F(1), F(0))),
        lambda: linalg.PermutationSpec((1, 1)),
        lambda: linalg.PermutationSpec(prefix=(0,)),
        lambda: linalg.BlockInjection((2, 1)),
        lambda: linalg.BlockInjection(prefix=(0, 1)),
        lambda: matrices.LatentProduct((GEOMETRIC, TRANSLATION), ()),
        lambda: matrices.LatentProduct((GEOMETRIC, TRANSLATION), ("bogus",)),
        lambda: matrices.LatentProduct(factors=(GEOMETRIC, TRANSLATION), junctions=(matrices.PERFORMED,)),
    ],
)
def test_post_init_validations_still_raise(make):
    with pytest.raises(ValueError):
        make()


def test_covered_point_keeps_its_own_init():
    init = localgroup.CoveredPoint.__init__
    assert init.__module__ == "carleman.localgroup"
    assert init.__code__.co_varnames[:3] == ("self", "z", "theta")
    assert TURNED.z == (1.0, 0.0) and TURNED._sheet == 1
    assert repr(PLANE) == "CoveredPoint(z=(1.0, 0.0), _sheet=0)"
    with pytest.raises(ValueError):
        localgroup.CoveredPoint((-1.0, 0.0), 0.0)
    with pytest.raises(TypeError):
        localgroup.CoveredPoint((1.0, 0.0), 0.0, 0)


def test_only_annotated_names_are_fields():
    @record
    class Point:
        scale = 2  # a plain class attribute, not a field
        x: int
        y: int = 0

    assert repr(Point(1)) == f"{Point.__qualname__}(x=1, y=0)" and Point(1) == Point(x=1, y=0)
    assert Point(1).scale == 2
    with pytest.raises(TypeError):
        Point(scale=3, x=1)
