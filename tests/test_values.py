"""The value classes of every layer are tuples.

Each is a ``namedtuple`` subclass, as ``CurveId`` and ``TwistLetter``
are: its ``repr`` and hash are those of the frozen dataclass it
replaced, its checks run in ``__new__`` and raise as before, its fields
are read-only, and it equals the plain tuple of its fields.
"""
import pytest

from twistbench.canonical import SignProbe, probe_signs
from twistbench.cli import Check, VerificationReport
from twistbench.factorization import (
    AurouxCertificate,
    AurouxStep,
    Factorization,
    TwistLetter,
    auroux_certificate,
    bare,
)
from twistbench.homology import HomologyModel, MappingClassMatrix, homology_model
from twistbench.intlin import SmithDecomposition, smith_normal_form
from twistbench.invariants import CoverType, SurfaceInvariants, invariants
from twistbench.laminations import LaminationCoords, LaminationError, round_curve
from twistbench.monodromy import (
    BicolouredLetter,
    Colouring,
    MonodromyError,
    default_colouring,
)
from twistbench.surface import (
    ConfigurationError,
    Crossing,
    CurveSystem,
    RibbonGraph,
    build_reference_configuration,
    curve,
    ribbon_from_system,
    subsystem,
)

A1, A2 = curve("alpha", 1), curve("alpha", 2)
ID1 = "CurveId(family='alpha', index=1)"
ID2 = "CurveId(family='alpha', index=2)"
LETTER1 = f"TwistLetter(core={ID1}, sign=1, conjugator=())"
# a step holds only the three fields a replay reads
STEP = f"AurouxStep(core={ID1}, script=(), front_letter={LETTER1})"
SYSTEM = (
    f"CurveSystem(curves=({ID1}, {ID2}), "
    f"crossings=(Crossing(first={ID1}, second={ID2}, sign=1),), "
    f"incidence_table=(({ID1}, (0,)), ({ID2}, (0,))), b=None, sigma_signs=None)"
)


def small_system():
    """The chain alpha_1, alpha_2 of the b=2 configuration."""
    return subsystem(build_reference_configuration(2), (A1, A2))


def small_factorization():
    return Factorization((bare(A1), TwistLetter(A2, -1, ((A1, 1),)), bare(A1)))


# [DERIVED] each repr printed by the frozen dataclass the class replaced
PINNED_REPRS = {
    "Check": (
        lambda: Check("words-equal", "pass", "on 3 strands"),
        "Check(name='words-equal', status='pass', details='on 3 strands')",
    ),
    "VerificationReport": (
        lambda: VerificationReport(
            ("braid", "eq"), (Check("a", "fail"),), {"package": "0.1", "python": "3.11.7"}
        ),
        "VerificationReport(command=('braid', 'eq'), "
        "checks=(Check(name='a', status='fail', details=''),), "
        "environment={'package': '0.1', 'python': '3.11.7'})",
    ),
    "SignProbe": (
        lambda: probe_signs(2, (1, -1, 1, 1)),
        "SignProbe(signs=(1, -1, 1, 1), admissible=True, walks=4, genus=5, rank=10, "
        "psi_defined=False, product_matches=None, product_symplectic=None, "
        "detail='prescribed curve images violate the relations among curve classes')",
    ),
    "Factorization": (
        small_factorization,
        f"Factorization(letters=({LETTER1}, TwistLetter(core={ID2}, sign=-1, "
        f"conjugator=(({ID1}, 1),)), {LETTER1}))",
    ),
    "AurouxStep": (lambda: auroux_certificate(small_factorization(), (A1,)).steps[0], STEP),
    "AurouxCertificate": (
        lambda: auroux_certificate(small_factorization(), (A1,)),
        f"AurouxCertificate(base_cores=({ID1},), steps=({STEP},))",
    ),
    "MappingClassMatrix": (
        lambda: MappingClassMatrix(((1, 0), (0, 1)), "f00d", ((A1, 1),)),
        f"MappingClassMatrix(matrix=((1, 0), (0, 1)), model_fingerprint='f00d', "
        f"word=(({ID1}, 1),))",
    ),
    "HomologyModel": (
        lambda: homology_model(ribbon_from_system(small_system())),
        f"HomologyModel(system={SYSTEM}, curve_order=({ID1}, {ID2}), genus=1, "
        "classes=((1, 0), (0, 1)), form=((0, 1), (-1, 0)), "
        "crossing_form=((0, 1), (-1, 0)), section=((1, 0), (0, 1)), kernel=())",
    ),
    "SmithDecomposition": (
        lambda: smith_normal_form(((2, 4), (6, 8))),
        "SmithDecomposition(U=((1, 0), (3, -1)), U_inv=((1, 0), (3, -1)), "
        "D=((2, 0), (0, 4)), V=((1, -2), (0, 1)), rank=2, invariant_factors=(2, 4))",
    ),
    "CoverType": (lambda: CoverType(1, 2, 3, 4), "CoverType(a=1, b=2, c=3, d=4)"),
    "SurfaceInvariants": (
        lambda: invariants(CoverType(1, 2, 3, 4)),
        "SurfaceInvariants(chi=22, K2=64, divisibility=2, fibre_genus=9)",
    ),
    "LaminationCoords": (
        lambda: round_curve(3, 1, 2),
        "LaminationCoords(n=3, normal=(1, 1, 0, 0, 1, 1))",
    ),
    "Colouring": (
        lambda: default_colouring(2),
        "Colouring(blocks=(('x', (1, 2)), ('y', (3, 4))))",
    ),
    "BicolouredLetter": (
        lambda: BicolouredLetter(4, 2, 2, 1, ((1, 1),)),
        "BicolouredLetter(strands=4, core=2, power=2, sign=1, conjugator=((1, 1),))",
    ),
    "Crossing": (
        lambda: Crossing(A1, A2, -1),
        f"Crossing(first={ID1}, second={ID2}, sign=-1)",
    ),
    "CurveSystem": (small_system, SYSTEM),
    "RibbonGraph": (
        lambda: ribbon_from_system(small_system()),
        f"RibbonGraph(system={SYSTEM}, vertices=(('x', 0),), "
        f"edges=(({ID1}, 0), ({ID2}, 0)), rotation_table=((('x', 0), (1, 3, 0, 2)),))",
    ),
}


@pytest.fixture(params=sorted(PINNED_REPRS))
def pinned(request):
    build, text = PINNED_REPRS[request.param]
    return request.param, build(), text


def test_every_value_class_is_pinned():
    classes = (
        Check, VerificationReport, SignProbe, Factorization, AurouxStep,
        AurouxCertificate, MappingClassMatrix, HomologyModel, SmithDecomposition,
        CoverType, SurfaceInvariants, LaminationCoords, Colouring,
        BicolouredLetter, Crossing, CurveSystem, RibbonGraph,
    )
    assert {cls.__name__ for cls in classes} == set(PINNED_REPRS)
    assert all(issubclass(cls, tuple) for cls in classes)


def test_repr_is_unchanged(pinned):
    name, value, text = pinned
    assert type(value).__name__ == name
    assert repr(value) == text


def test_fields_are_read_only(pinned):
    _, value, _ = pinned
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)


def test_equals_and_hashes_like_its_field_tuple(pinned):
    name, value, _ = pinned
    fields = tuple(getattr(value, f) for f in value._fields)
    assert value == fields
    if name != "VerificationReport":  # its environment is a dict
        assert hash(value) == hash(fields)


def test_equality_ignores_the_class():
    # [SEMANTICS] like CurveId, a value equals any tuple of the same
    # fields, a value of another class included; the frozen dataclasses
    # compared equal only within one class
    cover = CoverType(1, 2, 3, 4)
    assert cover == (1, 2, 3, 4)
    assert cover == SurfaceInvariants(1, 2, 3, 4)
    assert Crossing(A1, A2, 1) == (("alpha", 1), ("alpha", 2), 1)
    assert cover != CoverType(1, 2, 3, 5)


def test_caches_live_outside_the_tuple():
    rg = ribbon_from_system(small_system())
    model = homology_model(rg)
    before = repr(model)
    assert model.letter_matrices == {} and model.curve_index == {A1: 0, A2: 1}
    assert len(rg.walks) == 1 and rg.system.incidences_of(A1) == (0,)
    assert {"walks", "darts"} <= set(vars(rg))
    assert "_incidences" in vars(rg.system) and "curve_index" in vars(model)
    assert repr(model) == before
    assert model == homology_model(ribbon_from_system(small_system()))


def test_sign_probe_is_a_record_of_verdicts():
    probe = probe_signs(2, (1, 1, 1, 1))
    assert not hasattr(probe, "__dict__")
    assert probe.product_symplectic is True
    assert probe_signs(2, (1, -1, 1, 1)).product_symplectic is None
    assert repr(probe) == (
        "SignProbe(signs=(1, 1, 1, 1), admissible=True, walks=4, genus=5, rank=10, "
        "psi_defined=True, product_matches=True, product_symplectic=True, detail='')"
    )


def test_factorization_indexes_its_letters():
    fact = small_factorization()
    letters = fact.letters
    assert len(fact) == 3
    assert fact[0] == bare(A1) and fact[1] == letters[1] and fact[-1] == letters[2]
    assert fact[1:] == letters[1:]
    assert not Factorization([]) and Factorization([bare(A1)])
    assert Factorization(list(letters)).letters == letters


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Check("a", "maybe"), ValueError, "bad check status 'maybe'"),
        (lambda: CoverType(0, 1, 1, 1), ValueError, "a must be a positive integer, got 0"),
        (lambda: CoverType(1, 1, 1, "2"), ValueError, "d must be a positive integer, got '2'"),
        (lambda: Crossing(A1, A1, 1), ConfigurationError, "self-crossings are not supported"),
        (lambda: Crossing(A1, A2, 0), ConfigurationError, "bad crossing sign 0"),
        (lambda: BicolouredLetter(5, 1), ValueError, "strand count must be even and at least 4"),
        (lambda: BicolouredLetter(4, 1, 3), ValueError, "letter power must be 1 or 2"),
        (lambda: BicolouredLetter(4, 1, 1, 0), ValueError, "letter sign must be +1 or -1"),
        (
            lambda: BicolouredLetter(4, 2),
            MonodromyError,
            "letter z does not preserve the colour blocks",
        ),
        (
            lambda: BicolouredLetter(4, 2, 1, -1, ((1, 1),)),
            MonodromyError,
            "letter (z^-1)_{x1} does not preserve the colour blocks",
        ),
        (
            lambda: LaminationCoords(3, (0,) * 5),
            LaminationError,
            "expected 6 coordinates for 3 punctures",
        ),
        (
            lambda: LaminationCoords(3, (0, 0, 0, 0, 0, -2)),
            LaminationError,
            "crossing numbers must be nonnegative",
        ),
        (
            lambda: LaminationCoords(3, (1, 0, 0, 0, 0, 0)),
            LaminationError,
            "odd crossing sum in triangle ((('h', 1), 1, 2), (('v', 2), 2, 0), (('v', 1), 0, 1))",
        ),
        (
            lambda: LaminationCoords(3, (2, 0, 0, 0, 0, 2)),
            LaminationError,
            "triangle inequality fails in "
            "((('h', 1), 1, 2), (('v', 2), 2, 0), (('v', 1), 0, 1))",
        ),
    ],
)
def test_validation_errors_keep_class_and_message(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert str(exc.value) == message
