"""Curve systems, ribbon graphs, and boundary tracing.

Expected values marked [DERIVED] were computed by independent counting
(curve/crossing formulas, Euler characteristic by hand) and frozen here.
"""
import pytest
from conftest import scanned_shared_crossings, subsystem
from hypothesis import given, strategies as st

from twistbench.surface import (
    ConfigurationError,
    Crossing,
    CurveId,
    CurveSystem,
    RibbonError,
    build_reference_configuration,
    curve,
    euler_and_genus,
    face_edge_vectors,
    curve_edge_vector,
    parse_curve,
    ribbon_from_system,
    _system_from_orders,
)


def chain_system(length: int) -> CurveSystem:
    """A bare chain c_1 .. c_length with consecutive +1 crossings."""
    curves = tuple(curve("alpha", i) for i in range(1, length + 1))
    crossings = tuple(
        Crossing(curves[i], curves[i + 1], +1) for i in range(length - 1)
    )
    # curve k meets crossing k - 1 (the previous curve) and crossing k (the next)
    orders = {
        c: tuple(i for i in (k - 1, k) if 0 <= i < length - 1) for k, c in enumerate(curves)
    }
    return CurveSystem(curves=curves, crossings=crossings, incidence_table=orders)


class TestCurveId:
    def test_labels_round_trip(self):
        for label in ("alpha_1", "beta_7", "gamma_2", "delta_3", "sigma"):
            assert parse_curve(label).label == label

    def test_rejects_bad_family_and_index(self):
        with pytest.raises(ValueError):
            CurveId("epsilon", 1)
        with pytest.raises(ValueError):
            CurveId("alpha", 0)
        with pytest.raises(ValueError):
            CurveId("sigma", 2)

    def test_ordering_is_total(self):
        ids = [curve("sigma"), curve("alpha", 2), curve("alpha", 1), curve("beta", 1)]
        assert sorted(ids) == sorted(ids, key=lambda c: (c.family, c.index))

    def test_sort_order_of_a_configuration(self):
        curves = list(build_reference_configuration(4).curves)
        assert sorted(curves) == sorted(curves, key=lambda c: (c.family, c.index))
        assert sorted(reversed(curves)) == sorted(curves)

    def test_repr_names_the_fields(self):
        assert repr(curve("alpha", 1)) == "CurveId(family='alpha', index=1)"
        assert repr(curve("sigma")) == "CurveId(family='sigma', index=0)"

    @pytest.mark.parametrize(
        "family,index,message",
        [
            ("epsilon", 1, "unknown family 'epsilon'"),
            ("alpha", 0, "bad index 0 for alpha"),
            ("sigma", 2, "bad index 2 for sigma"),
        ],
    )
    def test_error_class_and_message(self, family, index, message):
        with pytest.raises(ConfigurationError) as err:
            CurveId(family, index)
        assert str(err.value) == message

    def test_fields_are_read_only(self):
        c = curve("beta", 3)
        with pytest.raises(AttributeError):
            c.index = 4
        with pytest.raises(AttributeError):
            c.family = "gamma"
        assert c == curve("beta", 3)

    def test_equals_its_plain_tuple(self):
        # value semantics of the tuple base: an id equals, and hashes
        # like, the plain (family, index) tuple
        assert curve("alpha", 1) == ("alpha", 1)
        assert hash(curve("sigma")) == hash(("sigma", 0))


class TestReferenceConfiguration:
    def test_counts_b2(self):
        sys2 = build_reference_configuration(2, sigma_signs=(1, 1, 1, 1))
        # [DERIVED] 4 chains of n=3 plus sigma; 4*(n-1) chain crossings + 4 at sigma
        assert len(sys2.curves) == 13
        assert len(sys2.crossings) == 12

    def test_counts_scale_with_b(self):
        for b in (2, 3, 4):
            s = build_reference_configuration(b, sigma_signs=(1, 1, 1, 1))
            n = 2 * b - 1
            assert len(s.curves) == 4 * n + 1
            assert len(s.crossings) == 4 * (n - 1) + 4

    def test_rejects_small_b(self):
        with pytest.raises(ConfigurationError):
            build_reference_configuration(1)

    def test_rejects_bad_sign_tuple(self):
        with pytest.raises(ConfigurationError):
            build_reference_configuration(2, sigma_signs=(1, 1, 1))
        with pytest.raises(ConfigurationError):
            build_reference_configuration(2, sigma_signs=(1, 1, 1, 0))

    def test_crossing_sign_reading_order(self):
        s = build_reference_configuration(2, sigma_signs=(1, -1, 1, -1))
        sigma = curve("sigma")
        for family, sign in zip(("alpha", "beta", "gamma", "delta"), (1, -1, 1, -1)):
            first = curve(family, 1)
            [i] = scanned_shared_crossings(s, sigma, first)
            x = s.crossings[i]
            assert (x.first, x.second, x.sign) == (sigma, first, sign)


class TestIncidenceLists:
    @pytest.mark.parametrize(
        "label, order",
        [
            # alpha_2 meets chain crossings 0 and 1: one is dropped
            ("alpha_2", (1,)),
            # alpha_3 meets chain crossing 1 only: crossing 0 is not its own
            ("alpha_3", (0,)),
        ],
    )
    def test_inconsistent_order_is_named(self, label, order):
        s = build_reference_configuration(2)
        orders = dict(s.incidence_table)
        orders[parse_curve(label)] = order
        with pytest.raises(ConfigurationError) as err:
            _system_from_orders(s.curves, s.crossings, orders, s.b, s.sigma_signs)
        assert str(err.value) == f"incidence list of {label} is inconsistent"


class TestRibbonAndBoundary:
    def test_single_curve_is_annulus(self):
        # [DERIVED] neighbourhood of one embedded curve: 2 boundary walks, genus 0
        rg = ribbon_from_system(chain_system(1))
        assert len(rg.walks) == 2
        assert euler_and_genus(rg) == (0, 0)

    def test_two_curve_chain_is_punctured_torus(self):
        # [DERIVED] one crossing, hand-traced: single boundary walk, genus 1
        rg = ribbon_from_system(chain_system(2))
        walks = rg.walks
        assert len(walks) == 1
        assert euler_and_genus(rg) == (-1, 1)

    @given(st.integers(min_value=1, max_value=9))
    def test_chain_walks_and_genus(self, length):
        # [DERIVED] chain of odd length: 2 walks, genus (len-1)/2; even: 1, len/2
        rg = ribbon_from_system(chain_system(length))
        walks = rg.walks
        _, genus = euler_and_genus(rg)
        if length % 2:
            assert (len(walks), genus) == (2, (length - 1) // 2)
        else:
            assert (len(walks), genus) == (1, length // 2)

    def test_reference_fibre_counts(self):
        # [DERIVED] b=2: 12 crossing vertices + 1 marked point? none (all curves cross)
        rg = ribbon_from_system(build_reference_configuration(2, sigma_signs=(1, 1, 1, 1)))
        assert len(rg.vertices) == 12
        assert len(rg.edges) == 24
        rg3 = ribbon_from_system(build_reference_configuration(3, sigma_signs=(1, 1, 1, 1)))
        assert len(rg3.vertices) == 20
        assert len(rg3.edges) == 40

    def test_boundary_is_deterministic_partition(self):
        rg = ribbon_from_system(build_reference_configuration(2, sigma_signs=(1, 1, 1, 1)))
        again = ribbon_from_system(build_reference_configuration(2, sigma_signs=(1, 1, 1, 1)))
        walks1 = rg.walks
        assert walks1 == again.walks
        seen = [d for walk in walks1 for d in walk]
        assert len(seen) == len(set(seen)) == len(rg.darts)

    def test_face_vectors_sum_to_zero(self):
        # each arc is crossed once forward and once backward over all walks
        rg = ribbon_from_system(build_reference_configuration(2, sigma_signs=(1, 1, 1, 1)))
        vectors = face_edge_vectors(rg)
        total = [sum(v[k] for v in vectors) for k in range(len(rg.edges))]
        assert all(x == 0 for x in total)

    def test_two_curve_chain_face_vector_vanishes(self):
        # [DERIVED] the single boundary of the crossed pair runs each arc
        # once in each direction: zero face vector
        rg = ribbon_from_system(chain_system(2))
        (vec,) = face_edge_vectors(rg)
        assert all(x == 0 for x in vec)
        for c in rg.system.curves:
            assert any(x != 0 for x in curve_edge_vector(rg, c))

    def test_inconsistent_rotations_raise_on_every_access(self):
        rg = ribbon_from_system(chain_system(2))
        doubled = rg._replace(
            rotation_table=rg.rotation_table + rg.rotation_table[:1]
        )
        for _ in range(2):
            with pytest.raises(RibbonError):
                doubled.walks
        # a vertex dropped from the table leaves darts missing
        truncated = rg._replace(rotation_table=rg.rotation_table[:-1])
        for _ in range(2):
            with pytest.raises(RibbonError):
                truncated.walks
            with pytest.raises(RibbonError):
                truncated.spanning_tree
            with pytest.raises(RibbonError):
                euler_and_genus(truncated)

    def test_disconnected_system_rejected(self):
        a1, a2 = curve("alpha", 1), curve("alpha", 2)
        sys_ = CurveSystem(
            curves=(a1, a2), crossings=(), incidence_table={a1: (), a2: ()}
        )
        assert scanned_shared_crossings(sys_, a1, a2) == ()
        rg = ribbon_from_system(sys_)
        with pytest.raises(RibbonError):
            euler_and_genus(rg)

    def test_disconnected_subsystem_raises_on_every_access(self):
        # two chains that share no crossing once sigma is dropped
        s = build_reference_configuration(2, sigma_signs=(1, 1, 1, 1))
        keep = [curve(f, i) for f in ("alpha", "beta") for i in (1, 2)]
        rg = ribbon_from_system(subsystem(s, keep))
        for _ in range(2):
            with pytest.raises(RibbonError, match="must be connected"):
                rg.spanning_tree
        assert "spanning_tree" not in vars(rg)
        with pytest.raises(RibbonError, match="must be connected"):
            euler_and_genus(rg)


class TestSubsystem:
    def test_inherits_cyclic_order_and_renumbers(self):
        s = build_reference_configuration(3, sigma_signs=(1, 1, 1, 1))
        keep = (curve("alpha", 1), curve("alpha", 2), curve("alpha", 3))
        sub = subsystem(s, keep)
        assert sub.curves == keep
        assert len(sub.crossings) == 2
        rg = ribbon_from_system(sub)
        assert len(rg.walks) == 2  # odd chain of 3

    def test_single_kept_curve_gets_marked_point(self):
        s = build_reference_configuration(2, sigma_signs=(1, 1, 1, 1))
        sub = subsystem(s, (curve("alpha", 3),))
        rg = ribbon_from_system(sub)
        assert len(rg.walks) == 2
        assert euler_and_genus(rg) == (0, 0)
