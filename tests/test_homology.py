"""Homology models, twist matrices, and the curve-swapping involution.

[DERIVED] values were computed by the independent sign-tuple probe
(genus/rank/admissibility table over all sixteen sign tuples) and by the
two-curve twist identities checked by hand before freezing.
"""
import hashlib
import itertools
from functools import cached_property, lru_cache

import pytest
from conftest import scanned_shared_crossings
from hypothesis import given, settings, strategies as st

from twistbench import canonical, homology, intlin
from twistbench.coxeter import psi_factorization
from twistbench.homology import (
    AdmissibilityError,
    NotWellDefinedError,
    homology_model,
    is_symplectic,
    psi_reference,
    reference_model,
    twist_word_matrix,
)
from twistbench.intlin import identity, is_unimodular, mat_mul, mat_vec
from twistbench.surface import (
    RibbonGraph,
    build_reference_configuration,
    curve,
    ribbon_from_system,
)


@pytest.fixture(scope="module")
def model2():
    return reference_model(2)


@pytest.fixture(scope="module")
def model3():
    return reference_model(3)


class TestModel:
    def test_rank_and_genus(self, model2, model3):
        # [DERIVED] rank 8b-6
        assert len(model2.classes) == 10
        assert model2.genus == 5
        assert len(model3.classes) == 18
        assert model3.genus == 9

    def test_form_is_antisymmetric_unimodular(self, model2):
        J = model2.form
        assert is_unimodular(J)
        assert all(J[i][j] == -J[j][i] for i in range(10) for j in range(10))

    def test_pairing_reproduces_crossings(self, model2):
        s = model2.system
        for x in s.curves:
            assert model2.pairing(x, x) == 0
            for y in s.curves:
                if x == y:
                    continue
                # read with its second curve first, a crossing flips sign
                crossings = (s.crossings[i] for i in scanned_shared_crossings(s, x, y))
                expected = sum(
                    cr.sign if cr.first == x else -cr.sign for cr in crossings
                )
                assert model2.pairing(x, y) == expected

    def test_pairing_signs_from_construction(self, model2):
        sigma = curve("sigma")
        assert model2.pairing(sigma, curve("alpha", 1)) == 1
        assert model2.pairing(curve("alpha", 1), sigma) == -1
        assert model2.pairing(curve("alpha", 1), curve("alpha", 2)) == 1
        assert model2.pairing(curve("alpha", 1), curve("beta", 1)) == 0

    def test_fingerprint_is_stable_and_distinguishes(self, model2):
        again = reference_model(2)
        assert model2.fingerprint == again.fingerprint
        other = reference_model(3)
        assert model2.fingerprint != other.fingerprint

    def test_kernel_is_annihilated_by_crossing_form(self, model2):
        prod = mat_mul(model2.crossing_form, model2.kernel)
        assert all(all(x == 0 for x in row) for row in prod)


class TestDehnTwist:
    def test_unknown_curve_rejected(self, model2):
        with pytest.raises(KeyError):
            twist_word_matrix(model2, ((curve("alpha", 9), 1),))

    def test_twist_inverse(self, model2):
        for c in model2.system.curves:
            m = twist_word_matrix(model2, ((c, +1), (c, -1)))
            assert m.matrix == identity(model2.rank)

    def test_twists_are_symplectic(self, model2):
        for c in model2.system.curves:
            assert is_symplectic(twist_word_matrix(model2, ((c, 1),)), model2)

    def test_pair_identities_at_each_crossing(self, model2):
        # [DERIVED] for <a,b> = +1: TaTb(a) = -b and TbTa(b) = a
        s = model2.system
        for cr in s.crossings:
            a, b = (cr.first, cr.second) if cr.sign == 1 else (cr.second, cr.first)
            tatb = twist_word_matrix(model2, ((a, 1), (b, 1)))
            tbta = twist_word_matrix(model2, ((b, 1), (a, 1)))
            va, vb = model2.curve_class(a), model2.curve_class(b)
            assert mat_vec(tatb.matrix, va) == tuple(-x for x in vb)
            assert mat_vec(tbta.matrix, vb) == va

    def test_composition_is_right_to_left(self, model2):
        sigma, a1 = curve("sigma"), curve("alpha", 1)
        word = twist_word_matrix(model2, ((sigma, 1), (a1, 1)))
        explicit = mat_mul(
            twist_word_matrix(model2, ((sigma, 1),)).matrix,
            twist_word_matrix(model2, ((a1, 1),)).matrix,
        )
        assert word.matrix == explicit
        assert word.word == ((sigma, 1), (a1, 1))

    def test_cross_model_matrix_rejected(self, model2, model3):
        with pytest.raises(AdmissibilityError):
            is_symplectic(twist_word_matrix(model3, ((curve("sigma"), 1),)), model2)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(range(13)), st.sampled_from((1, -1))),
                    min_size=1, max_size=8))
    def test_random_words_are_symplectic(self, model2, letters):
        word = tuple((model2.curve_order[i], s) for i, s in letters)
        assert is_symplectic(twist_word_matrix(model2, word), model2)


class TestInvolution:
    def test_swaps_curve_classes_with_signs(self, model2):
        psi = psi_reference(model2)
        pairs = {
            curve("alpha", 1): curve("delta", 1),
            curve("delta", 2): curve("alpha", 2),
            curve("beta", 3): curve("gamma", 3),
            curve("gamma", 1): curve("beta", 1),
            curve("sigma"): curve("sigma"),
        }
        for src, dst in pairs.items():
            v = model2.curve_class(src)
            image = tuple(
                sum(row[j] * v[j] for j in range(len(v))) for row in psi.matrix
            )
            assert image == tuple(-x for x in model2.curve_class(dst))

    def test_is_involution_and_symplectic(self, model2, model3):
        for m in (model2, model3):
            psi = psi_reference(m)
            assert mat_mul(psi.matrix, psi.matrix) == identity(m.rank)
            assert is_symplectic(psi, m)

    def test_undefined_for_mismatched_signs(self):
        # [DERIVED] sign probe: tuples with s_alpha*s_delta != s_beta*s_gamma
        # build admissible models whose swap does not descend
        rg = ribbon_from_system(
            build_reference_configuration(2, sigma_signs=(1, 1, 1, -1))
        )
        model = homology_model(rg)
        with pytest.raises((NotWellDefinedError, AdmissibilityError)):
            psi_reference(model)


# ---------------------------------------------------------------------------
# the rank-one kernel against the dense product it replaced


@lru_cache(maxsize=None)
def cached_model(b):
    return reference_model(b)


def dense_twist(model, c, s):
    """``identity - s * v (Jv)^T`` as a full matrix."""
    v = model.curve_class(c)
    jv = mat_vec(model.form, v)
    return tuple(
        tuple(int(i == j) - s * x * y for j, y in enumerate(jv))
        for i, x in enumerate(v)
    )


def dense_word_matrix(model, word):
    out = identity(model.rank)
    for c, s in word:
        out = mat_mul(out, dense_twist(model, c, s))
    return out


def dense_mat_vec(matrix, vec):
    """The dense product ``intlin.mat_vec`` replaced, kept as its oracle."""
    return tuple(sum(x * y for x, y in zip(row, vec)) for row in matrix)


def dense_class(model, j):
    """Column ``j`` of ``model.classes``, read row by row."""
    return tuple(row[j] for row in model.classes)


class TestCurveReads:
    """``curve_class`` reads cached columns and ``pairing`` the crossing
    form; the dense reads they replaced are the oracles."""

    @pytest.mark.parametrize("b", (2, 3, 4))
    def test_curve_class_is_dense_column(self, b):
        model = cached_model(b)
        for j, c in enumerate(model.curve_order):
            assert model.curve_class(c) == dense_class(model, j)

    @pytest.mark.parametrize("b", (2, 3, 4))
    def test_pairing_is_dense_form_product(self, b):
        model = cached_model(b)
        columns = [dense_class(model, j) for j in range(len(model.curve_order))]
        for a, va in zip(model.curve_order, columns):
            for c, vc in zip(model.curve_order, columns):
                expected = sum(x * y for x, y in zip(va, dense_mat_vec(model.form, vc)))
                assert model.pairing(a, c) == expected


@st.composite
def models_and_words(draw):
    model = cached_model(draw(st.sampled_from((2, 3, 4))))
    letter = st.tuples(
        st.integers(0, len(model.curve_order) - 1), st.sampled_from((1, -1))
    )
    chunks = draw(
        st.lists(
            st.one_of(
                letter.map(lambda l: [l]),
                letter.map(lambda l: [l, (l[0], -l[1])]),
                st.tuples(letter, st.integers(2, 4)).map(lambda t: [t[0]] * t[1]),
            ),
            max_size=10,
        )
    )
    word = tuple((model.curve_order[i], s) for chunk in chunks for i, s in chunk)
    return model, word


class TestTwistKernel:
    @settings(max_examples=60, deadline=None)
    @given(models_and_words())
    def test_matches_dense_product(self, model_and_word):
        model, word = model_and_word
        product = twist_word_matrix(model, word)
        assert product.matrix == dense_word_matrix(model, word)
        assert product.word == word

    def test_single_letter_is_dense_twist(self, model2):
        for c in model2.curve_order:
            for s in (1, -1):
                assert twist_word_matrix(model2, ((c, s),)).matrix == dense_twist(model2, c, s)

    def test_bad_sign_rejected(self, model2):
        with pytest.raises(ValueError):
            twist_word_matrix(model2, ((curve("sigma"), 2),))

    @pytest.mark.parametrize("b", (2, 3, 4))
    def test_filled_table_matches_fresh_model(self, b):
        filled = cached_model(b)
        for c in filled.curve_order:
            for s in (1, -1):
                twist_word_matrix(filled, ((c, s),))
        assert len(filled.transvections) == 2 * len(filled.curve_order)
        word = psi_factorization(b)[::7] + tuple(
            (c, -s) for c, s in psi_factorization(b)[:40]
        )
        fresh = reference_model(b)
        assert fresh.transvections == {}
        product = twist_word_matrix(filled, word).matrix
        assert product == twist_word_matrix(fresh, word).matrix
        assert product == dense_word_matrix(fresh, word)
        assert fresh.transvections == {
            k: filled.transvections[k] for k in fresh.transvections
        }

    def test_errors_are_not_cached(self):
        model = reference_model(2)
        sigma = curve("sigma")
        twist_word_matrix(model, ((sigma, 1),))
        before = dict(model.transvections)
        with pytest.raises(ValueError):
            twist_word_matrix(model, ((sigma, 2),))
        with pytest.raises(KeyError):
            twist_word_matrix(model, ((curve("alpha", 99), 1),))
        with pytest.raises(ValueError):
            twist_word_matrix(model, ((sigma, 2),))
        assert model.transvections == before

    @settings(max_examples=30, deadline=None)
    @given(models_and_words())
    def test_table_stays_within_two_per_curve(self, model_and_word):
        model, word = model_and_word
        twist_word_matrix(model, word)
        assert len(model.transvections) <= 2 * len(model.curve_order)
        assert set(model.transvections) <= {
            (c, s) for c in model.curve_order for s in (1, -1)
        }

    @settings(max_examples=30, deadline=None)
    @given(models_and_words())
    def test_entries_are_plain_ints(self, model_and_word):
        model, word = model_and_word
        product = twist_word_matrix(model, word).matrix
        assert all(type(x) is int for row in product for x in row)

    @settings(max_examples=30, deadline=None)
    @given(models_and_words())
    def test_untouched_rows_are_identity_rows(self, model_and_word):
        # a row e_i meets a class v in v[i], so a row outside the support
        # of every letter's class stays e_i
        model, word = model_and_word
        product = twist_word_matrix(model, word).matrix
        support = {i for c, _ in word for i, x in enumerate(model.curve_class(c)) if x}
        eye = identity(model.rank)
        for i in set(range(model.rank)) - support:
            assert product[i] == eye[i]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_short_words_match_dense_product_at_larger_b(self, data):
        model = cached_model(data.draw(st.integers(5, 8)))
        letter = st.tuples(st.sampled_from(model.curve_order), st.sampled_from((1, -1)))
        word = tuple(data.draw(st.lists(letter, max_size=4)))
        assert twist_word_matrix(model, word).matrix == dense_word_matrix(model, word)

    @pytest.mark.parametrize("b", range(2, 9))
    def test_gluing_word_equals_reference(self, b):
        model = cached_model(b)
        product = twist_word_matrix(model, psi_factorization(b))
        assert product.matrix == psi_reference(model).matrix


class TestBuildWork:
    """A model build computes each of its objects once, and computes the
    same model as before it shared them."""

    def test_reference_models_are_pinned(self):
        # [DERIVED] sha256 measured before the build shared its boundary
        # walks and Smith decompositions
        rows = [
            (m.fingerprint, m.section, m.kernel, psi_reference(m).matrix)
            for m in map(reference_model, range(2, 7))
        ]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "0214aa5bc629c9a61f29014dd905e40f2d9f223e34e59ce058a155fb5af20c1b"
        )

    MODEL_PINS = {
        2: "61be8e95ec06a54ed0db449432a2b2832198a8b16224cc2e9686d95e5eef490c",
        3: "a99d8cba15d13d76f08b1fa123583c93d99c00e98f944f34da503d685bb0b680",
        4: "71e9416b4699fc3473eef177fbffa03d322488cb75b7fd3245d06bc8fee0a205",
        5: "87d959af76e6ce4cf4bae15ec4ebd9d0538e4bca0671adf6aab8c32a25c52e3c",
        6: "c44dd6589bd63d06655f2863fd0f380fbc1271f8fc1930cfc613c0569c4491a1",
    }
    SIGN_TUPLES_PIN = "2d2160c85bb58bcfecdebd9f6a0b4c668264b724d0c827566dc100e11f7b398e"

    def test_model_bytes_are_pinned(self):
        # [DERIVED] sha256 measured while the ribbon graph still named its
        # arc-ends by (curve, position, in/out) tuples; a change of the
        # dart encoding must leave every model byte as it was
        def row(m):
            return repr(
                (m.fingerprint, m.classes, m.form, m.section, m.kernel,
                 psi_reference(m).matrix)
            )

        for b, digest in self.MODEL_PINS.items():
            assert hashlib.sha256(row(reference_model(b)).encode()).hexdigest() == digest
        rows = []
        for signs in itertools.product((1, -1), repeat=4):
            try:
                rows.append(
                    row(homology_model(ribbon_from_system(build_reference_configuration(2, signs))))
                )
            except AdmissibilityError as err:
                rows.append(repr(err))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.SIGN_TUPLES_PIN

    @pytest.fixture
    def smith_calls(self, monkeypatch):
        calls = []
        original = intlin.smith_normal_form

        def counting(matrix):
            calls.append(matrix)
            return original(matrix)

        monkeypatch.setattr(intlin, "smith_normal_form", counting)
        monkeypatch.setattr(homology, "smith_normal_form", counting)
        return calls

    @pytest.fixture
    def traces(self, monkeypatch):
        calls = []
        original = RibbonGraph.walks.func

        def walks(rg):
            calls.append(rg)
            return original(rg)

        prop = cached_property(walks)
        prop.__set_name__(RibbonGraph, "walks")
        monkeypatch.setattr(RibbonGraph, "walks", prop)
        return calls

    def test_build_reduces_three_matrices_and_traces_once(self, smith_calls, traces):
        # faces, curve classes and the induced form; kernel and section
        # come from the decomposition of the curve classes
        rg = ribbon_from_system(build_reference_configuration(2))
        smith_calls.clear()  # count the model build alone
        traces.clear()
        homology_model(rg)
        assert len(smith_calls) == 3
        assert traces == [rg]

    def test_probe_traces_once(self, traces):
        canonical.probe_signs.cache_clear()
        canonical.probe_signs(2, (1, 1, 1, 1))
        assert len(traces) == 1
