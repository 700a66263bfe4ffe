"""The crossing tree and the sign probe that runs on it, against the
face-relation pipeline.

[DERIVED] every expected value comes from an oracle computed inside the
test: the homology model, ``psi_reference`` and ``twist_word_matrix``
(the pipeline ``probe_signs`` ran before it moved to curve
coordinates), or sympy's rank and Smith form of the same matrix.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from twistbench import canonical, crossing, words
from twistbench.canonical import ALL_SIGN_TUPLES, SignProbe, probe_signs
from twistbench.coxeter import _chain_form, psi_factor_chains, psi_factorization
from twistbench.crossing import crossing_tree, twist_images, twist_steps
from twistbench.homology import (
    AdmissibilityError,
    homology_model,
    is_symplectic,
    psi_reference,
    reference_model,
    twist_word_matrix,
)
from twistbench.intlin import mat_mul
from twistbench.surface import (
    Crossing,
    CurveSystem,
    build_reference_configuration,
    curve,
    ribbon_from_system,
    subsystem,
)


def oracle_probe(b, signs) -> SignProbe:
    """The verdicts of one sign tuple through the homology model."""
    try:
        system = build_reference_configuration(b, sigma_signs=signs)
        rg = ribbon_from_system(system)
        model = homology_model(rg)
    except (AdmissibilityError, ValueError) as exc:
        return SignProbe(signs, False, None, None, None, False, None, None, str(exc))
    walks, genus, rank = len(rg.walks), model.genus, model.rank
    try:
        psi = psi_reference(model)
    except AdmissibilityError as exc:
        return SignProbe(signs, True, walks, genus, rank, False, None, None, str(exc))
    product = twist_word_matrix(model, psi_factorization(b))
    return SignProbe(
        signs, True, walks, genus, rank, True,
        product.matrix == psi.matrix, is_symplectic(product, model), "",
    )


@pytest.fixture
def fresh_probes():
    canonical.probe_signs.cache_clear()
    yield
    canonical.probe_signs.cache_clear()


def dense_form(tree):
    n = len(tree.curves)
    return [[row.get(j, 0) for j in range(n)] for row in tree.form]


def dense_images(tree, word):
    rows = tree.images(word)
    n = len(tree.curves)
    return tuple(tuple(row.get(j, 0) for j in range(n)) for row in rows)


class TestProbeAgainstTheModel:
    @pytest.mark.parametrize("b", range(2, 9))
    def test_every_field_on_every_sign_tuple(self, b, fresh_probes):
        for signs in ALL_SIGN_TUPLES:
            assert probe_signs(b, signs) == oracle_probe(b, signs)

    @pytest.mark.parametrize(
        "b, signs", [(1, (1, 1, 1, 1)), (2, (1, 1, 1, 2)), (2, (1, 1, 1))]
    )
    def test_unbuildable_configurations(self, b, signs, fresh_probes):
        probe = probe_signs(b, signs)
        assert not probe.admissible
        assert probe == oracle_probe(b, signs)

    def test_rank_short_of_twice_the_genus_is_not_admissible(self, monkeypatch, fresh_probes):
        def short(system):
            tree = crossing_tree(system)
            return tree._replace(matching=tree.matching[1:])

        monkeypatch.setattr(canonical, "crossing_tree", short)
        probe = probe_signs(2, (1, 1, 1, 1))
        assert probe == SignProbe(
            (1, 1, 1, 1), False, None, None, None, False, None, None,
            "lattice rank 8 does not match 2*genus = 10",
        )

    @pytest.mark.parametrize("b", [2, 3, 4, 8, 16])
    def test_one_letter_sign_flips_fail(self, b, monkeypatch, fresh_probes):
        word = psi_factorization(b)
        rng = random.Random(b)
        for i in rng.sample(range(len(word)), 5):
            c, s = word[i]
            flipped = word[:i] + ((c, -s),) + word[i + 1 :]
            monkeypatch.setattr(canonical, "psi_factorization", lambda _b: flipped)
            canonical.probe_signs.cache_clear()
            probe = probe_signs(b, (1, 1, 1, 1))
            assert probe.psi_defined and probe.product_matches is False, (b, i)
            # twists preserve the form whatever the word
            assert probe.product_symplectic


class TestLetterAction:
    @settings(max_examples=40, deadline=None)
    @given(
        b=st.sampled_from([2, 3]),
        picks=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from([1, -1])), max_size=60),
    )
    def test_images_lift_the_homology_product(self, b, picks):
        # classes @ X = W @ classes: the curve-coordinate images, lifted
        # through the curve classes, are the homology product's columns
        model = reference_model(b)
        curves = model.curve_order
        word = tuple((curves[k % len(curves)], s) for k, s in picks)
        tree = crossing_tree(model.system)
        lifted = mat_mul(model.classes, dense_images(tree, word))
        assert lifted == mat_mul(twist_word_matrix(model, word).matrix, model.classes)

    def test_form_is_the_model_crossing_form(self):
        model = reference_model(3)
        assert tuple(map(tuple, dense_form(crossing_tree(model.system)))) == model.crossing_form

    def test_a_word_and_its_inverse_give_unit_rows(self):
        # cancelled entries are dropped, not kept as zeros
        model = reference_model(3)
        tree = crossing_tree(model.system)
        word = psi_factorization(3)
        assert tree.images(word) != [{i: 1} for i in range(len(tree.curves))]
        assert tree.images(word + words.invert(word)) == [{i: 1} for i in range(len(tree.curves))]

    def test_step_table_is_built_once_per_tree(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return twist_steps(*args)

        monkeypatch.setattr(crossing, "twist_steps", counting)
        tree = crossing_tree(build_reference_configuration(2))
        tree.images(psi_factorization(2))
        tree.images(((curve("sigma"), 1),))
        assert len(calls) == 1

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), b=st.sampled_from([2, 3]))
    def test_chain_form_matches_the_chain_subsystem(self, data, b):
        # the kernel on a chain's own form runs the chain's subsystem
        model = reference_model(b)
        chain = data.draw(st.sampled_from(list(psi_factor_chains(b).values())))
        word = tuple(
            data.draw(
                st.lists(st.tuples(st.sampled_from(chain), st.sampled_from([1, -1])), max_size=60)
            )
        )
        rows = twist_images(twist_steps(chain, _chain_form(model, chain)), len(chain), word)
        assert rows == crossing_tree(subsystem(model.system, chain)).images(word)

    def test_unknown_letter_is_rejected(self):
        tree = crossing_tree(build_reference_configuration(2))
        with pytest.raises(ValueError, match="is not a twist on the system"):
            tree.images(((curve("alpha", 9), 1),))
        with pytest.raises(ValueError, match="is not a twist on the system"):
            tree.images(((curve("alpha", 1), 2),))


class TestCrossingTree:
    @pytest.mark.parametrize("b", [2, 3, 4])
    @pytest.mark.parametrize("signs", [(1, 1, 1, 1), (1, -1, 1, -1)])
    def test_rank_and_kernel_against_sympy(self, b, signs):
        system = build_reference_configuration(b, sigma_signs=signs)
        tree = crossing_tree(system)
        form = Matrix(dense_form(tree))
        rank = form.rank()
        assert tree.rank == rank == 2 * homology_model(ribbon_from_system(system)).genus
        # unit invariant factors: the curve classes generate H_1
        diagonal = [x for x in sympy_snf(form, domain=ZZ).diagonal() if x]
        assert len(diagonal) == rank and all(abs(x) == 1 for x in diagonal)
        # the basis lies in ker C, has its dimension, and spans its
        # lattice: its own Smith form is all ones
        kernel = Matrix([list(k) for k in tree.kernel]).T
        assert form * kernel == Matrix.zeros(len(tree.curves), len(tree.kernel))
        assert len(tree.kernel) == len(form.nullspace()) == len(tree.curves) - rank
        assert [abs(x) for x in sympy_snf(kernel, domain=ZZ).diagonal()] == [1] * len(tree.kernel)

    def three_curves(self, crossings):
        a, b, c = curve("alpha", 1), curve("beta", 1), curve("gamma", 1)
        xs = tuple(Crossing(*x) for x in crossings(a, b, c))
        incidences = tuple(
            (k, tuple(i for i, x in enumerate(xs) if k in (x.first, x.second)))
            for k in (a, b, c)
        )
        return CurveSystem((a, b, c), xs, incidences)

    def test_cycle_is_refused(self):
        system = self.three_curves(lambda a, b, c: ((a, b, 1), (b, c, 1), (c, a, 1)))
        with pytest.raises(AdmissibilityError, match="has a cycle"):
            crossing_tree(system)

    def test_double_crossing_is_refused(self):
        system = self.three_curves(lambda a, b, c: ((a, b, 1), (a, b, 1), (b, c, 1)))
        with pytest.raises(AdmissibilityError, match="neither \\+1 nor -1"):
            crossing_tree(system)

    def test_path_of_three(self):
        # [TRIVIAL] C x = (x_b, x_c - x_a, -x_b) for the path a - b - c:
        # the peeling matches c with b and leaves a free
        system = self.three_curves(lambda a, b, c: ((a, b, 1), (b, c, 1)))
        tree = crossing_tree(system)
        assert tree.matching == ((2, 1),)
        assert tree.rank == 2
        assert tree.kernel == ((1, 0, 1),)
