"""The crossing tree and the sign probe that runs on it, against the
face-relation pipeline.

[DERIVED] every expected value comes from an oracle computed inside the
test: the homology model, ``psi_reference`` and ``twist_word_matrix``
(the pipeline ``probe_signs`` ran before it moved to curve
coordinates), the letter-keyed kernel that the run kernel replaced, or
sympy's rank and Smith form of the same matrix.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from conftest import chain_word_images, splice_runs, subsystem, word_images
from twistbench import canonical, coxeter, words
from twistbench.canonical import ALL_SIGN_TUPLES, SignProbe, probe_signs
from twistbench.coxeter import (
    psi_factor_chains,
    psi_factor_runs,
    psi_factorization,
    psi_factorization_length,
)
from twistbench.crossing import crossing_tree, twist_images
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
)


def twist_steps(curves, form) -> dict:
    """The step table of the letter-keyed kernel: ``(c, s)`` maps to the
    index of ``c`` and the pairs ``(d, s * C[c][d])`` over its
    neighbours."""
    return {
        (c, s): (i, tuple((d, s * w) for d, w in row.items()))
        for i, (c, row) in enumerate(zip(curves, form))
        for s in (1, -1)
    }


def keyed_twist_images(steps, size, word) -> list[dict[int, int]]:
    """The curve-coordinate kernel as it was before runs: every letter of
    the word is looked up in the step table, the rightmost first."""
    rows = [{i: 1} for i in range(size)]
    for letter in reversed(word):
        i, terms = steps[letter]
        row = rows[i]
        for d, k in terms:
            for j, x in rows[d].items():
                y = row.get(j, 0) + k * x
                if y:
                    row[j] = y
                else:
                    del row[j]
    return rows


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
    rows = word_images(tree.form, tree.index, word)
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
        # the flip goes into the runs the probe reads: the letter at word
        # position i acts at position len - 1 - i
        word, size = psi_factorization(b), psi_factorization_length(b)
        rng = random.Random(b)
        for i in rng.sample(range(size), 5):
            c, s = word[i]
            flipped = word[:i] + ((c, -s),) + word[i + 1 :]

            def runs(_b, index, i=i):
                out = splice_runs(psi_factor_runs(_b, index), size - 1 - i, -1)
                curves = {j: c for c, j in index.items()}
                assert [(curves[j], s) for s, run in out for j in run] == list(reversed(flipped))
                return out

            monkeypatch.setattr(canonical, "psi_factor_runs", runs)
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
        unit = [{i: 1} for i in range(len(tree.curves))]
        assert word_images(tree.form, tree.index, word) != unit
        assert word_images(tree.form, tree.index, word + words.invert(word)) == unit

    def test_probe_runs_index_runs_and_writes_no_word(self, monkeypatch, fresh_probes):
        # the probe hands the kernel runs of curve indices, the Coxeter
        # runs of the six factors; it never writes out a twist word
        def refuse(*args):
            raise AssertionError("wrote out a twist word")

        monkeypatch.setattr(coxeter, "coxeter", refuse)
        monkeypatch.setattr(coxeter, "psi_factorization", refuse)
        lengths = []

        def kernel(form, runs):
            runs = list(runs)
            assert all(type(i) is int for _, run in runs for i in run)
            lengths.append(sum(len(run) for _, run in runs))
            return twist_images(form, runs)

        monkeypatch.setattr(canonical, "twist_images", kernel)
        for b in (2, 3, 4):
            probe = probe_signs(b, (1, 1, 1, 1))
            assert probe.product_matches and probe.product_symplectic
            assert lengths.pop() == psi_factorization_length(b)

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
        rows = chain_word_images(model, chain, word)
        sub = crossing_tree(subsystem(model.system, chain))
        assert rows == word_images(sub.form, sub.index, word)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), b=st.sampled_from([2, 3, 4]))
    def test_runs_match_the_letter_keyed_kernel(self, data, b):
        # a random word, cut into runs of one sign, gives the images the
        # letter-keyed kernel gives the word, letter by letter
        tree = crossing_tree(build_reference_configuration(b))
        size = len(tree.curves)
        picks = data.draw(
            st.lists(st.tuples(st.integers(0, size - 1), st.sampled_from([1, -1])), max_size=80)
        )
        word = tuple((tree.curves[i], s) for i, s in picks)
        runs = []
        for i, s in reversed(picks):
            if runs and runs[-1][0] == s and data.draw(st.booleans()):
                runs[-1][1].append(i)
            else:
                runs.append((s, [i]))
        expected = keyed_twist_images(twist_steps(tree.curves, tree.form), size, word)
        assert twist_images(tree.form, runs) == expected
        assert word_images(tree.form, tree.index, word) == expected


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
