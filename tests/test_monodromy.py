"""The two-block braid monodromy, its rewriting and lift to twist
factorizations, and the hand-printed global factorization.

The block words, rewrite targets, lifted letter counts, and move
scripts were computed once and frozen [DERIVED]; every cross-colour
rewrite is additionally re-verified here with the faithful braid
comparator, and the printed factorization is compared with its claimed
normal form on homology.
"""
import hashlib

import pytest

from twistbench.braids import braid_equal, permutation_image, word_fingerprint
from twistbench.coxeter import psi_factorization
from twistbench.factorization import (
    Factorization,
    TwistLetter,
    apply_script,
    auroux_certificate,
    bare,
    greedy_match_script,
    hurwitz_search,
    letter_matrix,
    product_matrix,
    replay_certificate,
)
from twistbench.homology import reference_model, twist_word_matrix
from twistbench.monodromy import (
    BicolouredLetter,
    MonodromyError,
    appendix_factorization,
    composition_search,
    default_colouring,
    default_composition,
    generation_check,
    generator_label,
    lift_to_twists,
    lifted_composition,
    mirror_letter,
    mu_nu_block,
    mu_nu_normal_form,
    rewrite_cross_colour,
    x_block,
    y_block,
)
from twistbench.surface import curve
from twistbench.words import conjugate


#: [DERIVED] sha256 of ``repr(lifted_composition(b).letters)`` as lifted
#: when the fibre size was read from a homology model
LIFT_DIGESTS = {
    2: "db220c6d28f92fc29fcf85b0685f7145a65a9fad397e322baa4c7990e605d840",
    3: "eb4008bc900d32ad4116a8a250793926c0e67d3991ffa3efc4cb02d92ba8e53a",
    4: "5ffe9704aaccb76a1cf3345449357b4cea87acf5ae22834d385342592bc262c6",
}


@pytest.fixture(scope="module")
def model():
    return reference_model(2)


class TestColouring:
    def test_default(self):
        col = default_colouring(4)
        assert col.blocks == (("x", (1, 2, 3, 4)), ("y", (5, 6, 7, 8)))
        with pytest.raises(ValueError):
            default_colouring(1)

    def test_preserved_by(self):
        col = default_colouring(2)
        assert col.preserved_by((2, 1, 3, 4))
        assert not col.preserved_by((1, 3, 2, 4))

    def test_generator_labels(self):
        assert [generator_label(g, 4) for g in range(1, 8)] == [
            "x1", "x2", "x3", "z", "y1", "y2", "y3",
        ]
        with pytest.raises(ValueError):
            generator_label(8, 4)


class TestLetters:
    def test_validation(self):
        with pytest.raises(ValueError):
            BicolouredLetter(5, 1)  # odd strand count
        with pytest.raises(ValueError):
            BicolouredLetter(2, 1)  # too few strands
        with pytest.raises(ValueError):
            BicolouredLetter(8, 1, power=3)
        with pytest.raises(ValueError):
            BicolouredLetter(8, 1, sign=0)

    def test_lone_cross_boundary_half_twist_rejected(self):
        # z alone swaps the two colours, so it is not a letter here
        with pytest.raises(MonodromyError):
            BicolouredLetter(8, 4, power=1)

    def test_cross_boundary_full_twist_accepted(self):
        letter = BicolouredLetter(8, 4, power=2)
        assert letter.label() == "z^2"
        assert letter.braid_word() == ((4, 1), (4, 1))

    def test_conjugated_label_and_word(self):
        letter = BicolouredLetter(8, 5, 2, 1, ((4, 1), (3, 1), (2, 1), (1, 1)))
        assert letter.label() == "(y1^2)_{z x3 x2 x1}"
        assert letter.braid_word() == (
            (1, -1), (2, -1), (3, -1), (4, -1),
            (5, 1), (5, 1),
            (4, 1), (3, 1), (2, 1), (1, 1),
        )

    def test_inverse_letter_label(self):
        letter = BicolouredLetter(8, 1, 2, -1)
        assert letter.label() == "x1^-2"


class TestBlocks:
    def test_x_block_printed_form(self):
        # [DERIVED] the block word over eight strands, letter by letter
        assert [letter.label() for letter in x_block(4)] == [
            "x1",
            "x1",
            "(x2)_{x1}",
            "(x2)_{x1}",
            "(x3)_{x2 x1}",
            "(x3)_{x2 x1}",
            "(z^2)_{x3 x2 x1}",
            "(y1^2)_{z x3 x2 x1}",
            "(y2^2)_{y1 z x3 x2 x1}",
            "(y3^2)_{y2 y1 z x3 x2 x1}",
        ]

    def test_y_block_is_the_mirror(self):
        assert y_block(4) == tuple(mirror_letter(t) for t in x_block(4))
        labels = [letter.label() for letter in y_block(4)]
        assert labels[0] == "y3"
        assert labels[6] == "(z^2)_{y1 y2 y3}"
        assert labels[-1] == "(x1^2)_{x2 x3 z y1 y2 y3}"

    def test_mirror_is_an_involution(self):
        for letter in x_block(4) + y_block(4):
            assert mirror_letter(mirror_letter(letter)) == letter

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_block_length(self, m):
        assert len(x_block(m)) == 3 * m - 2
        assert len(y_block(m)) == 3 * m - 2

    def test_half_twists_come_in_consecutive_pairs(self):
        block = x_block(6)
        halves = [t for t in block if t.power == 1]
        assert halves == [t for pair in zip(halves[::2], halves[::2]) for t in pair]

    def test_blocks_validation(self):
        assert [len(block) for block in (x_block(4), y_block(4))] == [10, 10]


class TestRewrite:
    def test_rewrite_targets(self):
        # [DERIVED] cross-colour forms of the full twists of both blocks
        X, Y = x_block(4), y_block(4)
        assert rewrite_cross_colour(X[6]).label() == "(z^2)_{x3 x2 x1}"
        assert rewrite_cross_colour(X[7]).label() == "(z^2)_{y1^-1 x3 x2 x1}"
        assert rewrite_cross_colour(X[8]).label() == "(z^2)_{y1^-1 y2^-1 x3 x2 x1}"
        assert (
            rewrite_cross_colour(X[9]).label()
            == "(z^2)_{y1^-1 y2^-1 y3^-1 x3 x2 x1}"
        )
        assert (
            rewrite_cross_colour(Y[9]).label()
            == "(z^2)_{x3^-1 x2^-1 x1^-1 y1 y2 y3}"
        )

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_rewrites_are_braid_equal(self, m):
        for letter in x_block(m) + y_block(m):
            if letter.power != 2:
                continue
            rewritten = rewrite_cross_colour(letter)
            assert rewritten.core == m
            assert all(g != m for g, _ in rewritten.conjugator)
            assert braid_equal(
                letter.braid_word(), rewritten.braid_word(), letter.strands
            )

    def test_half_twist_letter_not_rewritable(self):
        with pytest.raises(MonodromyError):
            rewrite_cross_colour(x_block(4)[0])

    def test_z_commutes_past_its_own_square(self):
        letter = BicolouredLetter(8, 4, 2, 1, ((4, 1), (1, 1)))
        assert rewrite_cross_colour(letter).conjugator == ((1, 1),)

    def test_interior_z_in_conjugator_rejected(self):
        letter = BicolouredLetter(8, 4, 2, 1, ((1, 1), (4, 1)))
        with pytest.raises(MonodromyError):
            rewrite_cross_colour(letter)

    def test_same_colour_full_twist_without_block_shape_rejected(self):
        # a full twist whose conjugator does not reach across the colours
        with pytest.raises(MonodromyError):
            rewrite_cross_colour(BicolouredLetter(8, 1, 2, 1))


class TestLift:
    def test_lifted_block_shapes(self):
        lifted_x = lift_to_twists(x_block(4))
        lifted_y = lift_to_twists(y_block(4))
        assert len(lifted_x) == len(lifted_y) == 16
        assert {str(t.core) for t in lifted_x.letters} == {
            "alpha_1", "alpha_2", "alpha_3",
            "gamma_1", "gamma_2", "gamma_3",
            "sigma",
        }
        assert {str(t.core) for t in lifted_y.letters} == {
            "beta_1", "beta_2", "beta_3",
            "delta_1", "delta_2", "delta_3",
            "sigma",
        }

    def test_conjugators_lift_letterwise(self):
        lifted = lift_to_twists(x_block(4))
        central = lifted.letters[12]  # image of (z^2)_{x3 x2 x1}
        assert central == TwistLetter(
            curve("sigma"),
            1,
            (
                (curve("alpha", 3), 1), (curve("gamma", 3), 1),
                (curve("alpha", 2), 1), (curve("gamma", 2), 1),
                (curve("alpha", 1), 1), (curve("gamma", 1), 1),
            ),
        )

    def test_half_twist_lifts_to_disjoint_pair(self, model):
        lifted = lift_to_twists(x_block(4))
        assert lifted.letters[0] == bare(curve("alpha", 1))
        assert lifted.letters[1] == bare(curve("gamma", 1))
        # the two circles over a half-twist are disjoint, so their twists
        # commute on homology
        for i in (1, 2, 3):
            a, g = (curve("alpha", i), 1), (curve("gamma", i), 1)
            assert (
                twist_word_matrix(model, (a, g)).matrix
                == twist_word_matrix(model, (g, a)).matrix
            )

    def test_block_must_share_one_fibre(self):
        with pytest.raises(MonodromyError):
            lift_to_twists(x_block(4) + x_block(6))

    def test_model_must_be_the_fibre_of_b(self, model):
        with pytest.raises(MonodromyError):
            lifted_composition(3, model=model)

    def test_larger_fibre(self):
        lifted = lift_to_twists(x_block(6))
        assert len(lifted) == 5 * 6 - 4

    @pytest.mark.parametrize("b", sorted(LIFT_DIGESTS))
    def test_word_level_lift_matches_model_lift(self, b):
        letters = lifted_composition(b).letters
        assert hashlib.sha256(repr(letters).encode()).hexdigest() == LIFT_DIGESTS[b]


class TestComposition:
    def test_constraint_table(self):
        # [DERIVED] both constraints hold for every arrangement and no
        # arrangement of up to six blocks is homologically trivial, so
        # the table must report the ambiguity unresolved
        assert composition_search(2) == {
            "colour_preserving": True,
            "permutation_identity": {"X": True, "Y": True},
            "trivial_arrangements": (),
            "x_block_trivial": False,
            "y_block_trivial": False,
            "ambiguous": True,
        }

    def test_default_composition(self, model):
        assert default_composition(2) == ("X", "Y")
        comp = lifted_composition(2, model=model)
        assert len(comp) == 32
        cores = {str(t.core) for t in comp.letters}
        assert len(cores) == 13 and "sigma" in cores

    def test_diagnostic_half_blocks_miss_the_centre(self, model):
        comp = lifted_composition(2, ("Xh", "Yh"), model=model)
        assert len(comp) == 24
        assert "sigma" not in {str(t.core) for t in comp.letters}

    def test_unknown_label_and_bad_b(self):
        with pytest.raises(ValueError):
            lifted_composition(2, ("X", "Q"))
        with pytest.raises(ValueError):
            default_composition(1)
        with pytest.raises(ValueError):
            default_composition("2")

    def test_blocks_act_trivially_on_strands(self):
        identity = tuple(range(1, 9))
        for block in (x_block(4), y_block(4)):
            word = sum((letter.braid_word() for letter in block), ())
            assert permutation_image(word, 8) == identity


class TestGeneration:
    def test_both_blocks_cover_all_generators(self):
        report = generation_check([x_block(4), y_block(4)])
        assert report["all_generators_present"]
        assert report["missing"] == ()

    def test_one_block_misses_the_other_colour(self):
        report = generation_check([x_block(4)])
        assert report["missing"] == ("y1", "y2", "y3")
        assert report["generators"]["y1"] == {
            "core": False, "squared_core": True, "conjugator": True,
        }
        assert report["generators"]["z"] == {
            "core": False, "squared_core": True, "conjugator": True,
        }

    def test_empty_scan_rejected(self):
        with pytest.raises(ValueError):
            generation_check([()])


class TestPrintedFactorization:
    def test_mu_nu_block_shape(self):
        block = mu_nu_block(2)
        assert len(block) == 12
        mu4 = block.letters[0]
        assert mu4 == TwistLetter(
            curve("alpha", 3),
            1,
            ((curve("alpha", 2), -1), (curve("alpha", 1), -1)),
        )
        assert block.letters[1] == mu4
        nu4 = block.letters[2]
        assert nu4.core == curve("gamma", 3)
        assert len(mu_nu_block(3)) == 20

    def test_normal_form_shape(self):
        normal = mu_nu_normal_form(2)
        assert len(normal) == 12
        assert all(not t.conjugator and t.sign == 1 for t in normal.letters)
        assert [str(t.core) for t in normal.letters[:6]] == [
            "alpha_1", "alpha_2", "alpha_3", "alpha_3", "alpha_2", "alpha_1",
        ]

    @pytest.mark.parametrize("b", [2, 3])
    def test_block_equals_normal_form_on_homology(self, b):
        m = reference_model(b)
        assert (
            product_matrix(m, mu_nu_block(b)).matrix
            == product_matrix(m, mu_nu_normal_form(b)).matrix
        )

    @pytest.mark.parametrize("b,length", [(2, 25), (3, 41)])
    def test_full_factorization_shape(self, b, length):
        fact = appendix_factorization(b)
        assert len(fact) == length
        assert all(t.sign == 1 for t in fact.letters)
        mid = 4 * (2 * b - 1)
        assert fact.letters[mid] == bare(curve("sigma"))
        tail = [str(t.core) for t in fact.letters[mid + 1 :]]
        n = 2 * b - 1
        betas = [f"beta_{i}" for i in range(n, 0, -1)]
        deltas = [f"delta_{i}" for i in range(n, 0, -1)]
        assert tail == betas + betas[::-1] + deltas + deltas[::-1]

    def test_bad_b(self):
        for builder in (mu_nu_block, mu_nu_normal_form, appendix_factorization):
            with pytest.raises(ValueError):
                builder(1)


class TestMoveScripts:
    def test_greedy_normalization(self, model):
        # [DERIVED] the deterministic normalizer reaches the claimed
        # normal form in 24 moves at b=2 (80 at b=3)
        key = lambda letter: letter_matrix(model, letter)
        start, goal = mu_nu_block(2), mu_nu_normal_form(2)
        script = greedy_match_script(start, goal, key)
        assert script is not None and len(script) == 24
        out = apply_script(start, script)
        assert [key(t) for t in out.letters] == [key(t) for t in goal.letters]

    def test_greedy_normalization_larger(self):
        m = reference_model(3)
        key = lambda letter: letter_matrix(m, letter)
        script = greedy_match_script(mu_nu_block(3), mu_nu_normal_form(3), key)
        assert script is not None and len(script) == 80

    def test_bounded_search_is_inconclusive_here(self, model):
        # the distance (24 moves) is far beyond the default budget, so
        # the bounded search must honestly give up rather than answer
        key = lambda letter: letter_matrix(model, letter)
        assert hurwitz_search(mu_nu_block(2), mu_nu_normal_form(2), key) is None

    def test_doubled_block_rearrangement(self):
        # [DERIVED] the doubled two-generator block rearranges into the
        # conjugated ascending form in four moves
        def plain(i, conj=()):
            return TwistLetter(i, 1, conj)

        start = Factorization((plain(1), plain(2), plain(2), plain(1)) * 2)
        goal = Factorization(
            (plain(1), plain(1), plain(2, ((1, 1),)), plain(2, ((1, 1),))) * 2
        )
        key = lambda letter: word_fingerprint(
            conjugate(((letter.core, letter.sign),), letter.conjugator), 3
        )
        script = hurwitz_search(start, goal, key)
        assert script == (("right", 2), ("right", 1), ("right", 6), ("right", 5))
        out = apply_script(start, script)
        assert [key(t) for t in out.letters] == [key(t) for t in goal.letters]


class TestCertificate:
    def test_every_core_is_witnessed(self, model):
        comp = lifted_composition(2, model=model)
        cores = []
        for c, _ in psi_factorization(2):
            if c not in cores:
                cores.append(c)
        assert len(cores) == 13
        assert set(cores) <= {t.core for t in comp.letters}
        cert = auroux_certificate(comp, cores)
        fronts = replay_certificate(comp, cert)
        assert len(fronts) == 13
        assert all(t.sign == 1 and not t.conjugator for t in fronts)
        assert [t.core for t in fronts] == cores
        for front in fronts:
            assert letter_matrix(model, front) == letter_matrix(
                model, bare(front.core)
            )
