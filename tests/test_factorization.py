"""Letter calculus, elementary moves, certificates, and move search.

The planted strip script and the small move identities were worked out
by hand on two- and five-letter factorizations before being frozen
[DERIVED]; everything else is property-based.  Moves, conjugates and
products join reduced words at the seam; they are checked against the
slow path that free-reduces the whole concatenation, and the conjugator
lengths and digest of one growth script are pinned from that slow path.
"""
import hashlib
import itertools
import random
import re

import pytest
from conftest import scanned_shared_crossings
from hypothesis import given, settings, strategies as st

from twistbench import factorization
from twistbench.braids import word_fingerprint
from twistbench.factorization import (
    AurouxCertificate,
    ConjugatorCapError,
    Factorization,
    MissingCoreError,
    MoveBudgetError,
    MoveError,
    TwistLetter,
    apply_script,
    auroux_certificate,
    bare,
    greedy_match_script,
    hurwitz_search,
    inverse_op,
    invert_script,
    letter_matrix,
    product_matrix,
    replay_certificate,
    strip_to_front,
)
from twistbench.homology import reference_model, twist_word_matrix
from twistbench.intlin import mat_mul
from twistbench.coxeter import psi_factorization
from twistbench.monodromy import lifted_composition, mu_nu_block, mu_nu_normal_form
from twistbench.surface import curve
from twistbench.words import SHARED_INVERSES_FROM, conjugate, free_reduce, invert, join_conjugate


@pytest.fixture(scope="module")
def model():
    return reference_model(2)


def curves_of(model):
    return model.system.curves


letters_st = st.builds(
    TwistLetter,
    core=st.sampled_from("abcd"),
    sign=st.sampled_from((1, -1)),
    conjugator=st.lists(
        st.tuples(st.sampled_from("abcd"), st.sampled_from((1, -1))), max_size=3
    ).map(tuple),
)
fact_st = st.lists(letters_st, min_size=2, max_size=6).map(
    lambda ls: Factorization(tuple(ls))
)


def scripts(data, fact, max_moves):
    return tuple(
        (data.draw(st.sampled_from(("right", "left"))), data.draw(st.integers(0, len(fact) - 2)))
        for _ in range(data.draw(st.integers(0, max_moves)))
    )


def expansion(t):
    """The plain twist word of a letter: inverse conjugator, core,
    conjugator."""
    return conjugate(((t.core, t.sign),), t.conjugator)


def slow_move(fact, index, direction):
    """Reference move: conjugate by the whole unreduced expansion and let
    the constructor free-reduce the full concatenation."""
    a, b = fact.letters[index], fact.letters[index + 1]
    if direction == "right":
        pair = (b, TwistLetter(a.core, a.sign, a.conjugator + expansion(b)))
    else:
        pair = (TwistLetter(b.core, b.sign, b.conjugator + invert(expansion(a))), a)
    return Factorization(fact.letters[:index] + pair + fact.letters[index + 2:])


def expanded_word(fact):
    """The plain twist word of a factorization: its letters' expansions,
    concatenated without reduction."""
    return tuple(x for t in fact.letters for x in expansion(t))


def random_fact(rng, curves, size):
    return Factorization(tuple(
        TwistLetter(rng.choice(curves), rng.choice((1, -1)),
                    tuple((rng.choice(curves), rng.choice((1, -1)))
                          for _ in range(rng.randrange(4))))
        for _ in range(size)))


class TestLetters:
    def test_expansion_shape(self):
        t = TwistLetter("c", -1, (("a", 1), ("b", -1)))
        assert expansion(t) == (("b", 1), ("a", -1), ("c", -1), ("a", 1), ("b", -1))
        assert t.conjugator
        assert not bare("c").conjugator

    def test_conjugator_is_reduced_on_build(self):
        t = TwistLetter("c", 1, (("a", 1), ("a", -1)))
        assert not t.conjugator

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            TwistLetter("c", 2)

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_bad_sign_class_and_message(self, sign):
        with pytest.raises(ValueError) as err:
            TwistLetter("c", sign, (("a", 1),))
        assert type(err.value) is ValueError
        assert str(err.value) == "letter sign must be +1 or -1"

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_bad_conjugator_sign_rejected(self, sign):
        # the conjugator may be an iterator: it is read once, as a tuple
        with pytest.raises(ValueError) as err:
            TwistLetter("c", 1, iter((("a", 1), ("b", sign), ("a", -1))))
        assert type(err.value) is ValueError
        assert str(err.value) == f"conjugator letter signs must be +1 or -1, got {sign} on b"
        assert TwistLetter("c", 1, iter((("a", 1), ("b", -1)))).conjugator == (("a", 1), ("b", -1))

    def test_repr_of_a_conjugated_letter(self):
        t = TwistLetter(curve("alpha", 1), -1, ((curve("beta", 2), 1),))
        assert repr(t) == (
            "TwistLetter(core=CurveId(family='alpha', index=1), sign=-1, "
            "conjugator=((CurveId(family='beta', index=2), 1),))"
        )

    def test_only_the_constructor_reduces(self):
        unreduced = (("a", 1), ("b", 1), ("b", -1), ("d", -1))
        assert TwistLetter("c", 1, unreduced).conjugator == (("a", 1), ("d", -1))
        assert TwistLetter("c", 1, conjugator=list(unreduced)).conjugator == (
            ("a", 1), ("d", -1)
        )
        assert TwistLetter._reduced("c", 1, unreduced).conjugator == unreduced

    def test_fields_are_read_only(self):
        t = TwistLetter("c", 1, (("a", 1),))
        for field, value in (("core", "d"), ("sign", -1), ("conjugator", ())):
            with pytest.raises(AttributeError):
                setattr(t, field, value)
        assert t == TwistLetter("c", 1, (("a", 1),))

    def test_equals_its_plain_tuple(self):
        # value semantics of the tuple base: a letter equals, and hashes
        # like, the plain (core, sign, conjugator) tuple
        t = TwistLetter("c", -1, (("a", 1),))
        assert t == ("c", -1, (("a", 1),))
        assert hash(bare("c")) == hash(("c", 1, ()))

    @given(letters_st)
    def test_reduced_expansion(self, t):
        assert t.reduced_expansion() == free_reduce(expansion(t))


class TestMoves:
    def test_right_move_explicit(self):
        F = Factorization((bare("a"), bare("b")))
        G = apply_script(F, (("right", 0),))
        assert G.letters == (bare("b"), TwistLetter("a", 1, (("b", 1),)))

    def test_left_move_explicit(self):
        F = Factorization((bare("a"), bare("b")))
        G = apply_script(F, (("left", 0),))
        assert G.letters == (TwistLetter("b", 1, (("a", -1),)), bare("a"))

    def test_moves_are_mutually_inverse(self):
        F = Factorization((bare("a"), TwistLetter("b", -1, (("a", 1),)), bare("c")))
        for i in (0, 1):
            assert apply_script(F, (("right", i), ("left", i))).letters == F.letters
            assert apply_script(F, (("left", i), ("right", i))).letters == F.letters

    def test_bad_index_and_direction(self):
        F = Factorization((bare("a"), bare("b")))
        with pytest.raises(MoveError, match="move index 1 out of range for 2 letters"):
            apply_script(F, (("right", 1),))
        with pytest.raises(MoveError, match="unknown move direction 'sideways'"):
            apply_script(F, (("sideways", 0),))

    def test_script_error_reports_step(self):
        F = Factorization((bare("a"), bare("b")))
        with pytest.raises(MoveError) as err:
            apply_script(F, (("right", 0), ("right", 5)))
        assert err.value.step == 1

    @settings(max_examples=30, deadline=None)
    @given(fact_st, st.data())
    def test_reduced_word_is_move_invariant(self, fact, data):
        before = free_reduce(expanded_word(fact))
        for _ in range(data.draw(st.integers(0, 6))):
            i = data.draw(st.integers(0, len(fact) - 2))
            fact = apply_script(fact, ((data.draw(st.sampled_from(("right", "left"))), i),))
        assert free_reduce(expanded_word(fact)) == before

    @settings(max_examples=60, deadline=None)
    @given(fact_st, st.data())
    def test_moves_match_full_reduction(self, fact, data):
        script = scripts(data, fact, 10)
        slow = fact
        for direction, i in script:
            slow = slow_move(slow, i, direction)
        assert apply_script(fact, script).letters == slow.letters

    @settings(max_examples=20, deadline=None)
    @given(fact_st, st.data())
    def test_scripts_invert_exactly(self, fact, data):
        script = scripts(data, fact, 8)
        moved = apply_script(fact, script)
        assert apply_script(moved, invert_script(script)).letters == fact.letters

    @settings(max_examples=60, deadline=None)
    @given(fact_st, st.data())
    def test_cap_sees_the_exact_conjugator_total(self, fact, data):
        """A cap one below the largest total a script reaches stops it at
        the first step that reaches that total; at the total it passes."""
        script = scripts(data, fact, 10)
        totals, moved = [], fact
        for direction, i in script:
            moved = slow_move(moved, i, direction)
            totals.append(sum(len(t.conjugator) for t in moved.letters))
        peak = max(totals, default=0)
        cap = factorization.MAX_CONJUGATOR_TOTAL
        try:
            factorization.MAX_CONJUGATOR_TOTAL = peak
            assert apply_script(fact, script).letters == moved.letters
            factorization.MAX_CONJUGATOR_TOTAL = peak - 1
            if totals:
                with pytest.raises(ConjugatorCapError) as err:
                    apply_script(fact, script)
                assert err.value.step == totals.index(peak)
                assert err.value.total == peak
        finally:
            factorization.MAX_CONJUGATOR_TOTAL = cap


class TestProducts:
    def test_product_invariance_random(self, model):
        rng = random.Random(11)
        curves = curves_of(model)
        for _ in range(50):
            fact = Factorization(tuple(
                TwistLetter(rng.choice(curves), rng.choice((1, -1)),
                            tuple((rng.choice(curves), rng.choice((1, -1)))
                                  for _ in range(rng.randrange(3))))
                for _ in range(6)))
            before = product_matrix(model, fact).matrix
            for _ in range(rng.randint(1, 30)):
                fact = apply_script(fact, ((rng.choice(("right", "left")),
                                            rng.randrange(len(fact) - 1)),))
            assert product_matrix(model, fact).matrix == before

    def test_product_matches_full_reduction(self, model):
        rng = random.Random(5)
        curves = curves_of(model)
        for _ in range(40):
            fact = random_fact(rng, curves, rng.randrange(1, 7))
            if len(fact) > 1:
                fact = apply_script(fact, tuple(
                    (rng.choice(("right", "left")), rng.randrange(len(fact) - 1))
                    for _ in range(rng.randrange(12))))
            fast = product_matrix(model, fact)
            slow = twist_word_matrix(model, free_reduce(expanded_word(fact)))
            assert fast.word == slow.word
            assert fast.matrix == slow.matrix

    def test_letter_matrix_matches_full_expansion(self, model):
        a, b = curves_of(model)[0], curves_of(model)[12]
        # the conjugator starts with a power of the core, which cancels
        t = TwistLetter(a, -1, ((a, 1), (a, 1), (b, -1), (a, 1)))
        assert letter_matrix(model, t) == twist_word_matrix(model, expansion(t)).matrix

    def test_letter_matrix_cache_lives_on_model(self):
        fresh = reference_model(2)
        t = TwistLetter(curves_of(fresh)[0], 1, ((curves_of(fresh)[12], 1),))
        got = letter_matrix(fresh, t)
        assert fresh.letter_matrices == {t: got}
        assert reference_model(2).letter_matrices == {}

    def test_letter_matrix_is_conjugated_twist(self, model):
        curves = curves_of(model)
        t = TwistLetter(curves[0], 1, ((curves[12], 1),))
        got = letter_matrix(model, t)
        w = twist_word_matrix(model, ((curves[12], 1),)).matrix
        w_inv = twist_word_matrix(model, ((curves[12], -1),)).matrix
        core = twist_word_matrix(model, ((curves[0], 1),)).matrix
        assert got == mat_mul(mat_mul(w_inv, core), w)

    def test_fiber_sum_products_compose(self, model):
        curves = curves_of(model)
        F = Factorization((bare(curves[0]), bare(curves[1])))
        G = Factorization((bare(curves[5]), bare(curves[12])))
        # the fiber sum concatenates the factorizations
        total = product_matrix(model, Factorization(F.letters + G.letters)).matrix
        assert total == mat_mul(product_matrix(model, F).matrix,
                                product_matrix(model, G).matrix)

    def test_twisted_fiber_sum_conjugates_second_block(self, model):
        curves = curves_of(model)
        F = Factorization((bare(curves[0]),))
        G = Factorization((bare(curves[3]),))
        word = ((curves[12], 1),)
        # the twisted fiber sum conjugates every letter of the second block
        twisted = Factorization(
            F.letters + tuple(TwistLetter(t.core, t.sign, t.conjugator + word) for t in G.letters)
        )
        assert twisted.letters[1].conjugator == word
        assert product_matrix(model, twisted).matrix != product_matrix(
            model, Factorization(F.letters + G.letters)
        ).matrix  # sigma does not commute with beta_1 on homology


class TestGrowth:
    def test_growth_script_pinned(self, model):
        """``(right 1, left 2) * 9`` multiplies conjugator length by about
        2.6 per repeat; lengths and digest come from full reduction."""
        curves = curves_of(model)
        rng = random.Random(4)
        fact = Factorization(tuple(
            TwistLetter(rng.choice(curves), rng.choice((1, -1)),
                        tuple((rng.choice(curves), rng.choice((1, -1))) for _ in range(2)))
            for _ in range(4)))
        moved = apply_script(fact, (("right", 1), ("left", 2)) * 9)
        assert [len(t.conjugator) for t in moved.letters] == [2, 20898, 54722, 33818]
        text = " ".join(f"{c.label}{s:+d}" for t in moved.letters for c, s in t.conjugator)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "20b9ae2d09725d55f10145821fee6e8c11720d619b73f4a41441393a27d13c34"
        )
        after = product_matrix(model, moved)
        assert len(after.word) == 20
        assert after.matrix == product_matrix(model, fact).matrix


class TestFrontOperations:
    def test_rotate_preserves_letter_and_product(self, model):
        curves = curves_of(model)
        rng = random.Random(3)
        fact = Factorization(tuple(bare(rng.choice(curves)) for _ in range(5)))
        for i in range(len(fact)):
            # right moves carry the moving letter unchanged
            moved = apply_script(fact, tuple(("right", j) for j in range(i - 1, -1, -1)))
            assert moved.letters[0] == fact.letters[i]
            assert product_matrix(model, moved).matrix == product_matrix(model, fact).matrix

    def test_strip_planted_nested_conjugators(self, model):
        a1, a2, a3 = curves_of(model)[0:3]
        planted = Factorization((
            bare(a1), bare(a1),
            TwistLetter(a2, 1, ((a1, 1),)), TwistLetter(a2, 1, ((a1, 1),)),
            TwistLetter(a3, 1, ((a2, 1), (a1, 1))),
        ))
        front, script = strip_to_front(planted, 4)
        assert front == apply_script(planted, script).letters[0] == bare(a3)
        # [DERIVED] hand-run of the greedy: strip, slide, strip, slide
        assert script == (("left", 3), ("right", 2), ("left", 1), ("right", 0))

    @settings(max_examples=40, deadline=None)
    @given(fact_st, st.data())
    def test_strip_matches_full_reduction(self, fact, data):
        index = data.draw(st.integers(0, len(fact) - 1))
        slow, slow_script = fact, []
        for i in range(index, 0, -1):
            target, neighbour = slow.letters[i], slow.letters[i - 1]
            stripped = free_reduce(target.conjugator + invert(expansion(neighbour)))
            op = ("left" if len(stripped) < len(target.conjugator) else "right", i - 1)
            slow = slow_move(slow, i - 1, op[0])
            slow_script.append(op)
        front, script = strip_to_front(fact, index)
        assert script == tuple(slow_script)
        assert front == slow.letters[0]
        assert apply_script(fact, script).letters == slow.letters

    @staticmethod
    def built_strip(fact, index):
        """``strip_to_front`` as it was before it measured a move first:
        build the joined conjugator on every move, then compare lengths."""
        letter = fact.letters[index]
        script = []
        for i in range(index - 1, -1, -1):
            a = fact.letters[i]
            conjugator = join_conjugate(letter.conjugator, (a.core, -a.sign), a.conjugator)
            left = len(conjugator) < len(letter.conjugator)
            if left:
                letter = TwistLetter(letter.core, letter.sign, conjugator)
            script.append(("left" if left else "right", i))
        return letter, tuple(script)

    @settings(max_examples=60, deadline=None)
    @given(fact_st, st.data())
    def test_strip_matches_built_strip(self, fact, data):
        index = data.draw(st.integers(0, len(fact) - 1))
        assert strip_to_front(fact, index) == self.built_strip(fact, index)

    @pytest.mark.parametrize("b", [2, 3])
    def test_strip_matches_built_strip_on_lifts(self, b):
        for fact in (lifted_composition(b), lifted_composition(b, ("X", "Y", "X"))):
            for index in range(len(fact)):
                assert strip_to_front(fact, index) == self.built_strip(fact, index)

    def test_strip_matches_built_strip_on_grown_conjugators(self, model):
        # conjugators of hundreds of letters, whose inverses share letters
        rng = random.Random(8)
        for _ in range(4):
            fact = random_fact(rng, curves_of(model), 6)
            i = rng.randrange(len(fact) - 2)
            fact = apply_script(fact, (("right", i), ("left", i + 1)) * 5)
            assert max(len(t.conjugator) for t in fact.letters) > SHARED_INVERSES_FROM
            for index in range(len(fact)):
                assert strip_to_front(fact, index) == self.built_strip(fact, index)


class TestCertificates:
    def planted(self, model):
        a1, a2, a3 = curves_of(model)[0:3]
        return Factorization((
            bare(a1), bare(a1),
            TwistLetter(a2, 1, ((a1, 1),)), TwistLetter(a2, 1, ((a1, 1),)),
            TwistLetter(a3, 1, ((a2, 1), (a1, 1))),
        )), (a1, a2, a3)

    def test_certificate_strips_all_cores(self, model):
        fact, cores = self.planted(model)
        cert = auroux_certificate(fact, cores)
        assert cert.all_bare
        assert [s.core for s in cert.steps] == list(cores)

    def test_replay_round_trips(self, model):
        fact, cores = self.planted(model)
        cert = auroux_certificate(fact, cores)
        fronts = replay_certificate(fact, cert)
        assert [f.core for f in fronts] == list(cores)
        assert all(not f.conjugator for f in fronts)

    def test_replay_rejects_tampered_script(self, model):
        fact, cores = self.planted(model)
        cert = auroux_certificate(fact, cores)
        step = cert.steps[2]
        bad = AurouxCertificate(
            base_cores=cert.base_cores,
            steps=cert.steps[:2]
            + (type(step)(step.core, step.script[:-1], step.front_letter),),
        )
        with pytest.raises(MoveError) as err:
            replay_certificate(fact, bad)
        assert err.value.step == 2

    def test_growing_script_fails_before_any_cap(self, model, monkeypatch):
        # the script grows the conjugators past the cap under apply_script;
        # the replay derives its step instead and fails it without a move
        monkeypatch.setattr(factorization, "MAX_CONJUGATOR_TOTAL", 1000)
        fact, cores = self.planted(model)
        cert = auroux_certificate(fact, cores)
        step = cert.steps[0]
        growing = (("right", 1), ("left", 2)) * 30
        with pytest.raises(ConjugatorCapError):
            apply_script(fact, growing)
        grown = AurouxCertificate(
            base_cores=fact.cores(),
            steps=(step._replace(script=growing),),
        )
        with pytest.raises(MoveError) as err:
            replay_certificate(fact, grown)
        assert type(err.value) is MoveError and err.value.step == 0
        assert str(err.value) == "script step 0: 60 moves reach past the prefix of 5 letters"
        grown = grown._replace(steps=(step._replace(script=growing[:3]),))
        with pytest.raises(MoveError) as err:
            replay_certificate(fact, grown)
        assert type(err.value) is MoveError and err.value.step == 0
        assert str(err.value) == f"script step 0: replayed script differs for core {step.core}"

    def test_certificate_moves_no_pair(self, monkeypatch):
        # strip_to_front follows the one letter it moves: each script step
        # joins one conjugator and builds no swapped pair
        calls = []
        original = factorization._swap

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(factorization, "_swap", counting)
        cores = list(dict.fromkeys(c for c, _ in psi_factorization(2)))
        cert = auroux_certificate(lifted_composition(2), cores)
        assert sum(len(step.script) for step in cert.steps) > 0
        assert calls == []

    def test_replay_rejects_wrong_base(self, model):
        fact, cores = self.planted(model)
        cert = auroux_certificate(fact, cores)
        other = Factorization(fact.letters[::-1])
        with pytest.raises(MoveError):
            replay_certificate(other, cert)

    def test_missing_core_rejected(self, model):
        fact, _ = self.planted(model)
        with pytest.raises(ValueError):
            auroux_certificate(fact, (curves_of(model)[7],))

    def test_every_missing_core_is_named(self, model):
        fact, _ = self.planted(model)
        a1, c7, c8 = (curves_of(model)[i] for i in (0, 7, 8))
        with pytest.raises(MissingCoreError, match=re.escape(f"no positive letter with core {c7}, {c8}")) as err:
            auroux_certificate(fact, (c7, a1, c8))
        assert err.value.cores == [c7, c8]

    @staticmethod
    def lift_certificate(b, composition):
        cores = list(dict.fromkeys(c for c, _ in psi_factorization(b)))
        fact = lifted_composition(b, composition)
        return fact, auroux_certificate(fact, cores)

    @pytest.mark.parametrize(
        "composition", [("X", "Y"), ("Y", "X", "Y", "Xh", "X"), ("Yh", "Xh", "Y", "X")]
    )
    def test_base_cores_are_the_touched_prefix(self, composition):
        fact, cert = self.lift_certificate(3, composition)
        size = max(len(step.script) for step in cert.steps) + 1
        assert size < len(fact)
        assert cert.base_cores == fact.cores()[:size]

    def test_prefix_replay_equals_whole_lift_replay(self):
        fact, cert = self.lift_certificate(3, ("X", "Y", "X"))
        whole = [apply_script(fact, step.script).letters[0] for step in cert.steps]
        assert replay_certificate(fact, cert) == whole

    def test_whole_lift_certificate_still_replays(self):
        # the format whose base_cores hold every core of the lift: the
        # lift is its own prefix
        fact, cert = self.lift_certificate(3, ("X", "Y", "X"))
        whole = cert._replace(base_cores=fact.cores())
        assert replay_certificate(fact, whole) == replay_certificate(fact, cert)

    @pytest.mark.parametrize("past", [0, 10**6, -4], ids=["last-letter", "far", "negative"])
    def test_move_past_the_prefix_names_its_step(self, model, past):
        fact, cores = self.planted(model)
        cert = auroux_certificate(fact, cores[:2])
        size = len(cert.base_cores)
        assert size == 3 < len(fact)
        step = cert.steps[1]
        index = size - 1 + past
        reaching = cert._replace(
            steps=(step._replace(script=step.script + (("right", index),)),)
        )
        if not past:
            # the move is valid on the whole factorization, not on the prefix
            apply_script(fact, reaching.steps[0].script)
        with pytest.raises(MoveError) as err:
            replay_certificate(fact, reaching)
        # a script of n moves starts at letter n, here one past the prefix
        assert err.value.step == 0
        assert str(err.value) == (
            f"script step 0: {len(step.script) + 1} moves reach past the prefix of {size} letters"
        )

    @pytest.mark.parametrize("b", [2, 3])
    def test_apply_script_reproduces_every_front(self, b):
        # oracle: the general move routine, run on the prefix, brings each
        # recorded front letter to the front
        cores = list(dict.fromkeys(c for c, _ in psi_factorization(b)))
        checked = 0
        for n in (1, 2, 3):
            for composition in itertools.product(("X", "Y", "Xh", "Yh"), repeat=n):
                fact = lifted_composition(b, composition)
                try:
                    cert = auroux_certificate(fact, cores)
                except MissingCoreError:
                    continue
                prefix = Factorization(fact.letters[: len(cert.base_cores)])
                for step in cert.steps:
                    assert apply_script(prefix, step.script).letters[0] == step.front_letter
                assert replay_certificate(fact, cert) == [s.front_letter for s in cert.steps]
                checked += 1
        assert checked > 30

    def test_flipped_move_fails_its_step(self):
        fact, cert = self.lift_certificate(2, ("X", "Y"))
        flipped = 0
        for k, step in enumerate(cert.steps):
            for j, op in enumerate(step.script):
                script = step.script[:j] + (inverse_op(op),) + step.script[j + 1:]
                steps = cert.steps[:k] + (step._replace(script=script),) + cert.steps[k + 1:]
                with pytest.raises(MoveError) as err:
                    replay_certificate(fact, cert._replace(steps=steps))
                assert err.value.step == k
                assert str(err.value) == f"script step {k}: replayed script differs for core {step.core}"
                flipped += 1
        assert flipped > 100

    @pytest.mark.parametrize("b", [2, 3])
    def test_repeated_blocks_leave_the_steps(self, b):
        # later copies of a block hold the same letters at higher indices,
        # so they never win the least (conjugator length, index)
        cores = list(dict.fromkeys(c for c, _ in psi_factorization(b)))
        checked = 0
        for n in (1, 2, 3):
            for composition in itertools.product(("X", "Y", "Xh", "Yh"), repeat=n):
                try:
                    steps = auroux_certificate(lifted_composition(b, composition), cores).steps
                except ValueError:
                    continue
                for extra in (composition, composition[:1], composition[-1:] * 2):
                    longer = lifted_composition(b, composition + extra)
                    assert auroux_certificate(longer, cores).steps == steps
                checked += 1
        assert checked > 30

    def test_cost_budget_is_checked_before_the_first_move(self, model, monkeypatch):
        fact, cores = self.planted(model)
        cert = auroux_certificate(fact, cores)
        moves = sum(len(step.script) for step in cert.steps)
        assert moves > 0
        # a script of n moves brings the letter at index n to the front
        for step in cert.steps:
            assert [i for _, i in step.script] == list(range(len(step.script) - 1, -1, -1))
        # each move costs MOVE_COST plus the conjugator of the original
        # letter at its index, the letter it passes
        cost = sum(
            factorization.MOVE_COST + len(fact[i].conjugator)
            for step in cert.steps for _, i in step.script
        )
        assert cost > factorization.MOVE_COST * moves

        def forbidden(*args):
            pytest.fail("a move was made over the budget")

        monkeypatch.setattr(factorization, "MAX_CERTIFICATE_COST", cost - 1)
        monkeypatch.setattr(factorization, "strip_to_front", forbidden)
        monkeypatch.setattr(factorization, "apply_script", forbidden)
        for make in (lambda: auroux_certificate(fact, cores), lambda: replay_certificate(fact, cert)):
            with pytest.raises(MoveBudgetError) as err:
                make()
            assert (err.value.moves, err.value.cost) == (moves, cost)
            assert str(err.value) == (
                f"certificate scripts make {moves} moves at a cost of {cost}, "
                f"over the budget of {cost - 1}"
            )
        monkeypatch.undo()
        monkeypatch.setattr(factorization, "MAX_CERTIFICATE_COST", cost)
        assert auroux_certificate(fact, cores) == cert
        assert len(replay_certificate(fact, cert)) == len(cores)

    @pytest.mark.parametrize(
        "b, blocks, within",
        [(40, 5, True), (40, 6, False), (30, 10, True), (30, 11, False)],
    )
    def test_budget_on_late_x_blocks(self, monkeypatch, b, blocks, within):
        # the budget is the cost of Y x5, X at b = 40; the cost is known
        # before the first move, so no move is made here
        def forbidden(*args):
            pytest.fail("a move was made")

        monkeypatch.setattr(factorization, "strip_to_front", forbidden)
        cores = list(dict.fromkeys(c for c, _ in psi_factorization(b)))
        fact = lifted_composition(b, ("Y",) * blocks + ("X",))
        budget = factorization.MAX_CERTIFICATE_COST
        monkeypatch.setattr(factorization, "MAX_CERTIFICATE_COST", -1)
        with pytest.raises(MoveBudgetError) as err:
            auroux_certificate(fact, cores)
        assert (err.value.cost <= budget) == within
        if (b, blocks) == (40, 5):
            assert err.value.cost == budget


class TestSearch:
    def test_trivial_when_equal(self, model):
        curves = curves_of(model)
        F = Factorization((bare(curves[0]), bare(curves[1])))
        key = lambda t: letter_matrix(model, t)
        assert hurwitz_search(F, F, key) == ()

    def test_planted_scripts_found(self, model):
        curves = curves_of(model)
        rng = random.Random(23)
        key = lambda t: letter_matrix(model, t)
        for _ in range(10):
            F = Factorization(tuple(bare(rng.choice(curves)) for _ in range(5)))
            G = apply_script(
                F,
                tuple((rng.choice(("right", "left")), rng.randrange(len(F) - 1))
                      for _ in range(4)),
            )
            script = hurwitz_search(F, G, key, max_depth=5, budget=100000)
            assert script is not None
            H = apply_script(F, script)
            assert [key(t) for t in H.letters] == [key(t) for t in G.letters]

    def test_budget_exhaustion_is_inconclusive(self, model):
        curves = curves_of(model)
        F = Factorization((bare(curves[0]), bare(curves[1]), bare(curves[2])))
        G = apply_script(F, (("right", 0), ("right", 1)))
        key = lambda t: letter_matrix(model, t)
        assert hurwitz_search(F, G, key, max_depth=5, budget=1) is None

    def test_length_mismatch_is_inconclusive(self, model):
        curves = curves_of(model)
        F = Factorization((bare(curves[0]),))
        G = Factorization((bare(curves[0]), bare(curves[1])))
        key = lambda t: letter_matrix(model, t)
        assert hurwitz_search(F, G, key) is None


class TestMoveCongruence:
    """The contract of ``hurwitz_search`` that a move table from
    ``(id_a, id_b, direction)`` needs: the key of the letter a move
    creates depends only on the keys of the two letters swapped and the
    direction.  Each case builds a second pair with the same keys as the
    first and compares the keys of the moved pairs, in both directions."""

    @staticmethod
    def assert_moves_agree(pair, twin, key):
        assert [key(t) for t in pair] == [key(t) for t in twin]
        for direction in ("right", "left"):
            moved = apply_script(Factorization(pair), ((direction, 0),)).letters
            moved_twin = apply_script(Factorization(twin), ((direction, 0),)).letters
            assert [key(t) for t in moved] == [key(t) for t in moved_twin]

    @staticmethod
    def twin(data, letter, commutes, generators):
        """The letter conjugated once more by a drawn generator that
        commutes with its core, with the sign that does not cancel."""
        partner = data.draw(
            st.sampled_from([g for g in generators if g != letter.core and commutes(letter.core, g)])
        )
        conjugator = letter.conjugator
        sign = conjugator[0][1] if conjugator and conjugator[0][0] == partner else 1
        return TwistLetter(letter.core, letter.sign, ((partner, sign),) + conjugator)

    @staticmethod
    def letters_over(generators):
        return st.builds(
            TwistLetter,
            core=st.sampled_from(generators),
            sign=st.sampled_from((1, -1)),
            conjugator=st.lists(
                st.tuples(st.sampled_from(generators), st.sampled_from((1, -1))), max_size=3
            ).map(tuple),
        )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(letters_st, min_size=2, max_size=2))
    def test_structural_key(self, pair):
        # equal structural keys are equal letters, rebuilt here
        twin = tuple(TwistLetter(*t) for t in pair)
        self.assert_moves_agree(tuple(pair), twin, lambda t: t)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_homology_key(self, model, data):
        # conjugating by a curve disjoint from the core keeps the letter
        # matrix but changes the word
        curves = curves_of(model)
        pair = tuple(data.draw(self.letters_over(curves)) for _ in range(2))
        disjoint = lambda c, d: not scanned_shared_crossings(model.system, c, d)
        twin = tuple(self.twin(data, t, disjoint, curves) for t in pair)
        for t, u in zip(pair, twin):
            assert t.reduced_expansion() != u.reduced_expansion()
        self.assert_moves_agree(pair, twin, lambda t: letter_matrix(model, t))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_braid_fingerprint_key(self, data):
        # on 5 strands every generator commutes with one two or more apart
        n = 5
        generators = tuple(range(1, n))
        pair = tuple(data.draw(self.letters_over(generators)) for _ in range(2))
        far = lambda i, j: abs(i - j) >= 2
        twin = tuple(self.twin(data, t, far, generators) for t in pair)
        self.assert_moves_agree(pair, twin, lambda t: word_fingerprint(expansion(t), n))


def _reference_neighbours(fact: Factorization):
    for i in range(len(fact) - 1):
        for direction in ("right", "left"):
            yield (direction, i), slow_move(fact, i, direction)


def _reference_hurwitz_search(
    start: Factorization,
    goal: Factorization,
    letter_key,
    *,
    max_depth: int = 6,
    budget: int = 20000,
) -> tuple | None:
    """Oracle: the search that re-keyed every letter of every neighbour
    and compared tuples of key values, kept as it was."""
    if len(start) != len(goal):
        return None

    key_cache: dict = {}

    def state_key(fact: Factorization):
        out = []
        for letter in fact.letters:
            k = key_cache.get(letter)
            if k is None:
                k = letter_key(letter)
                key_cache[letter] = k
            out.append(k)
        return tuple(out)

    start_key, goal_key = state_key(start), state_key(goal)
    if start_key == goal_key:
        return ()

    # forward scripts carry start -> state, backward scripts goal -> state;
    # on a meet the combined script is forward + inverse(backward)
    forward_seen = {start_key: ()}
    backward_seen = {goal_key: ()}
    forward_frontier = [(start, ())]
    backward_frontier = [(goal, ())]
    spent = 0
    depth_used = 0
    while forward_frontier and backward_frontier and depth_used < max_depth:
        expand_forward = len(forward_frontier) <= len(backward_frontier)
        frontier = forward_frontier if expand_forward else backward_frontier
        seen = forward_seen if expand_forward else backward_seen
        other_seen = backward_seen if expand_forward else forward_seen
        new_frontier = []
        for fact, script in frontier:
            for op, moved in _reference_neighbours(fact):
                spent += 1
                if spent > budget:
                    return None
                k = state_key(moved)
                if k in seen:
                    continue
                moved_script = script + (op,)
                if k in other_seen:
                    if expand_forward:
                        return moved_script + invert_script(other_seen[k])
                    return other_seen[k] + invert_script(moved_script)
                seen[k] = moved_script
                new_frontier.append((moved, moved_script))
        if expand_forward:
            forward_frontier = new_frontier
        else:
            backward_frontier = new_frontier
        depth_used += 1
    return None


class TestSearchOracle:
    """The interned, incrementally keyed search returns exactly what the
    re-keying search returns: the same script, or None."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_planted_searches_agree(self, model, data):
        curves = curves_of(model)
        draw_letter = st.builds(
            TwistLetter,
            core=st.sampled_from(curves),
            sign=st.sampled_from((1, -1)),
            conjugator=st.lists(
                st.tuples(st.sampled_from(curves), st.sampled_from((1, -1))), max_size=2
            ).map(tuple),
        )
        start = Factorization(tuple(data.draw(st.lists(draw_letter, min_size=2, max_size=6))))
        planted = tuple(
            (data.draw(st.sampled_from(("right", "left"))),
             data.draw(st.integers(0, len(start) - 2)))
            for _ in range(data.draw(st.integers(1, 6)))
        )
        goal = apply_script(start, planted)
        key = data.draw(st.sampled_from(("structural", "homology")))
        key = (lambda t: t) if key == "structural" else (lambda t: letter_matrix(model, t))
        max_depth = data.draw(st.integers(0, 6))
        budget = data.draw(st.sampled_from((0, 1, 5, 40, 300, 20000)))
        expected = _reference_hurwitz_search(start, goal, key, max_depth=max_depth, budget=budget)
        assert hurwitz_search(start, goal, key, max_depth=max_depth, budget=budget) == expected

    @pytest.mark.parametrize("max_depth,budget", [(6, 20000), (7, 20000), (7, 3000), (8, 500)])
    def test_block_search_agrees(self, model, max_depth, budget):
        key = lambda t: letter_matrix(model, t)
        start, goal = mu_nu_block(2), mu_nu_normal_form(2)
        expected = _reference_hurwitz_search(start, goal, key, max_depth=max_depth, budget=budget)
        assert hurwitz_search(start, goal, key, max_depth=max_depth, budget=budget) == expected

    def test_fingerprint_key_agrees(self):
        # the doubled two-generator block of the monodromy tests, keyed
        # by braid fingerprints
        def plain(i, conj=()):
            return TwistLetter(i, 1, conj)

        start = Factorization((plain(1), plain(2), plain(2), plain(1)) * 2)
        goal = Factorization(
            (plain(1), plain(1), plain(2, ((1, 1),)), plain(2, ((1, 1),))) * 2
        )
        key = lambda letter: word_fingerprint(expansion(letter), 3)
        for max_depth, budget in ((6, 20000), (3, 20000), (6, 50)):
            expected = _reference_hurwitz_search(
                start, goal, key, max_depth=max_depth, budget=budget
            )
            assert hurwitz_search(start, goal, key, max_depth=max_depth, budget=budget) == expected
        assert expected is None


def _scripted_hurwitz_search(
    start: Factorization,
    goal: Factorization,
    letter_key,
    *,
    max_depth: int = 6,
    budget: int = 20000,
) -> tuple | None:
    """Oracle: the interned, incrementally keyed search that stored each
    state's whole script and put the states of the last round on a
    frontier, kept as it was."""
    if len(start) != len(goal):
        return None

    ids: dict = {}

    def intern(letter: TwistLetter) -> int:
        return ids.setdefault(letter_key(letter), len(ids))

    start_key = tuple(intern(t) for t in start.letters)
    goal_key = tuple(intern(t) for t in goal.letters)
    if start_key == goal_key:
        return ()

    forward_seen = {start_key: ()}
    backward_seen = {goal_key: ()}
    forward_frontier = [(start.letters, start_key, ())]
    backward_frontier = [(goal.letters, goal_key, ())]
    spent = 0
    depth_used = 0
    while forward_frontier and backward_frontier and depth_used < max_depth:
        expand_forward = len(forward_frontier) <= len(backward_frontier)
        frontier = forward_frontier if expand_forward else backward_frontier
        seen = forward_seen if expand_forward else backward_seen
        other_seen = backward_seen if expand_forward else forward_seen
        new_frontier = []
        for letters, key, script in frontier:
            for i in range(len(letters) - 1):
                a, b = letters[i], letters[i + 1]
                for direction in ("right", "left"):
                    spent += 1
                    if spent > budget:
                        return None
                    pair, new = factorization._swap(a, b, direction)
                    if new:
                        pair_key = (key[i + 1], intern(pair[1]))
                    else:
                        pair_key = (intern(pair[0]), key[i])
                    k = key[:i] + pair_key + key[i + 2:]
                    if k in seen:
                        continue
                    moved_script = script + ((direction, i),)
                    if k in other_seen:
                        if expand_forward:
                            return moved_script + invert_script(other_seen[k])
                        return other_seen[k] + invert_script(moved_script)
                    seen[k] = moved_script
                    new_frontier.append(
                        (letters[:i] + pair + letters[i + 2:], k, moved_script)
                    )
        if expand_forward:
            forward_frontier = new_frontier
        else:
            backward_frontier = new_frontier
        depth_used += 1
    return None


@pytest.fixture(scope="module")
def models(model):
    return {2: model, 3: reference_model(3)}


class TestParentPointerOracle:
    """The search on parent pointers, which puts no state of the last
    round on a frontier, returns exactly what the search that stored
    each state's script returns: the same script, or None."""

    KEYS = ("structural", "homology")

    @staticmethod
    def key_of(name, model):
        return (lambda t: t) if name == "structural" else (lambda t: letter_matrix(model, t))

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_random_searches_agree(self, models, data):
        b = data.draw(st.sampled_from((2, 3)))
        model = models[b]
        curves = curves_of(model)
        draw_letter = st.builds(
            TwistLetter,
            core=st.sampled_from(curves),
            sign=st.sampled_from((1, -1)),
            conjugator=st.lists(
                st.tuples(st.sampled_from(curves), st.sampled_from((1, -1))), max_size=2
            ).map(tuple),
        )
        start = Factorization(tuple(data.draw(st.lists(draw_letter, min_size=2, max_size=6))))
        if data.draw(st.booleans()):
            goal = apply_script(start, scripts(data, start, 6))
        else:
            # most such goals are out of reach: the depth exit
            goal = Factorization(tuple(data.draw(st.permutations(start.letters))))
        key = self.key_of(data.draw(st.sampled_from(self.KEYS)), model)
        max_depth = data.draw(st.integers(1, 6))
        budget = data.draw(st.sampled_from((1, 4, 20, 100, 500, 3000)))
        expected = _scripted_hurwitz_search(start, goal, key, max_depth=max_depth, budget=budget)
        assert hurwitz_search(start, goal, key, max_depth=max_depth, budget=budget) == expected

    @pytest.mark.parametrize("b", [2, 3])
    @pytest.mark.parametrize("name", KEYS)
    def test_every_exit_agrees(self, models, b, name):
        # planted scripts of one to six moves, searched to each depth
        # under budgets that stop the search and one that does not; each
        # exit (a meet, the depth and the budget) is taken at least once
        model = models[b]
        key = self.key_of(name, model)
        rng = random.Random(b)
        results = set()
        for moves in range(1, 7):
            start = random_fact(rng, curves_of(model), 5)
            goal = apply_script(
                start,
                tuple((rng.choice(("right", "left")), rng.randrange(len(start) - 1)) for _ in range(moves)),
            )
            for max_depth in range(1, 7):
                for budget in (1, 10, 60, 300, 10**6):
                    expected = _scripted_hurwitz_search(start, goal, key, max_depth=max_depth, budget=budget)
                    assert hurwitz_search(start, goal, key, max_depth=max_depth, budget=budget) == expected
                    if expected is not None:
                        results.add("meet")
                    elif _scripted_hurwitz_search(start, goal, key, max_depth=max_depth, budget=10**6):
                        results.add("budget")
                    else:
                        results.add("depth")
        assert results >= {"meet", "budget", "depth"}

    @pytest.mark.parametrize("b,max_depth,budget", [(2, 7, 3000), (2, 8, 20000), (3, 5, 20000), (3, 6, 2000)])
    def test_block_search_agrees(self, models, b, max_depth, budget):
        key = self.key_of("homology", models[b])
        start, goal = mu_nu_block(b), mu_nu_normal_form(b)
        expected = _scripted_hurwitz_search(start, goal, key, max_depth=max_depth, budget=budget)
        assert hurwitz_search(start, goal, key, max_depth=max_depth, budget=budget) == expected


def _reference_greedy_match_script(start, goal, letter_key):
    """Oracle: the normalizer that applied a trial script for every
    candidate and keyed the letter it brought to the position, kept as
    it was."""
    if len(start) != len(goal):
        return None
    goal_keys = [letter_key(letter) for letter in goal.letters]
    fact = start
    script: list = []
    for position, want in enumerate(goal_keys):
        for candidate in range(position, len(fact)):
            trial_script = tuple(
                ("right", i) for i in range(candidate - 1, position - 1, -1)
            )
            trial = apply_script(fact, trial_script)
            if letter_key(trial[position]) == want:
                fact = trial
                script.extend(trial_script)
                break
        else:
            return None
    return tuple(script)


class TestGreedyOracle:
    """The normalizer that picks its candidate by key before moving returns
    exactly the script of the one that tried every candidate."""

    @pytest.mark.parametrize("b,moves", [(2, 24), (3, 80)])
    def test_blocks_agree(self, b, moves):
        m = reference_model(b)
        key = lambda t: letter_matrix(m, t)
        start, goal = mu_nu_block(b), mu_nu_normal_form(b)
        script = greedy_match_script(start, goal, key)
        assert script == _reference_greedy_match_script(start, goal, key)
        assert len(script) == moves

    @settings(max_examples=150, deadline=None)
    @given(fact_st, st.data())
    def test_structural_key_agrees(self, fact, data):
        goal = apply_script(fact, scripts(data, fact, 6))
        key = lambda t: t
        script = greedy_match_script(fact, goal, key)
        assert script == _reference_greedy_match_script(fact, goal, key)
        if script is not None:
            assert apply_script(fact, script).letters == goal.letters

    def test_one_move_per_script_step(self, model, monkeypatch):
        # [DERIVED] the trial-per-candidate normalizer made 72 moves at b=2
        calls = []
        original = factorization._swap

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(factorization, "_swap", counting)
        key = lambda t: letter_matrix(model, t)
        script = greedy_match_script(mu_nu_block(2), mu_nu_normal_form(2), key)
        assert len(calls) == len(script) == 24
