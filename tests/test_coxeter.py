"""Chain validation, Coxeter products, and the six-factor expansion.

[DERIVED] word lengths come from the closed count N(N+1)/2 per factor;
the product identity itself was established by the exact matrix
computation frozen into the acceptance suite.
"""
import sys

import pytest
from conftest import scanned_shared_crossings
from hypothesis import given, settings, strategies as st

from twistbench import canonical
from twistbench.canonical import canonical_sigma_signs, sigma_sign_search
from twistbench.coxeter import (
    ChainError,
    chain_neighborhood_stats,
    chain_signs,
    coxeter,
    chain_word_images,
    psi_factor_chains,
    psi_factorization,
    psi_factorization_length,
    validate_chain,
    verify_chain_action,
)
from twistbench.homology import (
    psi_reference,
    reference_model,
    twist_word_matrix,
)
from twistbench.intlin import identity, mat_vec
from twistbench.surface import SIGMA_SIGNS, build_reference_configuration, curve


@pytest.fixture(scope="module")
def model2():
    return reference_model(2)


@pytest.fixture(scope="module")
def model5():
    return reference_model(5)


@pytest.fixture(scope="module")
def system5():
    return build_reference_configuration(5)


def scanned_validate_chain(sys_, seq):
    """The scan over every pair of positions that ``validate_chain``
    replaced, kept as its oracle."""
    chain = tuple(seq)
    if not chain:
        raise ChainError(0, "empty chain")
    known = set(sys_.curves)
    for i, c in enumerate(chain):
        if c not in known:
            raise ChainError(i, f"unknown curve {c.label}")
    if len(set(chain)) != len(chain):
        raise ChainError(0, "repeated curve")
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            shared = scanned_shared_crossings(sys_, chain[i], chain[j])
            if j == i + 1 and len(shared) != 1:
                raise ChainError(
                    i,
                    f"{chain[i].label} and {chain[j].label} share "
                    f"{len(shared)} crossings, consecutive curves need exactly 1",
                )
            if j > i + 1 and shared:
                raise ChainError(
                    i,
                    f"{chain[i].label} and {chain[j].label} must be disjoint",
                )
    return chain


def _outcome(validate, sys_, seq):
    try:
        return "chain", validate(sys_, seq)
    except ChainError as err:
        return "error", err.index, str(err)


SYSTEM3 = build_reference_configuration(3)
# curves of the b = 3 system, and two it does not have
POOL3 = SYSTEM3.curves + (curve("alpha", 9), curve("delta", 6))
NEIGHBOURS3 = {c: [] for c in SYSTEM3.curves}
for _x in SYSTEM3.crossings:
    NEIGHBOURS3[_x.first].append(_x.second)
    NEIGHBOURS3[_x.second].append(_x.first)


@st.composite
def curve_sequences(draw):
    """1 to 8 curves; each next one is a new neighbour of the last in the
    crossing graph, a neighbour of an earlier one, or any curve of the
    pool, so chains, gaps, repeats, non-consecutive meetings and unknown
    curves all come up."""
    seq = [draw(st.sampled_from(POOL3))]
    for _ in range(draw(st.integers(0, 7))):
        choice = draw(st.integers(0, 3))
        last = draw(st.sampled_from(seq)) if choice == 1 else seq[-1]
        near = [c for c in NEIGHBOURS3.get(last, ()) if c not in seq]
        seq.append(draw(st.sampled_from(near if choice and near else POOL3)))
    return seq


def matrix_images(model, chain, word):
    """The chain classes moved by the dense product of the word."""
    matrix = twist_word_matrix(model, word).matrix
    return [mat_vec(matrix, model.curve_class(c)) for c in chain]


class TestValidateChain:
    def test_accepts_factor_chains(self, model2):
        for chain in psi_factor_chains(2).values():
            assert validate_chain(model2.system, chain) == chain

    def test_rejects_gap(self, model2):
        with pytest.raises(ChainError):
            validate_chain(model2.system, (curve("alpha", 1), curve("alpha", 3)))

    def test_rejects_repeat(self, model2):
        with pytest.raises(ChainError):
            validate_chain(
                model2.system, (curve("alpha", 1), curve("alpha", 2), curve("alpha", 1))
            )

    def test_rejects_nonconsecutive_meeting(self, model2):
        # sigma meets both alpha_1 and gamma_1, so they cannot sit two apart;
        # the pair (0, 2) is reported before the gap at (1, 2)
        with pytest.raises(ChainError, match="alpha_1 and alpha_2 must be disjoint") as err:
            validate_chain(
                model2.system, (curve("alpha", 1), curve("sigma"), curve("alpha", 2))
            )
        assert err.value.index == 0

    def test_rejects_unknown_curve(self, model2):
        with pytest.raises(ChainError):
            validate_chain(model2.system, (curve("alpha", 9),))

    @settings(max_examples=300, deadline=None)
    @given(curve_sequences())
    def test_matches_the_pairwise_scan(self, seq):
        assert _outcome(validate_chain, SYSTEM3, seq) == _outcome(scanned_validate_chain, SYSTEM3, seq)


class TestChainWordImages:
    """The chain-coordinate action against the dense twist product."""

    @pytest.mark.parametrize("b", (2, 3, 4))
    def test_factor_chains_match_the_matrix(self, b):
        model = reference_model(b)
        for chain in psi_factor_chains(b).values():
            for power in (1, -1, 2, -2):
                word = coxeter(chain, power)
                assert chain_word_images(model, chain, word) == matrix_images(model, chain, word)

    def test_alpha_runs_match_the_matrix(self, model5):
        for k in range(1, 10):
            chain = tuple(curve("alpha", i) for i in range(1, k + 1))
            for power in (1, -1, 2, -2):
                word = coxeter(chain, power)
                assert chain_word_images(model5, chain, word) == matrix_images(model5, chain, word)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_words_match_the_matrix(self, model2, data):
        chain = data.draw(
            st.sampled_from(
                list(psi_factor_chains(2).values())
                + [tuple(curve("beta", i) for i in range(1, k + 1)) for k in (1, 2, 3)]
            )
        )
        word = data.draw(
            st.lists(st.tuples(st.sampled_from(chain), st.sampled_from((1, -1))), max_size=40)
        )
        assert chain_word_images(model2, chain, word) == matrix_images(model2, chain, word)

    def test_builds_no_matrix(self, model2, monkeypatch):
        # with homology and intlin unimportable, every factor chain passes:
        # the action reads the model's pairings and classes, nothing more
        for name in ("twistbench.homology", "twistbench.intlin"):
            monkeypatch.setitem(sys.modules, name, None)
        for chain in psi_factor_chains(2).values():
            verify_chain_action(model2, chain)

    def test_rejects_a_letter_off_the_chain(self, model2):
        chain = (curve("alpha", 1), curve("alpha", 2))
        with pytest.raises(ValueError, match="not a twist along the chain"):
            chain_word_images(model2, chain, ((curve("alpha", 3), 1),))


class TestChainSigns:
    def test_all_plus_along_construction_order(self, model2):
        assert chain_signs(model2, (curve("alpha", 1), curve("alpha", 2), curve("alpha", 3))) == (1, 1, 1)

    def test_alternating_against_construction_order(self, model2):
        # pairing(alpha_{i+1}, alpha_i) = -1, so signs flip at every step
        assert chain_signs(model2, (curve("alpha", 3), curve("alpha", 2), curve("alpha", 1))) == (1, -1, 1)


class TestCoxeterWord:
    def test_word_lengths(self):
        chain = tuple(curve("alpha", i) for i in range(1, 4))
        assert len(coxeter(chain, 1)) == 6
        assert len(coxeter(chain, -2)) == 12
        with pytest.raises(ValueError):
            coxeter(chain, 0)

    def test_letters_are_shared_per_curve(self):
        # the b = 375 gluing word has 5.6 million letters; one letter
        # object per curve of a chain keeps it an array of pointers
        chain = tuple(curve("alpha", i) for i in range(1, 11))
        word = coxeter(chain, 3)
        assert len(word) == 165
        assert len({id(letter) for letter in word}) == 10

    def test_inverse_word_cancels(self, model2):
        chain = (curve("delta", 1), curve("sigma"), curve("alpha", 1))
        word = coxeter(chain, 1) + coxeter(chain, -1)
        assert twist_word_matrix(model2, word).matrix == identity(model2.rank)

    def test_odd_chain_square_fixes_chain_classes(self, model2):
        # the signed reversal is an involution on the span of an odd chain
        chain = tuple(curve("beta", i) for i in range(1, 4))
        sq = twist_word_matrix(model2, coxeter(chain, 2)).matrix
        assert sq != identity(model2.rank)
        for c in chain:
            v = model2.curve_class(c)
            image = tuple(sum(row[j] * v[j] for j in range(len(v))) for row in sq)
            assert image == v

    def test_action_on_all_factor_chains(self, model2):
        for chain in psi_factor_chains(2).values():
            verify_chain_action(model2, chain)

    def test_action_statement_chains_b3(self):
        model = reference_model(3)
        for chain in psi_factor_chains(3).values():
            verify_chain_action(model, chain)


class TestNeighborhoodStats:
    def test_chain_lengths_one_through_nine(self, system5):
        # [DERIVED] odd chains: two boundary walks; even chains: one
        for k in range(1, 10):
            chain = tuple(curve("alpha", i) for i in range(1, k + 1))
            walks, genus = chain_neighborhood_stats(system5, chain)
            if k % 2:
                assert (walks, genus) == (2, (k - 1) // 2)
            else:
                assert (walks, genus) == (1, k // 2)

    def test_mixed_family_chain(self, system5):
        chain = (curve("delta", 1), curve("sigma"), curve("alpha", 1), curve("alpha", 2))
        assert chain_neighborhood_stats(system5, chain) == (1, 2)


class TestFactorization:
    def test_letter_counts(self):
        # [DERIVED] 4 factors of (2n+1)(2n+2)/2 letters, plus 2*(n-1)n/2 and
        # 2*(n+1)(n+2)/2 for the negative-power factors
        assert len(psi_factorization(2)) == 138
        assert len(psi_factorization(3)) == 326

    def test_letter_count_without_the_word(self):
        assert psi_factorization_length(2) == 138
        assert all(psi_factorization_length(b) == len(psi_factorization(b)) for b in range(2, 21))

    def test_all_letters_positive_or_negative_by_factor(self):
        word = psi_factorization(2)
        assert {s for _, s in word[:28]} == {-1}   # A6 block first
        assert {s for _, s in word[-28:]} == {+1}  # A1 block last

    def test_product_equals_involution_b2(self, model2):
        product = twist_word_matrix(model2, psi_factorization(2))
        assert product.matrix == psi_reference(model2).matrix


class TestCanonicalSigns:
    def test_calibrated_tuple(self):
        # [DERIVED] frozen by the b=2 calibration sweep; the calibration
        # checks the convention the configuration is built with
        assert canonical_sigma_signs() == SIGMA_SIGNS == (1, 1, 1, 1)

    def test_calibration_is_first_passing_probe(self):
        first = next(
            p.signs
            for p in sigma_sign_search(2)
            if p.admissible and p.psi_defined and p.product_matches
        )
        assert canonical_sigma_signs() == first

    def test_calibration_stops_at_first_pass(self, monkeypatch):
        calls = []
        real = canonical.probe_signs

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        canonical.probe_signs.cache_clear()
        monkeypatch.setattr(canonical, "probe_signs", counting)
        # the call refills the cache with the tuple the real probe returns
        assert canonical_sigma_signs() == (1, 1, 1, 1)
        assert len(calls) == 1

    def test_search_table_b2(self):
        probes = sigma_sign_search(2)
        assert len(probes) == 16
        assert all(p.admissible for p in probes)
        good = [p for p in probes if p.psi_defined]
        # [DERIVED] exactly the tuples with s_a*s_d = s_b*s_g = +1
        assert sorted(p.signs for p in good) == sorted(
            [(1, 1, 1, 1), (1, -1, -1, 1), (-1, 1, 1, -1), (-1, -1, -1, -1)]
        )
        assert all(p.product_matches for p in good)

    def test_search_invariants_all_b(self):
        for b in (2, 3, 4, 5):
            probes = sigma_sign_search(b)
            assert all(p.walks == 4 for p in probes)
            assert all(p.genus == 4 * b - 3 for p in probes)
            assert all(p.rank == 8 * b - 6 for p in probes)
