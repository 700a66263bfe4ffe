"""Chain validation, Coxeter products, and the six-factor expansion.

[DERIVED] word lengths come from the closed count N(N+1)/2 per factor;
the product identity itself was established by the exact matrix
computation frozen into the acceptance suite.
"""
import pytest

from twistbench import canonical
from twistbench.canonical import canonical_sigma_signs, sigma_sign_search
from twistbench.coxeter import (
    ChainError,
    chain_neighborhood_stats,
    chain_signs,
    coxeter,
    coxeter_matrix,
    psi_factor_chains,
    psi_factorization,
    validate_chain,
    verify_chain_action,
)
from twistbench.homology import (
    psi_reference,
    reference_model,
    twist_word_matrix,
)
from twistbench.intlin import identity
from twistbench.surface import SIGMA_SIGNS, build_reference_configuration, curve


@pytest.fixture(scope="module")
def model2():
    return reference_model(2)


@pytest.fixture(scope="module")
def system5():
    return build_reference_configuration(5)


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
        # sigma meets both alpha_1 and gamma_1, so they cannot sit two apart
        with pytest.raises(ChainError):
            validate_chain(
                model2.system, (curve("alpha", 1), curve("sigma"), curve("alpha", 2))
            )

    def test_rejects_unknown_curve(self, model2):
        with pytest.raises(ChainError):
            validate_chain(model2.system, (curve("alpha", 9),))


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

    def test_inverse_word_cancels(self, model2):
        chain = (curve("delta", 1), curve("sigma"), curve("alpha", 1))
        word = coxeter(chain, 1) + coxeter(chain, -1)
        assert twist_word_matrix(model2, word).matrix == identity(model2.rank)

    def test_odd_chain_square_fixes_chain_classes(self, model2):
        # the signed reversal is an involution on the span of an odd chain
        chain = tuple(curve("beta", i) for i in range(1, 4))
        sq = coxeter_matrix(model2, chain, 2).matrix
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

        monkeypatch.setattr(canonical, "probe_signs", counting)
        canonical.calibration.cache_clear()
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
