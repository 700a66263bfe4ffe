"""End-to-end acceptance battery: one criterion per test, in order.

Every test pins a wall-clock limit and uses frozen expected values;
randomized parts use fixed seeds.  Bounded searches may honestly report
"inconclusive" (and say so), but equality-of-matrices claims are hard
assertions and must never be weakened.
"""
import random
import sys
import time

from conftest import chain_neighborhood_stats
from twistbench.braids import braid_equal, verify_manfredini
from twistbench.canonical import sigma_sign_search
from twistbench.cli import DEFAULT_BUDGET, main
from twistbench.coxeter import (
    psi_factor_chains,
    psi_factorization,
    verify_chain_action,
)
from twistbench.factorization import (
    Factorization,
    TwistLetter,
    apply_script,
    auroux_certificate,
    greedy_match_script,
    hurwitz_search,
    letter_matrix,
    product_matrix,
    replay_certificate,
)
from twistbench.homology import (
    is_symplectic,
    psi_reference,
    reference_model,
    twist_word_matrix,
)
from twistbench.invariants import (
    CoverType,
    character_chi,
    family_enumerate,
    invariants,
    theorem_hypotheses,
)
from twistbench.monodromy import (
    lifted_composition,
    mu_nu_block,
    mu_nu_normal_form,
)
from twistbench.surface import build_reference_configuration, curve


def mat_vec(matrix, vector):
    return tuple(sum(row[j] * vector[j] for j in range(len(vector))) for row in matrix)


def finish(tag, t0, limit, detail):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"{tag} exceeded {limit}s ({elapsed:.2f}s)"
    print(f"{tag}: PASS — {detail} ({elapsed:.2f}s < {limit}s)")


def test_A1_adjacent_pair_identities():
    # for every crossing, orienting the pair (a, b) with <a, b> = +1:
    # Ta Tb (a) = -b and Tb Ta (b) = a, exactly, on integral homology
    t0 = time.perf_counter()
    pairs = 0
    for b in (2, 3, 4):
        model = reference_model(b)
        for cr in model.system.crossings:
            a, c = (cr.first, cr.second) if cr.sign == 1 else (cr.second, cr.first)
            tatc = twist_word_matrix(model, ((a, 1), (c, 1)))
            tcta = twist_word_matrix(model, ((c, 1), (a, 1)))
            va, vc = model.curve_class(a), model.curve_class(c)
            assert mat_vec(tatc.matrix, va) == tuple(-x for x in vc)
            assert mat_vec(tcta.matrix, vc) == va
            pairs += 1
    finish("A1", t0, 1.0, f"{pairs} oriented crossing pairs, b in 2..4")


def test_A2_surface_model_admissibility():
    # ribbon tracing: 4 boundary walks and closed genus 4b-3; at least
    # one admissible sign tuple; H1 rank 8b-6 and torsion-free (the
    # model constructor runs the Smith-form check and raises otherwise)
    t0 = time.perf_counter()
    for b in (2, 3, 4, 5):
        probes = sigma_sign_search(b)
        admissible = [p for p in probes if p.admissible]
        assert len(admissible) >= 1
        assert all(p.walks == 4 for p in admissible)
        assert all(p.genus == 4 * b - 3 for p in admissible)
        model = reference_model(b)
        assert model.rank == 8 * b - 6
    finish("A2", t0, 5.0, "walks=4, genus=4b-3, rank=8b-6, b in 2..5")


def test_A3_chain_neighbourhood_boundaries():
    # regular neighbourhoods of chains of length 1..9 inside the b=5
    # configuration: odd chains bound twice, even chains once
    t0 = time.perf_counter()
    system = build_reference_configuration(5)
    for k in range(1, 10):
        chain = tuple(curve("alpha", i) for i in range(1, k + 1))
        walks, genus = chain_neighborhood_stats(system, chain)
        assert walks == (2 if k % 2 else 1)
        assert genus == ((k - 1) // 2 if k % 2 else k // 2)
    finish("A3", t0, 1.0, "lengths 1..9 in the b=5 configuration")


def test_A4_coxeter_chain_action():
    # odd chains: Delta sends the i-th reoriented class to the
    # (N+1-i)-th with sign (-1)^(i+1); even chains: Delta^2 negates
    # every chain class; both exactly
    t0 = time.perf_counter()
    checked = 0
    for b in (2, 3):
        model = reference_model(b)
        for chain in psi_factor_chains(b).values():
            verify_chain_action(model, chain)
            checked += 1
    model5 = reference_model(5)
    for k in range(1, 10):
        verify_chain_action(model5, tuple(curve("alpha", i) for i in range(1, k + 1)))
        checked += 1
    finish("A4", t0, 5.0, f"{checked} chains of both parities")


def test_A5_gluing_word_equals_reference():
    # the product of the six chain-twist factors equals the curve-swap
    # involution on homology, exactly, and both matrices are symplectic
    t0 = time.perf_counter()
    for b in (2, 3):
        model = reference_model(b)
        word = psi_factorization(b)
        fact = Factorization(tuple(TwistLetter(c, s, ()) for c, s in word))
        product = product_matrix(model, fact)
        reference = psi_reference(model)
        assert product.matrix == reference.matrix
        assert is_symplectic(product, model)
        assert is_symplectic(reference, model)
    finish("A5", t0, 30.0, "six-factor product = involution, b in {2,3}, exact")


def test_A6_move_invariance_and_planted_search():
    # (i) 1000 random factorizations keep their homology product under
    # random scripts of up to 50 moves; (ii) planting a script of depth
    # <= 5 and searching recovers a valid script 100 times out of 100
    t0 = time.perf_counter()
    model = reference_model(2)
    curves = model.system.curves
    rng = random.Random(0)

    def random_letter():
        conj = tuple(
            (rng.choice(curves), rng.choice((1, -1)))
            for _ in range(rng.randrange(0, 3))
        )
        return TwistLetter(rng.choice(curves), rng.choice((1, -1)), conj)

    def random_fact(lo, hi):
        return Factorization(tuple(random_letter() for _ in range(rng.randrange(lo, hi))))

    for _ in range(1000):
        fact = random_fact(3, 9)
        before = product_matrix(model, fact).matrix
        script = tuple(
            (rng.choice(("left", "right")), rng.randrange(len(fact) - 1))
            for _ in range(rng.randrange(1, 51))
        )
        assert product_matrix(model, apply_script(fact, script)).matrix == before

    found = 0
    for _ in range(100):
        start = random_fact(4, 8)
        planted = tuple(
            (rng.choice(("left", "right")), rng.randrange(len(start) - 1))
            for _ in range(rng.randrange(1, 6))
        )
        goal = apply_script(start, planted)
        script = hurwitz_search(start, goal, lambda t: t, max_depth=5)
        assert script is not None
        assert apply_script(start, script).letters == goal.letters
        found += 1
    assert found == 100
    finish("A6", t0, 60.0, "1000/1000 invariant, 100/100 planted recovered")


def test_A7_certificate_pipeline():
    # the lifted two-block factorization contains every curve of the
    # gluing word as a letter core; the extraction certificate replays
    # end-to-end, both via the API and via the command surface
    t0 = time.perf_counter()
    fact = lifted_composition(2)
    cores = []
    for c, _ in psi_factorization(2):
        if c not in cores:
            cores.append(c)
    present = {t.core for t in fact.letters}
    assert all(c in present for c in cores)
    cert = auroux_certificate(fact, cores)
    fronts = replay_certificate(fact, cert)
    assert len(fronts) == len(cores) == 13
    assert cert.all_bare
    model = reference_model(2)
    for step, front in zip(cert.steps, fronts):
        assert letter_matrix(model, front) == twist_word_matrix(model, ((step.core, 1),)).matrix
    assert main(["auroux", "--b", "2", "--format", "json"]) == 0
    finish("A7", t0, 30.0, "13 cores extracted, bare fronts, CLI exit 0")


def test_A8_braid_relation_battery():
    # defining relations and far commutation hold for n <= 7; a
    # generator is distinguished from its inverse; the four-relation
    # presentation battery holds at (n, k) in {(4,2), (6,3), (8,4)}
    t0 = time.perf_counter()
    for n in range(2, 8):
        for i in range(1, n - 1):
            lhs = ((i, 1), (i + 1, 1), (i, 1))
            rhs = ((i + 1, 1), (i, 1), (i + 1, 1))
            assert braid_equal(lhs, rhs, n)
        for i in range(1, n):
            for j in range(i + 2, n):
                assert braid_equal(((i, 1), (j, 1)), ((j, 1), (i, 1)), n)
        assert not braid_equal(((1, 1),), ((1, -1),), n)
    for n, k in ((4, 2), (6, 3), (8, 4)):
        assert all(outcome == "holds" for _, outcome in verify_manfredini(n, k))
    finish("A8", t0, 10.0, "relations n<=7; presentation battery at 3 sizes")


def test_A9_block_normal_form():
    # hard assertion: the conjugated block's homology product equals the
    # printed normal form's for b in {2,3}; then a bounded search for an
    # explicit move script either exhibits one (replayed and checked) or
    # reports inconclusive, naming the limit (depth or budget) that
    # stopped it — never a mismatch
    t0 = time.perf_counter()
    for b in (2, 3):
        model = reference_model(b)
        assert (
            product_matrix(model, mu_nu_block(b)).matrix
            == product_matrix(model, mu_nu_normal_form(b)).matrix
        )

    model = reference_model(2)
    key = lambda letter: letter_matrix(model, letter)
    start, goal = mu_nu_block(2), mu_nu_normal_form(2)
    script = greedy_match_script(start, goal, key)
    assert script is not None and len(script) == 24
    out = apply_script(start, script)
    assert [key(t) for t in out.letters] == [key(t) for t in goal.letters]

    depth, budget = 6, DEFAULT_BUDGET
    bfs = hurwitz_search(start, goal, key, max_depth=depth, budget=budget)
    if bfs is None:
        # name the limit that stopped it: with no budget only depth binds
        unbounded = hurwitz_search(start, goal, key, max_depth=depth, budget=sys.maxsize)
        limit = f"depth {depth}" if unbounded is None else f"budget {budget}"
        exhibit = f"normalizer script of 24 moves; breadth-first inconclusive at {limit}"
    else:
        check = apply_script(start, bfs)
        assert [key(t) for t in check.letters] == [key(t) for t in goal.letters]
        exhibit = f"breadth-first script of {len(bfs)} moves at budget {budget}"
    finish("A9", t0, 120.0, f"products equal b in {{2,3}}; {exhibit}")


def test_A10_numerical_invariants():
    # the quarter-product formula agrees with the character-count oracle
    # on 10000 random types; the printed K^2 closed form matches at
    # d = b; the k = 2 family has two members sharing (chi, K2,
    # divisibility) = (412, 2016, 2); hypothesis margins behave at the
    # boundary
    t0 = time.perf_counter()
    rng = random.Random(0)
    for _ in range(10000):
        t = CoverType(*(rng.randint(1, 30) for _ in range(4)))
        assert invariants(t).chi == character_chi(t)
    for _ in range(2000):
        a, b, c = rng.randint(1, 30), rng.randint(1, 30), rng.randint(1, 30)
        assert invariants(CoverType(a, b, c, b)).K2 == 16 * (a + c - 2) * (b - 1)

    members = family_enumerate(14, 8, 6, 2)
    assert len(members) == 2
    for _, inv in members:
        assert (inv.chi, inv.K2, inv.divisibility) == (412, 2016, 2)

    reference = theorem_hypotheses(14, 8, 6, 2)
    assert reference["all_pass"]
    assert (reference["I"]["margin"], reference["II"]["margin"], reference["III"]["margin"]) == (0, 1, 0)
    shrunk = theorem_hypotheses(10, 6, 4, 2)
    assert not shrunk["I"]["passed"]
    assert shrunk["I"]["margin"] == -2 and shrunk["I"]["binding"] == "(c-k)-4"
    odd = theorem_hypotheses(13, 8, 6, 2)
    assert not odd["I"]["passed"] and odd["I"]["odd"] == ("a",)
    finish("A10", t0, 5.0, "10000 oracle samples; family (412, 2016, 2) x2; margins")
