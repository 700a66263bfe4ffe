"""Serialization round-trips and byte-stability."""
import json

import pytest
from hypothesis import given, strategies as st

from twistbench.factorization import Factorization, auroux_certificate, bare
from twistbench.homology import reference_model
from twistbench.coxeter import psi_factorization
from twistbench.monodromy import default_colouring, lifted_composition, mu_nu_block, x_block, y_block
from twistbench.serialize import (
    blocks_to_dict,
    braid_word_from_ints,
    braid_word_to_ints,
    certificate_from_dict,
    certificate_to_dict,
    colouring_to_dict,
    factorization_from_dict,
    factorization_to_dict,
    letter_from_dict,
    letter_to_dict,
    replay_file_from_dict,
    replay_file_to_dict,
    script_from_json,
    script_to_json,
    sha256_hex,
    stable_json,
    system_to_dict,
    system_to_dot,
)
from twistbench.surface import CurveId


class TestStableJson:
    def test_sorted_keys_and_fixed_separators(self):
        assert stable_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}\n'

    def test_byte_deterministic(self):
        payload = {"z": {"y": 1, "x": [3, 2]}, "a": None}
        assert stable_json(payload) == stable_json(json.loads(stable_json(payload)))

    def test_sha256_shape(self):
        digest = sha256_hex("abc\n")
        assert len(digest) == 64
        assert digest != sha256_hex("abd\n")
        assert digest == sha256_hex("abc\n")


@pytest.fixture(scope="module")
def model():
    return reference_model(2)


@pytest.fixture(scope="module")
def pair():
    fact = lifted_composition(2)
    cores = []
    for c, _ in psi_factorization(2):
        if c not in cores:
            cores.append(c)
    return fact, auroux_certificate(fact, cores)


class TestSystemExports:
    def test_dict_shape(self, model):
        d = system_to_dict(model.system)
        assert d["b"] == 2
        assert d["sigma_signs"] == [1, 1, 1, 1]
        assert len(d["curves"]) == 13
        assert len(d["crossings"]) == 12
        assert all(x["sign"] == 1 for x in d["crossings"])
        orders = {o["curve"]: o["crossings"] for o in d["cyclic_orders"]}
        assert len(orders["sigma"]) == 4
        assert len(orders["alpha_3"]) == 1

    def test_dict_bytes_stable(self, model):
        once = stable_json(system_to_dict(model.system))
        again = stable_json(system_to_dict(reference_model(2).system))
        assert once == again

    def test_dot_structure(self, model):
        dot = system_to_dot(model.system)
        lines = dot.splitlines()
        assert lines[0] == "graph configuration {"
        assert lines[-1] == "}"
        nodes = [l for l in lines if "[label=" in l and " -- " not in l]
        edges = [l for l in lines if " -- " in l]
        # one node per crossing; one edge per curve arc between crossings
        assert len(nodes) == 12
        assert len(edges) == 24
        assert '  c0 [label="alpha_1 x alpha_2 (+)"];' in lines


class TestLettersAndFactorizations:
    def test_conjugated_letter_round_trips(self):
        letter = mu_nu_block(2).letters[0]
        assert letter.conjugator  # genuinely conjugated
        assert letter_from_dict(letter_to_dict(letter)) == letter

    def test_factorization_round_trips(self):
        fact = lifted_composition(2)
        again = factorization_from_dict(factorization_to_dict(fact))
        assert again.letters == fact.letters

    def test_script_round_trip(self):
        script = (("right", 3), ("left", 0))
        assert script_from_json(script_to_json(script)) == script

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            script_from_json([["up", 3]])


class TestBraidWords:
    def test_signed_integers(self):
        word = ((3, -1), (1, 1))
        assert braid_word_to_ints(word) == [-3, 1]
        assert braid_word_from_ints([-3, 1]) == word

    @given(st.lists(st.integers(-9, 9).filter(bool), max_size=10))
    def test_round_trip(self, values):
        assert braid_word_to_ints(braid_word_from_ints(values)) == values

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            braid_word_from_ints([1, 0, 2])


class TestMonodromyExports:
    def test_colouring(self):
        assert colouring_to_dict(default_colouring(4)) == {
            "blocks": [
                {"label": "x", "strands": [1, 2, 3, 4]},
                {"label": "y", "strands": [5, 6, 7, 8]},
            ]
        }

    def test_block_letters(self):
        entries = blocks_to_dict({"X": x_block(4), "Y": y_block(4)})
        assert entries["X"][0] == {
            "label": "x1",
            "core": 1,
            "power": 1,
            "sign": 1,
            "conjugator": [],
            "braid_word": [1],
        }
        assert entries["X"][7] == {
            "label": "(y1^2)_{z x3 x2 x1}",
            "core": 5,
            "power": 2,
            "sign": 1,
            "conjugator": [4, 3, 2, 1],
            "braid_word": [-1, -2, -3, -4, 5, 5, 4, 3, 2, 1],
        }
        assert len(entries["Y"]) == 10


class TestCertificates:
    def test_round_trip(self, pair):
        _, cert = pair
        payload = certificate_to_dict(cert, b=2, composition=["X", "Y"])
        assert payload["b"] == 2
        assert certificate_from_dict(payload) == cert

    def test_json_safe(self, pair):
        _, cert = pair
        text = stable_json(certificate_to_dict(cert, b=2))
        assert certificate_from_dict(json.loads(text)) == cert

    def test_replay_file_round_trip(self):
        from twistbench.factorization import apply_script

        fact = Factorization((bare(CurveId("alpha", 1)), bare(CurveId("gamma", 1))))
        script = (("right", 0),)
        result = apply_script(fact, script)
        payload = replay_file_to_dict(2, fact, script, result)
        b, f2, s2, r2 = replay_file_from_dict(json.loads(stable_json(payload)))
        assert (b, s2) == (2, script)
        assert f2.letters == fact.letters
        assert r2.letters == result.letters
