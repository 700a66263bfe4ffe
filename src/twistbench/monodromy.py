"""Two-block braid monodromy over the base disc and its exact lift to
Dehn-twist factorizations on the fibre.

The fibre disc meets the branch curve in ``2m`` points (``m = 2b``),
coloured into two blocks of ``m`` strands.  The colour-preserving braid
group on these strands is generated by the half-twists ``x_i`` (strands
``i, i+1``), ``y_j`` (strands ``m+j, m+j+1``) and the full twist ``z^2``
across the colour boundary (``z`` is the half-twist on strands
``m, m+1``).  The monodromy is organised into two block words of
``3m - 2`` letters each,

    X = x1 x1 (x2)_{x1} (x2)_{x1} ... (x_{m-1})_{x_{m-2}..x1} (same twice)
        (z^2)_{x_{m-1}..x1}
        (y1^2)_{z x_{m-1}..x1} ... (y_{m-1}^2)_{y_{m-2}..y1 z x_{m-1}..x1}

and the strand-reversal mirror ``Y`` (starting ``y_{m-1} y_{m-1} ...``).
How many copies of each block make up the full factorization is a
caller decision; :func:`composition_search` tabulates the constraints
(every arrangement preserves colour and induces the identity strand
permutation, and no arrangement of up to six blocks lifts to a
homologically trivial word, so neither constraint singles one out) and
:func:`default_composition` couples one block with its mirror,
``("X", "Y")``, as the documented convention.

Lifting to the double cover: a half-twist letter lifts to the pair of
twists on the two disjoint circles over its strands (``x_i`` to
``alpha_i, gamma_i`` and ``y_j`` to ``beta_j, delta_j``); a full twist
about a circle enclosing one strand of each colour lifts to the single
twist on the circle over the spanning segment (``sigma`` for the
central one); conjugators lift letterwise by the same rule.  Full
twists printed in same-colour form, such as ``(y_j^2)_{y_{j-1}..y1 z
x_{m-1}..x1}``, are first rewritten to the cross-colour form
``(z^2)_w`` with a z-free conjugator, and every rewrite is re-verified
at run time with the faithful braid comparator.

The module also emits the hand-printed global twist factorization on
the fibre (conjugated ``mu_j``/``nu_j`` letters, the bare ``sigma``,
and the mirrored beta/delta blocks) together with the claimed normal
form of its mu/nu part, so the two can be compared on homology and by
bounded Hurwitz search.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .braids import braid_equal, braid_word, permutation_image
from .factorization import Factorization, TwistLetter, bare
from .surface import check_genus, curve
from .words import conjugate

__all__ = [
    "MonodromyError",
    "Colouring",
    "BicolouredLetter",
    "default_colouring",
    "generator_label",
    "x_block",
    "y_block",
    "mirror_letter",
    "rewrite_cross_colour",
    "lift_to_twists",
    "lifted_composition",
    "composition_search",
    "default_composition",
    "generation_check",
    "appendix_factorization",
    "mu_nu_block",
    "mu_nu_normal_form",
]


class MonodromyError(ValueError):
    """A letter violates the colouring or has no twist lift."""


# ---------------------------------------------------------------------------
# colourings


class Colouring(namedtuple("Colouring", ("blocks",))):
    """Partition of the strands ``1..n`` into labelled blocks, given as
    ``(label, sorted strands)`` pairs; built by :func:`default_colouring`."""

    __slots__ = ()

    def preserved_by(self, perm) -> bool:
        """Does the strand permutation map every block onto itself?"""
        return all(
            {perm[s - 1] for s in block} == set(block) for _, block in self.blocks
        )


def default_colouring(m: int) -> Colouring:
    """Strands ``1..m`` in block ``"x"``, strands ``m+1..2m`` in ``"y"``."""
    if m < 2:
        raise ValueError("need at least two strands per colour")
    return Colouring(
        (("x", tuple(range(1, m + 1))), ("y", tuple(range(m + 1, 2 * m + 1))))
    )


# ---------------------------------------------------------------------------
# bicoloured letters


def generator_label(g: int, m: int) -> str:
    if not 1 <= g <= 2 * m - 1:
        raise ValueError(f"generator index {g} out of range for {2 * m} strands")
    if g < m:
        return f"x{g}"
    if g == m:
        return "z"
    return f"y{g - m}"


class BicolouredLetter(
    namedtuple("BicolouredLetter", ("strands", "core", "power", "sign", "conjugator"))
):
    """One factor ``(g^power)^sign`` conjugated by a braid word, where
    ``g`` is a single half-twist generator.  The underlying braid word
    must preserve the two-block colouring, so a lone cross-block
    half-twist ``z`` is rejected while ``z^2`` and conjugated full
    twists are accepted."""

    __slots__ = ()

    def __new__(
        cls, strands: int, core: int, power: int = 1, sign: int = 1, conjugator: tuple = ()
    ) -> "BicolouredLetter":
        if strands < 4 or strands % 2:
            raise ValueError("strand count must be even and at least 4")
        if power not in (1, 2):
            raise ValueError("letter power must be 1 or 2")
        if sign not in (1, -1):
            raise ValueError("letter sign must be +1 or -1")
        conjugator = braid_word(conjugator, strands)
        braid_word(((core, 1),), strands)
        self = tuple.__new__(cls, (strands, core, power, sign, conjugator))
        colouring = default_colouring(self.m)
        perm = permutation_image(self.braid_word(), strands)
        if not colouring.preserved_by(perm):
            raise MonodromyError(
                f"letter {self.label()} does not preserve the colour blocks"
            )
        return self

    @property
    def m(self) -> int:
        return self.strands // 2

    def braid_word(self) -> tuple:
        return conjugate(((self.core, self.sign),) * self.power, self.conjugator)

    def label(self) -> str:
        exponent = self.power * self.sign
        name = generator_label(self.core, self.m)
        if exponent != 1:
            name = f"{name}^{exponent}"
        if not self.conjugator:
            return name
        conj = " ".join(
            generator_label(g, self.m) + ("" if s == 1 else "^-1")
            for g, s in self.conjugator
        )
        return f"({name})_{{{conj}}}"


# ---------------------------------------------------------------------------
# the two monodromy blocks


def _descending(lo: int, hi: int, offset: int = 0) -> tuple:
    """Positive letters ``hi, hi-1, ..., lo`` shifted by ``offset``."""
    return tuple((offset + t, 1) for t in range(hi, lo - 1, -1))


@lru_cache(maxsize=None)
def x_block(m: int) -> tuple:
    """The first monodromy block over ``2m`` strands: each ``x_i``
    twice with conjugator ``x_{i-1}..x1``, then the cross-colour full
    twist ``(z^2)_{x_{m-1}..x1}``, then the full twists
    ``(y_j^2)_{y_{j-1}..y1 z x_{m-1}..x1}``; ``3m - 2`` letters."""
    if m < 2:
        raise ValueError("need at least two strands per colour")
    n = 2 * m
    letters = []
    for i in range(1, m):
        half = BicolouredLetter(n, i, 1, 1, _descending(1, i - 1))
        letters += [half, half]
    z_conj = _descending(1, m - 1)
    letters.append(BicolouredLetter(n, m, 2, 1, z_conj))
    for j in range(1, m):
        conj = _descending(1, j - 1, offset=m) + ((m, 1),) + z_conj
        letters.append(BicolouredLetter(n, m + j, 2, 1, conj))
    return tuple(letters)


def mirror_letter(letter: BicolouredLetter) -> BicolouredLetter:
    """Image under the strand reversal ``k -> 2m+1-k``, which sends the
    generator ``g`` to ``2m-g`` (an automorphism: it preserves the
    braid and far-commutation relations and fixes ``z``)."""
    n = letter.strands
    return BicolouredLetter(
        n,
        n - letter.core,
        letter.power,
        letter.sign,
        tuple((n - g, s) for g, s in letter.conjugator),
    )


@lru_cache(maxsize=None)
def y_block(m: int) -> tuple:
    """The strand-reversal mirror of :func:`x_block`: starts
    ``y_{m-1} y_{m-1} (y_{m-2})_{y_{m-1}} ...`` and ends with the full
    twists ``(z^2)_{y1..y_{m-1}}``, ``(x_i^2)_{x_{i+1}..x_{m-1} z
    y1..y_{m-1}}``."""
    return tuple(mirror_letter(letter) for letter in x_block(m))


# ---------------------------------------------------------------------------
# rewriting full twists to cross-colour form


def _rewrite_candidates(letter: BicolouredLetter):
    """Candidate z-free conjugators ``w`` with ``letter = (z^2)_w`` for a
    ``(y_j^2)`` letter: with the block conjugator ``y_{j-1}..y1 z
    x_{m-1}..x1`` the candidate is ``y1^-1..y_j^-1 x_{m-1}..x1``.  A
    trailing extra conjugator carries over unchanged."""
    m, j = letter.m, letter.core - letter.m
    canonical = _descending(1, j - 1, offset=m) + ((m, 1),) + _descending(1, m - 1)
    head = tuple((m + t, -1) for t in range(1, j + 1)) + _descending(1, m - 1)
    conj = letter.conjugator
    if conj[: len(canonical)] == canonical:
        yield head + conj[len(canonical) :]
    yield head


@lru_cache(maxsize=None)
def rewrite_cross_colour(letter: BicolouredLetter) -> BicolouredLetter:
    """Rewrite a full-twist letter as ``(z^2)_w`` with a z-free
    conjugator ``w`` so that it can be lifted.  Every rewrite is
    verified with the faithful braid comparator; a letter that is not a
    cross-colour full twist of the block shape raises
    :class:`MonodromyError`.  An ``(x_i^2)`` letter is rewritten as the
    mirror image of the rewrite of its mirror ``(y_{m-i}^2)``, which an
    error then names: the strand reversal is an automorphism fixing
    ``z``, so verifying the mirror proves the same equality."""
    if letter.power != 2:
        raise MonodromyError(
            f"only full-twist letters can be rewritten, got {letter.label()}"
        )
    m = letter.m
    if letter.core == m:
        conj = letter.conjugator
        while conj and conj[0][0] == m:
            conj = conj[1:]  # z commutes with its own square
        if any(g == m for g, _ in conj):
            raise MonodromyError(
                f"conjugator of {letter.label()} is not z-free"
            )
        return BicolouredLetter(letter.strands, m, 2, letter.sign, conj)
    if letter.core < m:
        return mirror_letter(rewrite_cross_colour(mirror_letter(letter)))
    for cand_conj in _rewrite_candidates(letter):
        if any(g == m for g, _ in cand_conj):
            continue
        candidate = BicolouredLetter(letter.strands, m, 2, letter.sign, cand_conj)
        if braid_equal(letter.braid_word(), candidate.braid_word(), letter.strands):
            return candidate
    raise MonodromyError(
        f"no verified cross-colour form for {letter.label()}"
    )


# ---------------------------------------------------------------------------
# lifting to twist factorizations on the fibre


def _family_pair(g: int, m: int):
    if g < m:
        return "alpha", "gamma", g
    if g > m:
        return "beta", "delta", g - m
    raise MonodromyError(
        "a lone half-twist across the colour boundary has no twist lift"
    )


def _lift_word(word, m: int) -> tuple:
    out = []
    for g, s in word:
        fam1, fam2, idx = _family_pair(g, m)
        out.append((curve(fam1, idx), s))
        out.append((curve(fam2, idx), s))
    return tuple(out)


def _lift_letter(letter: BicolouredLetter) -> tuple:
    m = letter.m
    if letter.power == 2:
        rewritten = rewrite_cross_colour(letter)
        return (
            TwistLetter(
                curve("sigma"), rewritten.sign, _lift_word(rewritten.conjugator, m)
            ),
        )
    fam1, fam2, idx = _family_pair(letter.core, m)
    conj = _lift_word(letter.conjugator, m)
    return (
        TwistLetter(curve(fam1, idx), letter.sign, conj),
        TwistLetter(curve(fam2, idx), letter.sign, conj),
    )


def lift_to_twists(block) -> Factorization:
    """Lift a sequence of bicoloured letters to a twist factorization on
    the fibre: half-twists to the pair of twists on the two disjoint
    circles over their strands (``x_i -> alpha_i, gamma_i`` and
    ``y_j -> beta_j, delta_j``), cross-colour full twists to the single
    twist on the circle over the spanning segment (``sigma`` for the
    central one), conjugators letterwise by the same rule.  The fibre is
    read from the letters; letters on different strand counts raise
    :class:`MonodromyError`."""
    block = tuple(block)
    strands = sorted({letter.strands for letter in block})
    if len(strands) > 1:
        raise MonodromyError(
            f"block mixes letters on {strands} strands; one fibre per block"
        )
    return Factorization(
        tuple(twist for letter in block for twist in _lift_letter(letter))
    )


# ---------------------------------------------------------------------------
# block composition


def _block_of(b: int, label: str) -> tuple:
    if label == "X":
        return x_block(2 * b)
    if label == "Y":
        return y_block(2 * b)
    if label == "Xh":
        return tuple(t for t in x_block(2 * b) if t.power == 1)
    if label == "Yh":
        return tuple(t for t in y_block(2 * b) if t.power == 1)
    raise ValueError(f"unknown block label {label!r}")


def lifted_composition(b: int, arrangement=None, model=None) -> Factorization:
    """Concatenated lift of the blocks named by ``arrangement`` (default
    :func:`default_composition`).  The labels ``X``/``Y`` name the two
    monodromy blocks; the diagnostic labels ``Xh``/``Yh`` keep only the
    half-twist letters of a block (useful to demonstrate a composition
    whose lift misses the central circle).  The lift is word-level and
    builds no homology; a ``model``, if given, is only checked to be the
    fibre of ``b`` and raises :class:`MonodromyError` otherwise."""
    if model is not None and model.system.b != b:
        raise MonodromyError(
            f"model of the b={model.system.b} fibre given for a b={b}"
            " composition"
        )
    if arrangement is None:
        arrangement = default_composition(b)
    # each distinct block is lifted once; _block_of rejects a list label first
    lifts: dict = {}
    letters = []
    for label in arrangement:
        block = _block_of(b, label)
        if label not in lifts:
            lifts[label] = lift_to_twists(block).letters
        letters.extend(lifts[label])
    return Factorization(letters)


@lru_cache(maxsize=None)
def composition_search(b: int = 2, max_blocks: int = 6) -> dict:
    """Constraint table for candidate block compositions.

    The block multiplicities are under-determined: the construction only
    fixes the two block words, not how many copies of each make up
    the factorization over a larger disc.  Every letter of both blocks
    preserves the colouring and both block products induce the identity
    strand permutation, so those two constraints hold for *every*
    composition; the table also scans all compositions of up to
    ``max_blocks`` blocks for ones whose lift acts trivially on fibre
    homology (none up to six: the blocks describe the monodromy over a
    disc, not a closed base, so homological triviality is not forced
    either).  The ambiguity is reported, not resolved; the default used
    elsewhere is the plain coupling of a block with its mirror, see
    :func:`default_composition`."""
    from itertools import product as iter_product

    from .factorization import product_matrix
    from .homology import reference_model
    from .intlin import mat_mul

    model = reference_model(b)
    unmoved = tuple(range(1, 4 * b + 1))
    matrices = {}
    permutation_identity = {}
    for label in ("X", "Y"):
        block = _block_of(b, label)
        matrices[label] = product_matrix(model, lift_to_twists(block)).matrix
        word = sum((letter.braid_word() for letter in block), ())
        permutation_identity[label] = permutation_image(word, 4 * b) == unmoved
    eye = model.identity
    trivial = []
    for length in range(1, max_blocks + 1):
        for arrangement in iter_product("XY", repeat=length):
            out = eye
            for label in arrangement:
                out = mat_mul(out, matrices[label])
            if out == eye:
                trivial.append(arrangement)
    return {
        "colour_preserving": True,  # enforced per letter on construction
        "permutation_identity": permutation_identity,
        "trivial_arrangements": tuple(trivial),
        "x_block_trivial": matrices["X"] == eye,
        "y_block_trivial": matrices["Y"] == eye,
        "ambiguous": True,
    }


def default_composition(b: int = 2) -> tuple:
    """The composition used when none is configured: one block per
    colour pair, ``("X", "Y")``, the coupling of the block with its
    strand-reversal mirror.  This is a convention, not a derived fact;
    :func:`composition_search` documents why no candidate is singled
    out, and every composition containing at least one block of each
    kind carries all thirteen twist cores after lifting."""
    check_genus(b)
    return ("X", "Y")


# ---------------------------------------------------------------------------
# generator bookkeeping


def generation_check(blocks) -> dict:
    """Scan the letters of the given blocks and report, per generator,
    whether it occurs as a plain core, only as a squared core, or only
    inside conjugators.  The colour-preserving subgroup is generated by
    the ``x_i``, the ``y_j`` and ``z^2``, so ``all_generators_present``
    requires every half-twist generator as a plain core and ``z`` as a
    squared core."""
    letters = [letter for block in blocks for letter in block]
    if not letters:
        raise ValueError("no letters to scan")
    m = letters[0].m
    status = {
        generator_label(g, m): {"core": False, "squared_core": False, "conjugator": False}
        for g in range(1, 2 * m)
    }
    for letter in letters:
        name = generator_label(letter.core, letter.m)
        status[name]["squared_core" if letter.power == 2 else "core"] = True
        for g, _ in letter.conjugator:
            status[generator_label(g, letter.m)]["conjugator"] = True
    missing = tuple(
        name
        for name, seen in status.items()
        if not (seen["squared_core"] if name == "z" else seen["core"])
    )
    return {
        "generators": status,
        "missing": missing,
        "all_generators_present": not missing,
    }


# ---------------------------------------------------------------------------
# the hand-printed global twist factorization on the fibre


def _conjugated_chain_letter(family: str, j: int) -> TwistLetter:
    """``family_1 family_2 .. family_{j-2} family_{j-1}
    family_{j-2}^-1 .. family_1^-1`` as a single conjugated letter."""
    conjugator = tuple((curve(family, t), -1) for t in range(j - 2, 0, -1))
    return TwistLetter(curve(family, j - 1), 1, conjugator)


def mu_nu_block(b: int) -> Factorization:
    """The conjugated alpha/gamma part of the printed factorization:
    ``mu_{2b}^2 nu_{2b}^2 ... mu_2^2 nu_2^2`` where ``mu_j`` is the
    alpha-chain letter of :func:`_conjugated_chain_letter` and ``nu_j``
    the gamma-chain one; ``4(2b-1)`` letters."""
    check_genus(b)
    letters = []
    for j in range(2 * b, 1, -1):
        mu = _conjugated_chain_letter("alpha", j)
        nu = _conjugated_chain_letter("gamma", j)
        letters += [mu, mu, nu, nu]
    return Factorization(tuple(letters))


def mu_nu_normal_form(b: int) -> Factorization:
    """The claimed normal form of the mu/nu block: ``alpha_1 ..
    alpha_{2b-2} alpha_{2b-1}^2 alpha_{2b-2} .. alpha_1`` then the same
    in gamma; all letters bare, same length as the block."""
    check_genus(b)
    n = 2 * b - 1
    letters = []
    for family in ("alpha", "gamma"):
        rising = [bare(curve(family, i)) for i in range(1, n + 1)]
        letters += rising + rising[::-1]
    return Factorization(tuple(letters))


def appendix_factorization(b: int) -> Factorization:
    """The printed global twist factorization on the fibre: the mu/nu
    block, the bare ``sigma`` letter, then the mirrored beta and delta
    blocks ``beta_{2b-1} .. beta_1 beta_1 .. beta_{2b-1}`` (and the same
    in delta); ``4(2b-1) + 1 + 4(2b-1)`` letters, all positive."""
    letters = list(mu_nu_block(b).letters)
    letters.append(bare(curve("sigma")))
    n = 2 * b - 1
    for family in ("beta", "delta"):
        falling = [bare(curve(family, i)) for i in range(n, 0, -1)]
        letters += falling + falling[::-1]
    return Factorization(tuple(letters))
