"""Numerical invariants, hypothesis checklists, and family enumeration.

The reference values were evaluated by hand from the closed forms and
frozen [DERIVED]; the quarter-product formula for chi is checked against
the independent character-decomposition oracle as a property, and the
two documented discrepancies (the coefficient-four chi variant and the
symmetric-combination identity for the dimension) are asserted to stay
flagged rather than silently adopted.
"""
import pytest
from hypothesis import given, settings, strategies as st

from twistbench.invariants import (
    CoverType,
    SurfaceInvariants,
    character_chi,
    chi_report,
    deformation_dimension,
    dimension_consistency,
    family_enumerate,
    invariants,
    theorem_hypotheses,
)

small = st.integers(1, 20)


class TestCoverType:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoverType(0, 1, 1, 1)
        with pytest.raises(ValueError):
            CoverType(1, 1, -2, 1)
        with pytest.raises(ValueError):
            CoverType(1, 1, 1.5, 1)

    def test_branch_degrees(self):
        assert CoverType(14, 8, 6, 8).branch_degrees == (40, 32)


class TestInvariants:
    def test_reference_values(self):
        # [DERIVED] direct evaluation of the closed forms
        assert invariants(CoverType(14, 8, 6, 8)) == SurfaceInvariants(
            chi=412, K2=2016, divisibility=2, fibre_genus=29
        )
        assert invariants(CoverType(1, 1, 1, 1)).chi == 2

    def test_divisibility_is_gcd_of_the_canonical_bidegree(self):
        assert invariants(CoverType(14, 8, 6, 8)).divisibility == 2  # gcd(18, 14)
        assert invariants(CoverType(5, 4, 5, 4)).divisibility == 2  # gcd(8, 6)

    @given(a=small, b=small, c=small, d=small)
    @settings(max_examples=300, deadline=None)
    def test_chi_matches_character_oracle(self, a, b, c, d):
        t = CoverType(a, b, c, d)
        assert invariants(t).chi == character_chi(t)

    @given(a=small, b=small, c=small)
    @settings(max_examples=100, deadline=None)
    def test_K2_closed_form_in_equal_fibre_case(self, a, b, c):
        t = CoverType(a, b, c, b)
        assert invariants(t).K2 == 16 * (a + c - 2) * (b - 1)

    @given(a=small, b=small, c=small)
    @settings(max_examples=100, deadline=None)
    def test_chi_K2_combination(self, a, b, c):
        # [DERIVED] 8 chi - K^2 = 8 b (a+c) when d = b
        inv = invariants(CoverType(a, b, c, b))
        assert 8 * inv.chi - inv.K2 == 8 * b * (a + c)

    @given(b=small, d=small)
    @settings(max_examples=60, deadline=None)
    def test_fibre_genus_matches_euler_count(self, b, d):
        # the fibre is a four-sheeted cover of the line with simple
        # ramification over 2b + 2d points of each double intermediate
        euler = 4 * 2 - 2 * (2 * b) - 2 * (2 * d)
        genus = (2 - euler) // 2
        inv = invariants(CoverType(3, b, 3, d))
        assert inv.fibre_genus == genus == 2 * (b + d) - 3
        if d == b:
            assert inv.fibre_genus == 4 * b - 3

    def test_positive_on_theorem_range(self):
        inv = invariants(CoverType(14, 8, 6, 8))
        assert inv.chi > 0 and inv.K2 > 0


class TestChiReport:
    def test_variant_is_flagged_not_adopted(self):
        report = chi_report(CoverType(14, 8, 6, 8))
        assert report["oracle_agrees"] is True
        assert report["coefficient_four_variant"] == 892
        assert report["variant_agrees"] is False

    def test_variant_only_reported_in_equal_fibre_case(self):
        assert "coefficient_four_variant" not in chi_report(CoverType(2, 3, 4, 5))


class TestHypotheses:
    def test_reference_case_passes(self):
        checklist = theorem_hypotheses(14, 8, 6, 2)
        assert checklist["all_pass"]
        assert checklist["I"]["passed"] and checklist["I"]["margin"] == 0
        assert checklist["II"]["margin"] == 1  # 14 >= 13
        assert checklist["III"]["margin"] == 0  # 8 >= 8
        assert checklist["smallest_margin"] == 0

    def test_boundary_failure(self):
        checklist = theorem_hypotheses(10, 6, 4, 2)
        assert not checklist["all_pass"]
        assert checklist["I"]["passed"] is False
        assert checklist["I"]["margin"] == -2
        assert checklist["I"]["binding"] == "(c-k)-4"

    def test_parity_failure(self):
        checklist = theorem_hypotheses(13, 8, 6, 2)
        assert not checklist["I"]["passed"]
        assert checklist["I"]["odd"] == ("a",)

    def test_weak_variant(self):
        assert theorem_hypotheses(2, 2, 3, 2)["variant"]["passed"]
        assert not theorem_hypotheses(1, 2, 3, 2)["variant"]["passed"]


class TestFamilies:
    def test_reference_family(self):
        members = family_enumerate(14, 8, 6, 2)
        assert len(members) == 2
        assert [(t.a, t.b, t.c, t.d) for t, _ in members] == [
            (14, 8, 6, 8),
            (15, 8, 5, 8),
        ]
        shared = {inv for _, inv in members}
        assert shared == {
            SurfaceInvariants(chi=412, K2=2016, divisibility=2, fibre_genus=29)
        }

    def test_odd_k_rejected_outright(self):
        with pytest.raises(ValueError):
            family_enumerate(14, 8, 6, 3)

    def test_failing_hypotheses_rejected(self):
        with pytest.raises(ValueError, match=r"hypotheses I fail for \(a, b, c, k\) = \(10, 6, 4, 2\)$"):
            family_enumerate(10, 6, 4, 2)

    @given(
        b=st.integers(4, 16).filter(lambda v: v % 2 == 0),
        c=st.integers(3, 6).filter(lambda v: v % 2 == 0),
        k_half=st.integers(1, 2),
        slack=st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_members_always_share_invariants(self, b, c, k_half, slack):
        k = 2 * k_half  # k/2 < c, so every member has a positive degree
        a = 2 * c + 2 + 2 * slack  # even and >= 2c+1
        # the members are the types of family_enumerate, whose hypotheses
        # need not hold here
        members = [CoverType(a + i, b, c - i, b) for i in range(k // 2 + 1)]
        assert len({invariants(t) for t in members}) == 1
        if theorem_hypotheses(a, b, c, k)["all_pass"]:
            assert family_enumerate(a, b, c, k) == tuple((t, invariants(t)) for t in members)


class TestDimension:
    def test_reference_values(self):
        # [DERIVED] 9*65 + 16*21 - 8 and 2*8 + 2*3 - 8
        assert deformation_dimension(14, 8, 6) == 913
        assert deformation_dimension(1, 1, 1) == 14

    @given(a=small, b=small, c=small)
    @settings(max_examples=60, deadline=None)
    def test_increasing_in_a(self, a, b, c):
        assert deformation_dimension(a + 1, b, c) > deformation_dimension(a, b, c)

    def test_symmetric_combination_disagrees(self):
        report = dimension_consistency(14, 8, 6)
        assert report == {
            "dimension": 913,
            "symmetric_combination": 876,
            "equal": False,
        }
