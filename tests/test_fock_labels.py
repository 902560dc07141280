from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellwall.fock.labels import (
    COH_E,
    COH_PT,
    COH_SM,
    COH_SP,
    LABEL_NAMES,
    LABEL_PARITY,
    label_index,
    pairing_scalar,
    star_label,
)
from fock_reference import CohClass, cup_product, star_product, super_pairing

BASIS = [CohClass.basis(i) for i in range(4)]


def coh(e=0, sp=0, sm=0, pt=0):
    return CohClass((Fraction(e), Fraction(sp), Fraction(sm), Fraction(pt)))


rational = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
coh_classes = st.builds(
    coh, rational, rational, rational, rational
)


class TestPairing:
    def test_matrix(self):
        expected = {
            (COH_E, COH_PT): 1,
            (COH_PT, COH_E): 1,
            (COH_SP, COH_SM): 1,
            (COH_SM, COH_SP): -1,
        }
        for i in range(4):
            for j in range(4):
                assert pairing_scalar(i, j) == expected.get((i, j), 0)

    @given(coh_classes, coh_classes, rational)
    def test_bilinear(self, u, v, t):
        left = super_pairing(u.scale(t), v)
        assert left == super_pairing(u, v) * t
        assert super_pairing(u, v.scale(t)) == super_pairing(u, v) * t

    @given(coh_classes, coh_classes, coh_classes)
    def test_additive(self, u, v, w):
        assert super_pairing(u + v, w) == super_pairing(u, w) + super_pairing(v, w)


class TestProducts:
    def test_cup_unit(self):
        for b in BASIS:
            assert cup_product(BASIS[COH_E], b) == b
            assert cup_product(b, BASIS[COH_E]) == b

    def test_star_unit(self):
        for b in BASIS:
            assert star_product(BASIS[COH_PT], b) == b
            assert star_product(b, BASIS[COH_PT]) == b

    def test_cup_odd_pair(self):
        assert cup_product(BASIS[COH_SP], BASIS[COH_SM]) == BASIS[COH_PT]
        assert cup_product(BASIS[COH_SM], BASIS[COH_SP]) == BASIS[COH_PT].scale(-1)

    def test_star_odd_pair(self):
        assert star_product(BASIS[COH_SP], BASIS[COH_SM]) == BASIS[COH_E]
        assert star_product(BASIS[COH_SM], BASIS[COH_SP]) == BASIS[COH_E].scale(-1)

    def test_cup_top_annihilates(self):
        for i in (COH_SP, COH_SM, COH_PT):
            assert cup_product(BASIS[COH_PT], BASIS[i]).is_zero()
            assert cup_product(BASIS[i], BASIS[COH_PT]).is_zero()

    def test_star_top_annihilates(self):
        for i in (COH_SP, COH_SM, COH_E):
            assert star_product(BASIS[COH_E], BASIS[i]).is_zero()
            assert star_product(BASIS[i], BASIS[COH_E]).is_zero()

    def test_duality_swap_conjugates(self):
        # star is cup transported through the degree swap E <-> pt
        def swap(u):
            e, sp, sm, pt = u.coeffs
            return CohClass((pt, sp, sm, e))

        for u in BASIS:
            for v in BASIS:
                assert star_product(u, v) == swap(
                    cup_product(swap(u), swap(v))
                )

    def test_graded_commutativity(self):
        for i, u in enumerate(BASIS):
            for j, v in enumerate(BASIS):
                sign = -1 if (LABEL_PARITY[i] and LABEL_PARITY[j]) else 1
                assert cup_product(u, v) == cup_product(v, u).scale(sign)
                assert star_product(u, v) == star_product(v, u).scale(sign)

    def test_star_label_reads_basis_products(self):
        for i, u in enumerate(BASIS):
            for j, v in enumerate(BASIS):
                hit = star_label(i, j)
                want = CohClass.zero() if hit is None else BASIS[hit[0]].scale(hit[1])
                assert star_product(u, v) == want, (i, j)

    @given(coh_classes, coh_classes, coh_classes)
    def test_bilinear(self, u, v, w):
        assert cup_product(u + v, w) == cup_product(u, w) + cup_product(v, w)
        assert star_product(u, v + w) == star_product(u, v) + star_product(u, w)


class TestLabelIndex:
    def test_names_round_trip(self):
        for i, name in enumerate(LABEL_NAMES):
            assert label_index(name) == i
            assert label_index(i) == i

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            label_index("theta")
        with pytest.raises(ValueError):
            label_index(4)


class TestCohClass:
    def test_homogeneous_parity(self):
        assert coh(e=1, pt=2).parity() == 0
        assert coh(sp=1, sm=-1).parity() == 1
        assert not coh(e=1, sp=1).is_homogeneous()
        with pytest.raises(ValueError):
            coh(e=1, sp=1).parity()

    def test_support_is_sparse(self):
        assert coh(sp=3).support() == [(COH_SP, Fraction(3))]
        assert coh().support() == []
        assert coh().is_zero()
