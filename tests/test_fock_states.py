from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellwall.fock.labels import COH_E, COH_PT, COH_SM, COH_SP, LABEL_PARITY
from ellwall.fock.states import FockState, basis_monomials, monomial_energy

from fock_reference import (
    TruncationError,
    add,
    alpha_apply,
    annihilate,
    insert_creation,
    shift_charge,
    sub,
)

# cumulative monomial counts for energy <= 0..8
EXPECTED_COUNTS = [1, 5, 17, 49, 125, 293, 645, 1349, 2705]


def series_counts(top: int) -> list[int]:
    """Independent count oracle: coefficients of
    prod_k ((1+q^k)/(1-q^k))^2 accumulated by energy, via integer
    series arithmetic only."""
    coeffs = [0] * (top + 1)
    coeffs[0] = 1
    for k in range(1, top + 1):
        # multiply by (1 + q^k)^2 = 1 + 2 q^k + q^{2k}
        nxt = list(coeffs)
        for i in range(top + 1 - k):
            nxt[i + k] += 2 * coeffs[i]
        for i in range(top + 1 - 2 * k):
            nxt[i + 2 * k] += coeffs[i]
        coeffs = nxt
        # divide by (1 - q^k)^2: multiply twice by sum_j q^{jk}
        for _ in range(2):
            for i in range(k, top + 1):
                coeffs[i] += coeffs[i - k]
    out, total = [], 0
    for e in range(top + 1):
        total += coeffs[e]
        out.append(total)
    return out


class TestBasis:
    def test_counts_frozen(self):
        assert [len(basis_monomials(n)) for n in range(9)] == EXPECTED_COUNTS

    def test_counts_against_series(self):
        assert series_counts(8) == EXPECTED_COUNTS

    def test_monomials_canonical(self):
        for mono in basis_monomials(5):
            keys = [(-k, l) for k, l in mono]
            assert keys == sorted(keys)
            for (k1, l1), (k2, l2) in zip(mono, mono[1:]):
                if LABEL_PARITY[l1]:
                    assert (k1, l1) != (k2, l2)

    def test_monomials_sorted_and_unique(self):
        monos = basis_monomials(4)
        assert len(set(monos)) == len(monos)
        keys = [(monomial_energy(m), m) for m in monos]
        assert keys == sorted(keys)

    def test_energy_bound(self):
        assert all(monomial_energy(m) <= 3 for m in basis_monomials(3))
        with pytest.raises(ValueError):
            basis_monomials(-1)


class TestInsertCreation:
    def test_even_keeps_sign(self):
        sign, mono = insert_creation(((2, COH_E),), 1, COH_PT)
        assert sign == 1
        assert mono == ((2, COH_E), (1, COH_PT))

    def test_odd_repeat_vanishes(self):
        assert insert_creation(((1, COH_SP),), 1, COH_SP) is None

    def test_odd_crossing_flips(self):
        # canonical order puts sigma+ before sigma- at equal index, so the
        # incoming sigma- crosses one odd mode on its way right: sign -1
        sign_direct, mono_direct = insert_creation(((1, COH_SP),), 1, COH_SM)
        assert sign_direct == -1
        assert mono_direct == ((1, COH_SP), (1, COH_SM))
        # the mirror insertion lands in front without crossing
        sign_mirror, mono_mirror = insert_creation(((1, COH_SM),), 1, COH_SP)
        assert sign_mirror == 1
        assert mono_mirror == ((1, COH_SP), (1, COH_SM))

    @given(
        st.integers(1, 3), st.sampled_from([COH_SP, COH_SM]),
        st.integers(1, 3), st.sampled_from([COH_SP, COH_SM]),
    )
    def test_odd_modes_anticommute(self, k1, l1, k2, l2):
        first = insert_creation((), k1, l1)
        assert first is not None
        a = insert_creation(first[1], k2, l2)
        second = insert_creation((), k2, l2)
        assert second is not None
        b = insert_creation(second[1], k1, l1)
        if (k1, l1) == (k2, l2):
            assert a is None and b is None
        else:
            assert a is not None and b is not None
            assert a[1] == b[1]
            assert a[0] * first[0] == -b[0] * second[0]


class TestAnnihilate:
    def test_multiplicity_factor(self):
        mono = ((1, COH_PT), (1, COH_PT), (1, COH_PT))
        hits = annihilate(mono, 1, COH_E)
        assert len(hits) == 3
        assert all(scal == 1 and m == mono[:2] for scal, m in hits)

    def test_index_scales(self):
        hits = annihilate(((3, COH_PT),), 3, COH_E)
        assert hits == [(3, ())]

    def test_odd_pairing_sign(self):
        assert annihilate(((2, COH_SP),), 2, COH_SM) == [(-2, ())]
        assert annihilate(((2, COH_SM),), 2, COH_SP) == [(2, ())]

    def test_crossing_sign(self):
        # passing the first odd mode contributes -1, the contraction
        # contributes <sigma-, sigma+> = -1; together +1
        mono = ((2, COH_SP), (1, COH_SP))
        assert annihilate(mono, 1, COH_SM) == [(1, ((2, COH_SP),))]

    def test_no_partner(self):
        assert annihilate(((2, COH_E),), 2, COH_E) == []


class TestFockState:
    def test_vacuum(self):
        v = FockState(3, {(): 1})
        assert v.charge == 3 and not v.is_zero()
        assert v.weight() == 0

    def test_add_same_charge(self):
        a = FockState.from_monomial(((1, COH_E),), 2)
        b = FockState.from_monomial(((1, COH_E),), Fraction(1, 2))
        assert add(a, b).terms[((1, COH_E),)] == Fraction(5, 2)

    def test_add_charge_mismatch(self):
        with pytest.raises(ValueError):
            add(FockState(0, {(): 1}), FockState(1, {(): 1}))

    def test_zero_states_equal_across_charges(self):
        assert FockState.zero(0) == FockState.zero(7)
        assert add(FockState.zero(0), FockState(4, {(): 1})) == FockState(4, {(): 1})

    def test_cancellation_drops_monomial(self):
        a = FockState.from_monomial(((2, COH_E),), 1)
        assert sub(a, a).is_zero()

    def test_weight_requires_homogeneous(self):
        mixed = FockState(
            0, {((1, COH_E),): Fraction(1), ((2, COH_E),): Fraction(1)}
        )
        assert not mixed.is_homogeneous()
        with pytest.raises(ValueError):
            mixed.weight()

    def test_shift_charge(self):
        assert shift_charge(FockState(1, {(): 1}), -3).charge == -2

    def test_json_shape(self):
        s = FockState.from_monomial(
            ((2, COH_E), (1, COH_SP)), Fraction(-3, 2), charge=1
        )
        assert s.to_json_dict() == {
            "charge": 1,
            "terms": [
                {"modes": [[2, "E"], [1, "sigma+"]], "coeff": "-3/2"}
            ],
        }


class TestAlphaApply:
    def test_creation_then_annihilation(self):
        v = FockState(0, {(): 1})
        up = alpha_apply(-1, COH_PT, v)
        assert up.terms == {((1, COH_PT),): Fraction(1)}
        down = alpha_apply(1, COH_E, up)
        assert down == FockState(0, {(): 1})

    def test_commutation_value(self):
        # alpha_2 alpha_{-2} on vacuum picks up the factor 2<E,pt>
        v = FockState(0, {(): 1})
        out = alpha_apply(2, COH_E, alpha_apply(-2, COH_PT, v))
        assert out.terms == {(): Fraction(2)}

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            alpha_apply(0, COH_E, FockState(0, {(): 1}))

    def test_truncation_guard(self):
        v = FockState.from_monomial(((3, COH_E),))
        with pytest.raises(TruncationError):
            alpha_apply(-2, COH_E, v, max_energy=4)

    @given(st.integers(1, 3), st.sampled_from(range(4)))
    def test_annihilate_vacuum(self, n, label):
        assert alpha_apply(n, label, FockState(0, {(): 1})).is_zero()
