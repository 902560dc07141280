from fractions import Fraction

import pytest

from ellwall.fock.labels import COH_E, COH_PT, COH_SM, COH_SP
from ellwall.fock.monodromy import monodromy_f, monodromy_s
from ellwall.fock.operators import w_general
from ellwall.fock.states import FockState, basis_monomials, monomial_energy

from fock_reference import add, apply


def state_of(*modes, coeff=1, charge=0):
    return FockState.from_monomial(tuple(modes), coeff, charge)


class TestFiberAction:
    def test_golden_even_mode(self):
        s = state_of((2, COH_E))
        got = monodromy_f(s)
        assert got == state_of((2, COH_E), coeff=-1, charge=-2)

    def test_golden_odd_mode(self):
        s = state_of((3, COH_SP), charge=1)
        got = monodromy_f(s)
        # odd mode index keeps its sign; charge reflects through -weight
        assert got == state_of((3, COH_SP), charge=-4)

    def test_sign_pattern_per_mode(self):
        for mono in basis_monomials(5):
            s = FockState.from_monomial(mono, charge=2)
            got = monodromy_f(s)
            sign = 1
            for k, _ in mono:
                sign *= (-1) ** (k + 1)
            assert got.terms[mono] == Fraction(sign)
            assert got.charge == -monomial_energy(mono) - 2

    def test_involution_on_weight_spaces(self):
        for mono in basis_monomials(5):
            for charge in range(-3, 4):
                s = FockState.from_monomial(mono, Fraction(3, 7), charge)
                assert monodromy_f(monodromy_f(s)) == s

    def test_mixed_weight_rejected(self):
        mixed = add(state_of((1, COH_E)), state_of((2, COH_E)))
        with pytest.raises(ValueError):
            monodromy_f(mixed)

    def test_zero_state_passes_through(self):
        z = FockState(5)
        assert monodromy_f(z).is_zero()


def hk_table(top: int) -> dict[int, dict[tuple[int, ...], Fraction]]:
    """Complete homogeneous elements in the commuting creation modes,
    via the Newton recurrence k h_k = sum_i p_i h_{k-i}; an oracle
    independent of any partition-coefficient formula."""
    table: dict[int, dict[tuple[int, ...], Fraction]] = {0: {(): Fraction(1)}}
    for k in range(1, top + 1):
        acc: dict[tuple[int, ...], Fraction] = {}
        for i in range(1, k + 1):
            for parts, c in table[k - i].items():
                key = tuple(sorted(parts + (i,), reverse=True))
                acc[key] = acc.get(key, Fraction(0)) + c
        table[k] = {parts: c / k for parts, c in acc.items()}
    return table


def poly_mul(
    x: dict[tuple[int, ...], Fraction], y: dict[tuple[int, ...], Fraction]
) -> dict[tuple[int, ...], Fraction]:
    out: dict[tuple[int, ...], Fraction] = {}
    for a, ca in x.items():
        for b, cb in y.items():
            key = tuple(sorted(a + b, reverse=True))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return out


class TestSectionAction:
    def test_vacuum_fixed(self):
        assert monodromy_s(FockState(0, {(): 1}), 4) == FockState(0, {(): 1})

    def test_single_mode_golden(self):
        # the slope-one generator at mode -1 creates the linear mode
        got = monodromy_s(state_of((1, COH_E)), 4)
        assert got == state_of((1, COH_E), charge=1)

    def test_matches_symmetric_function_oracle(self):
        N = 6
        table = hk_table(N)
        for mono in basis_monomials(N):
            if any(l != COH_E for _, l in mono):
                continue
            s = FockState.from_monomial(mono)
            got = monodromy_s(s, N)
            acc = {(): Fraction(1)}
            for k, _ in mono:
                acc = poly_mul(acc, table[k])
            expected = FockState(
                len(mono),
                {
                    tuple((j, COH_E) for j in parts): Fraction(c)
                    for parts, c in acc.items()
                },
            )
            assert got == expected

    def test_sigma_modes_supported(self):
        got = monodromy_s(state_of((1, COH_SP)), 4)
        assert got == state_of((1, COH_SP), charge=1)
        got = monodromy_s(state_of((2, COH_SM)), 4)
        expected = FockState(
            1,
            {
                ((1, COH_E), (1, COH_SM)): Fraction(1),
                ((2, COH_SM),): Fraction(1),
            },
        )
        assert got == expected

    def test_pt_modes_supported(self):
        got = monodromy_s(state_of((1, COH_PT)), 4)
        assert got.charge == 1 and not got.is_zero()

    def test_charged_input_rejected(self):
        with pytest.raises(ValueError):
            monodromy_s(FockState(1, {(): 1}), 4)

    def test_linear_on_same_length_monomials(self):
        a = state_of((2, COH_E), (1, COH_E))
        b = state_of((1, COH_E), (1, COH_E))
        combined = add(a, b)
        got = monodromy_s(combined, 5)
        assert got == add(monodromy_s(a, 5), monodromy_s(b, 5))

    def test_window_overflow_is_value_error(self):
        # the last generator would act on an intermediate state of energy 6
        s = state_of((3, COH_E), (3, COH_E), (3, COH_E))
        with pytest.raises(ValueError, match="window 5"):
            monodromy_s(s, 5)
        # exact past the window when every intermediate state fits in it
        fits = state_of((3, COH_E), (3, COH_E), (1, COH_E))
        assert not monodromy_s(fits, 5).is_zero()


def test_section_action_matches_operator_chain():
    """The integer-row section action equals the reference chain of
    fock_reference.apply calls, slope-one generators applied right to left,
    on every basis monomial of energy <= 4 (all four labels).  Each
    generator raises the energy by its k, so no chain leaves the window
    (the reference would raise TruncationError)."""
    N = 4
    ops = {}
    for mono in basis_monomials(N):
        want = FockState(0, {(): 1})
        for k, label in reversed(mono):
            op = ops.get((k, label))
            if op is None:
                op = ops[(k, label)] = w_general(1, -k, label, N)
            want = apply(op, want)
        got = monodromy_s(FockState.from_monomial(mono), N)
        assert got == want, mono
        if not want.is_zero():
            assert got.to_json_dict() == want.to_json_dict(), mono
