from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ellwall.fock.fastapply import (
    BasisIndex,
    ChargedField,
    ModeTable,
    RowTable,
    add_scaled,
    commutator_rows,
    compose_rows,
)
from ellwall.fock import verify as fock_verify
from ellwall.fock.labels import (
    COH_E, COH_PT, COH_SM, COH_SP, pairing_scalar,
)
from ellwall.fock.operators import (
    OperatorExpr, w_general, w_small,
)
from ellwall.fock.states import (
    FockState, annihilation_chain, basis_monomials, creation_chain,
)

from fock_reference import (
    TruncationError,
    apply,
    commutator_apply,
    heisenberg_mode,
    scale,
    vertex_mode,
)


def state_of(*modes, coeff=1, charge=0):
    return FockState.from_monomial(tuple(modes), coeff, charge)


class TestHeisenbergModes:
    @given(
        st.integers(-3, 3).filter(bool),
        st.integers(-3, 3).filter(bool),
        st.sampled_from(range(4)),
        st.sampled_from(range(4)),
        st.integers(0, 48),
    )
    @settings(max_examples=60, deadline=None)
    def test_canonical_relation(self, m, k, g, h, pick):
        monos = basis_monomials(4)
        s = FockState.from_monomial(monos[pick % len(monos)])
        got = commutator_apply(heisenberg_mode(m, g), heisenberg_mode(k, h), s)
        if m + k == 0:
            expected = scale(s, m * pairing_scalar(g, h))
        else:
            expected = FockState.zero(0)
        assert got == expected

    def test_gradings(self):
        op = heisenberg_mode(-3, COH_SP)
        assert op.energy_shift == 3
        assert op.charge_shift == 0
        assert op.parity == 1
        assert heisenberg_mode(2, COH_E).parity == 0

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            heisenberg_mode(0, COH_E)


class TestVertexModes:
    def test_vacuum_goldens(self):
        v = FockState(0, {(): 1})
        assert apply(vertex_mode(1, 0, 4), v) == FockState(1, {(): 1})
        assert apply(vertex_mode(1, -1, 4), v) == state_of((1, COH_E), charge=1)
        two_e = FockState(
            1,
            {
                ((1, COH_E), (1, COH_E)): Fraction(1, 2),
                ((2, COH_E),): Fraction(1, 2),
            },
        )
        assert apply(vertex_mode(1, -2, 4), v) == two_e

    def test_slope_scales_linear_coefficient(self):
        v = FockState(0, {(): 1})
        got = apply(vertex_mode(2, -1, 4), v)
        assert got == state_of((1, COH_E), coeff=2, charge=2)
        got = apply(vertex_mode(-1, -1, 4), v)
        assert got == state_of((1, COH_E), coeff=-1, charge=-1)

    def test_positive_modes_kill_vacuum(self):
        v = FockState(0, {(): 1})
        for n in (1, 2, 3):
            assert apply(vertex_mode(1, n, 4), v).is_zero()

    def test_charge_and_energy_shift(self):
        op = vertex_mode(-2, 3, 5)
        assert op.charge_shift == -2
        assert op.energy_shift == -3
        assert op.parity == 0

    def test_truncation_guard(self):
        op = vertex_mode(1, 1, 2)
        deep = state_of((3, COH_PT))
        with pytest.raises(TruncationError):
            apply(op, deep)

    @pytest.mark.parametrize("k,m,n", [(1, 1, 0), (2, 1, -1), (-1, 2, 1), (3, -2, -2)])
    def test_heisenberg_commutator_instance(self, k, m, n):
        N = 6
        window = N - max(0, -k) - max(0, -n, -k - n)
        lhs_op = heisenberg_mode(k, COH_PT)
        field = vertex_mode(m, n, N)
        shifted = vertex_mode(m, n + k, N)
        for s in map(FockState.from_monomial, basis_monomials(window)):
            got = commutator_apply(lhs_op, field, s)
            assert got == scale(apply(shifted, s), m)

    def test_zero_pairing_label_commutes(self):
        field = vertex_mode(1, -1, 4)
        for label in (COH_E, COH_SP, COH_SM):
            mode = heisenberg_mode(2, label)
            for s in map(FockState.from_monomial, basis_monomials(2)):
                assert commutator_apply(mode, field, s).is_zero()


class TestSmallGenerators:
    def test_normalization_factors(self):
        v = state_of((2, COH_PT))
        assert apply(w_small(2, COH_E), v) == FockState(
            0, {(): Fraction(1)}
        )
        w = state_of((2, COH_E))
        assert apply(w_small(2, COH_PT), w) == FockState(
            0, {(): Fraction(4)}
        )
        with pytest.raises(ValueError):
            w_small(0, COH_E)

    def test_negative_modes_use_absolute_value(self):
        v = FockState(0, {(): 1})
        assert apply(w_small(-2, COH_E), v) == state_of(
            (2, COH_E), coeff=Fraction(1, 2)
        )
        assert apply(w_small(-2, COH_PT), v) == state_of((2, COH_PT), coeff=2)

    def test_sigma_unnormalized(self):
        v = FockState(0, {(): 1})
        assert apply(w_small(-3, COH_SP), v) == state_of((3, COH_SP))

    def test_w_general_reduces_at_slope_zero(self):
        for n in (-2, -1, 1, 3):
            for label in range(4):
                a = w_general(0, n, label, 4)
                b = w_small(n, label)
                for s in map(FockState.from_monomial, basis_monomials(3)):
                    assert apply(a, s) == apply(b, s)


class TestSigmaField:
    def test_vacuum_goldens(self):
        v = FockState(0, {(): 1})
        assert apply(w_general(1, -1, COH_SP, 4), v) == state_of(
            (1, COH_SP), charge=1
        )
        got = apply(w_general(1, -2, COH_SP, 4), v)
        expected = FockState(
            1,
            {
                ((1, COH_E), (1, COH_SP)): Fraction(1),
                ((2, COH_SP),): Fraction(1),
            },
        )
        assert got == expected

    def test_nonnegative_modes_kill_vacuum(self):
        v = FockState(0, {(): 1})
        for b in (0, 1, 2):
            assert apply(w_general(1, b, COH_SM, 4), v).is_zero()

    def test_gradings(self):
        op = w_general(-1, 2, COH_SM, 5)
        assert op.parity == 1
        assert op.charge_shift == -1
        assert op.energy_shift == -2


class TestExtendedField:
    def test_requires_config(self):
        """The bracket engine refuses the pt slope field on either side."""
        with pytest.raises(ValueError, match="extended mode"):
            fock_verify.bracket_verify(1, -1, "pt", 0, 1, "E", 4)
        with pytest.raises(ValueError, match="extended mode"):
            fock_verify.bracket_verify(0, 1, "E", -1, 1, "pt", 4)

    def test_vacuum_golden_default(self):
        v = FockState(0, {(): 1})
        assert apply(w_general(1, -1, COH_PT, 4), v) == state_of(
            (1, COH_E), charge=1
        )
        got = apply(w_general(1, -2, COH_PT, 4), v)
        expected = FockState(
            1,
            {
                ((1, COH_E), (1, COH_E)): Fraction(1),
                ((1, COH_SP), (1, COH_SM)): Fraction(1),
                ((2, COH_E),): Fraction(1),
            },
        )
        assert got == expected


class TestOperatorExpr:
    E1, E2, SP1 = ((1, COH_E),), ((2, COH_E),), ((1, COH_SP),)

    def test_w_general_excludes_origin(self):
        with pytest.raises(ValueError):
            w_general(0, 0, COH_E, 4)

    @staticmethod
    def chunk(coeff, creations, annihilations):
        """One term as a chunk: its creation list has the one entry."""
        return coeff, ((1, creations),), annihilations

    def test_terms_must_share_the_energy_shift(self):
        # the energy shift is the created energy less the annihilated:
        # alpha_{-1}(E) shifts by 1, alpha_{-2}(E) by 2, alpha_{-2}(E) alpha_1(E) by 1
        t = self.chunk
        with pytest.raises(ValueError, match="energy shift"):
            OperatorExpr([t(1, self.E1, ()), t(1, self.E2, ())], None, 0, 1, 0)
        with pytest.raises(ValueError, match="energy shift"):
            OperatorExpr([t(1, self.E2, self.E1)], None, 0, 2, 0)
        # a creation list is checked entry by entry against its part's need
        with pytest.raises(ValueError, match="energy shift"):
            OperatorExpr([(1, ((1, self.E1), (1, self.E2)), ())], None, 0, 1, 0)

    def test_terms_must_share_parity(self):
        t = self.chunk
        with pytest.raises(ValueError, match="parity"):
            OperatorExpr([t(1, self.E1, ()), t(1, self.SP1, ())], None, 0, 1, 0)
        with pytest.raises(ValueError, match="parity"):
            OperatorExpr([t(1, self.E2, self.SP1)], None, 0, 1, 0)
        with pytest.raises(ValueError, match="parity"):
            OperatorExpr([(1, ((1, self.E1), (1, self.SP1)), ())], None, 0, 1, 0)

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="denominator"):
            OperatorExpr([self.chunk(1, self.E1, ())], None, 0, 1, 0, denom=0)

    def test_negative_denominator_reduces(self):
        """4/-10 and -6/-10 reduce to -2/5 and 3/5: the gcd takes the
        denominator's sign, so the denominator ends positive."""
        t = self.chunk
        op = OperatorExpr(
            [t(4, self.E2, self.E1), t(-6, self.E1, ())], 6, 3, 1, 0, denom=-10
        )
        assert op.denom == 5 and op.charge_shift == 3
        assert op.terms == [(-2, self.E2, self.E1), (3, self.E1, ())]
        assert [Fraction(c, op.denom) for c, _, _ in op.terms] == [
            Fraction(4, -10), Fraction(-6, -10),
        ]

    def test_a_creation_list_folds_its_gcd_into_the_chunk(self):
        """(2 alpha_{-2} + 4 alpha_{-1}^2) times 3 alpha_1(E) - alpha_1(pt),
        over -12: the shared list's gcd 2 goes into both chunks, once, and
        the terms -1/2, -1, 1/6 and 1/3 keep their least denominator 6."""
        E11, PT1 = ((1, COH_E), (1, COH_E)), ((1, COH_PT),)
        clist = ((2, self.E2), (4, E11))
        op = OperatorExpr([(3, clist, self.E1), (-1, clist, PT1)], 4, 0, 1, 0, denom=-12)
        assert op.denom == 6
        assert op.terms == [
            (-3, self.E2, self.E1), (-6, E11, self.E1), (1, self.E2, PT1), (2, E11, PT1),
        ]
        (chunk,), (other,) = op.groups.values()
        assert chunk == (-3, ((1, self.E2), (2, E11))) and other[0] == 1
        assert other[1] is chunk[1]


def random_generators(test):
    """Hypothesis inputs for a random generator w^{a,b}_label at
    truncation N, with a basis pick."""
    test = settings(max_examples=80, deadline=None)(test)
    test = example(-1, 2, COH_PT, 4, 40)(test)
    return given(
        st.integers(-2, 2),
        st.integers(-3, 3),
        st.sampled_from(range(4)),
        st.integers(0, 4),
        st.integers(0, 10**4),
    )(test)


class TestFastRows:
    OPS = [
        ("sigma plus field", lambda: w_general(1, 1, COH_SP, 4)),
        ("vertex", lambda: w_general(-1, 2, COH_E, 4)),
        ("raising sigma", lambda: w_general(1, -2, COH_SM, 4)),
        ("small pt", lambda: w_general(0, 3, COH_PT, 4)),
    ]

    @staticmethod
    def assert_rows_match(op, basis, indices):
        """Integer rows divided by the operator's denominator equal the
        reference application on every given basis monomial."""
        table = RowTable(op, basis)
        for i in indices:
            want = apply(op, FockState.from_monomial(basis.monos[i]))
            got = basis.monomials(table[i])
            assert set(got) == set(want.terms)
            for target, coeff in got.items():
                assert want.terms[target] == Fraction(coeff, op.denom)

    @pytest.mark.parametrize("name,make", OPS, ids=[n for n, _ in OPS])
    def test_rows_match_operator_apply(self, name, make):
        basis = BasisIndex(4)
        self.assert_rows_match(make(), basis, range(basis.size))

    @random_generators
    def test_rows_match_random_generators(self, a, b, label, N, pick):
        assume((a, b) != (0, 0))
        op = w_general(a, b, label, N)
        basis = BasisIndex(N)
        self.assert_rows_match(op, basis, [pick % basis.size])

    @random_generators
    def test_row_table_reads_match_random_generators(self, a, b, label, N, pick):
        assume((a, b) != (0, 0))
        op = w_general(a, b, label, N)
        basis = BasisIndex(N)
        table = RowTable(op, basis)
        i = pick % basis.size
        want = apply(op, FockState.from_monomial(basis.monos[i]))
        got = basis.monomials(table[i])
        assert {t: Fraction(c, op.denom) for t, c in got.items()} == want.terms
        # the row is kept: a second read returns the same object
        assert list(table) == [i] and table[i] is table[i]

    def test_row_table_rejects_a_row_above_the_window(self):
        op = vertex_mode(1, 0, 2)
        basis = BasisIndex(3)
        table = RowTable(op, basis)
        inside = basis.count(2)
        assert all(isinstance(table[i], dict) for i in range(inside))
        with pytest.raises(ValueError, match="window 2"):
            table[inside]
        # no truncated row is left behind
        assert inside not in table and len(table) == inside

    def test_rows_number_images_above_the_basis(self):
        # w^{1,-2} raises the energy by 2: images of energy-3 monomials
        # are numbered after the enumerated basis
        op = w_general(1, -2, COH_E, 3)
        basis = BasisIndex(3)
        size = basis.size
        self.assert_rows_match(op, basis, range(size))
        assert len(basis.monos) > size
        assert all(basis.energy[u] > 3 for u in range(size, len(basis.monos)))

    def test_basis_index_numbers_monomials_above_depth(self):
        basis = BasisIndex(3)
        size = basis.size
        enumerated = list(basis.monos)
        counts = [basis.count(w) for w in range(-1, 7)]
        assert basis.number(((2, COH_PT), (1, COH_E))) == enumerated.index(
            ((2, COH_PT), (1, COH_E))
        )
        high = ((3, COH_E), (2, COH_PT))
        j = basis.number(high)
        assert j == size and basis.number(high) == j
        higher = ((4, COH_SP), (1, COH_SP))
        assert basis.number(higher) == size + 1
        assert basis.number(high) == j
        # the enumerated basis, its counts and its mode table reads stay put
        assert [basis.count(w) for w in range(-1, 7)] == counts
        assert basis.monos[: basis.count(basis.depth)] == enumerated
        assert basis.size == size == len(enumerated)
        assert basis.monomials({j: 7, 0: -1, size + 1: 2}) == {
            high: 7, (): -1, higher: 2,
        }
        # an integer row over a denominator reads as exact, reduced rationals
        over = basis.monomials({j: 7, 0: -1, size + 1: 2}, 6)
        assert over == {high: Fraction(7, 6), (): Fraction(-1, 6), higher: Fraction(1, 3)}
        assert all(type(c) is Fraction for c in over.values())
        assert self.mode_reads(basis) == self.mode_reads(BasisIndex(3))

    @staticmethod
    def mode_reads(basis):
        """Every nonzero entry of the mode tables with |n| <= 2 on the
        enumerated monomials, keyed by monomials."""
        monos = basis.monos
        reads = {}
        for n in (-2, -1, 1, 2):
            for label in range(4):
                table = ModeTable(basis, n, label)
                for i in range(basis.size):
                    hit = table[i]
                    if hit:
                        reads[n, label, monos[i]] = (monos[hit[0]], hit[1])
        return reads

    # a few indices and small coefficients, so products collide and cancel
    _row = st.dictionaries(
        st.integers(0, 5), st.integers(-2, 2).filter(bool), max_size=4
    )
    _table = st.lists(_row, min_size=6, max_size=6).map(
        lambda rows: dict(enumerate(rows))
    )

    @settings(max_examples=200, deadline=None)
    @given(_table, _table, st.integers(0, 6), st.sampled_from((1, -1)))
    def test_commutator_rows_match_row_by_row(self, rows_a, rows_b, n, eps):
        got = commutator_rows(rows_a, rows_b, range(n), eps)
        want = []
        for i in range(n):
            row = compose_rows(rows_a, rows_b[i])
            add_scaled(row, compose_rows(rows_b, rows_a[i]), eps)
            want.append(row)
        assert got == want
        assert all(v for row in got for v in row.values())
        # A A - A A cancels on every row
        assert commutator_rows(rows_a, rows_a, range(n), -1) == [{}] * n

    @settings(max_examples=100, deadline=None)
    @given(
        _table,
        _table,
        st.lists(st.integers(0, 5), max_size=6, unique=True).map(sorted),
        st.sampled_from((1, -1)),
    )
    def test_commutator_rows_on_sparse_indices(self, rows_a, rows_b, indices, eps):
        """A sparse index list gives the full pass's rows at those
        indices, in order."""
        full = commutator_rows(rows_a, rows_b, range(6), eps)
        got = commutator_rows(rows_a, rows_b, indices, eps)
        assert got == [full[i] for i in indices]

    def test_chains_compose(self):
        mono = ((2, COH_PT), (1, COH_SP), (1, COH_PT))
        # both annihilation modes contract: factors 1 and 2
        hit = annihilation_chain(mono, ((2, COH_E), (1, COH_E)))
        assert hit is not None
        factor, reduced = hit
        assert factor == 2 and reduced == ((1, COH_SP),)
        back = creation_chain(reduced, ((2, COH_PT),))
        assert back == (1, ((2, COH_PT), (1, COH_SP)))

    def test_annihilation_chain_missing_partner(self):
        assert annihilation_chain(((1, COH_SP),), ((1, COH_E),)) is None

    def test_field_slices_match_vertex_modes(self):
        # the image bound 5 holds every image of energy <= 3 + 2
        basis = BasisIndex(5)
        for m in (1, -1, 2):
            field = ChargedField(m, -2, 2, basis, 3, 5)
            for i, mono in enumerate(basis_monomials(3)):
                assert basis.monos[i] == mono
                for n in range(-2, 3):
                    op = vertex_mode(m, n, 3)
                    want = apply(op, FockState.from_monomial(mono))
                    got = basis.monomials(field[i][n])
                    assert set(got) == set(want.terms)
                    for t, c in got.items():
                        assert want.terms[t] == Fraction(c, field.denom)


class TestGeneratorWindows:
    """A generator built at a window w below the truncation holds every
    term that acts on a state of energy <= w: ``monodromy_s`` builds each
    generator at the energy of its input and the bracket engine at the
    truncation less the energy the generator raises."""

    TOP = 6

    @pytest.mark.parametrize(
        "label", (COH_E, COH_SP, COH_SM, COH_PT),
        ids=("E", "sigma+", "sigma-", "pt-symplectic_fermion-z_ddz"),
    )
    def test_rows_below_the_window_match_window_six(self, label):
        basis = BasisIndex(self.TOP)
        for a in (-2, -1, 1, 2):
            for b in range(-3, 4):
                full = RowTable(w_general(a, b, label, self.TOP), basis)
                for w in range(self.TOP):
                    small = RowTable(w_general(a, b, label, w), basis)
                    assert small.op.truncation == w
                    d_full, d_small = full.op.denom, small.op.denom
                    for i in range(basis.count(w)):
                        got, want = small[i], full[i]
                        # got / d_small == want / d_full, entry by entry
                        assert got.keys() == want.keys(), (a, b, w, basis.monos[i])
                        assert all(
                            v * d_full == want[u] * d_small for u, v in got.items()
                        ), (a, b, w, basis.monos[i])

    def test_bracket_engine_builds_below_the_truncation(self):
        engine = fock_verify._BracketEngine(self.TOP)
        for a in (-2, -1, 1, 2):
            for b in range(-3, 4):
                for label in (COH_E, COH_SP, COH_SM):
                    rows = engine.rows(a, b, label)
                    assert rows.op.truncation == self.TOP - max(0, -b)
