"""Exact Fock-space model over the four-class curve cohomology.

Submodules: labels (basis classes, pairing, star-product table), states
(Nakajima monomial states), operators (the doubly graded generators as
normal-ordered term sums), fastapply (their integer action rows),
monodromy (the two mapping-class actions), verify (bracket reports and
sweeps).
"""
