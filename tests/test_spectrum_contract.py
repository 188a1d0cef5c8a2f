"""The spectrum contract of the functions that read the paper's bounds off a
spectrum: any order, finite and positive entries, a degree in 0..n-1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyprec import (
    IdentityPreconditioner,
    cutting_preconditioner,
    gamma_of_polynomial,
    proposition_bounds,
    sympoly_coefficients,
    xi_table,
    xi_tau,
)
from polyprec.preconditioners import cutting_excess, sandwich_slack


def sympoly_of(spectrum, tau):
    """The exact degree-tau trace-recursion member of a spectrum."""
    lam = np.asarray(spectrum, dtype=float)
    return sympoly_coefficients([np.sum(lam**k) for k in range(1, tau + 1)], tau)


def readings(spectrum, tau, sympoly, cutting):
    """What each reader of a spectrum gives at degree tau; the readers that
    judge a polynomial judge the given sympoly and cutting members."""
    table = xi_table(spectrum, tau)
    return {
        "xi_tau": xi_tau(spectrum, tau),
        "proposition_bounds": proposition_bounds(spectrum, tau),
        "cutting_preconditioner": tuple(cutting_preconditioner(spectrum, tau).coeffs),
        "sandwich_slack": sandwich_slack(spectrum, sympoly, tau),
        "cutting_excess": cutting_excess(spectrum, cutting, tau),
        "gamma_of_polynomial": gamma_of_polynomial(cutting, spectrum),
        "xi_table": (table.rows, table.max_slack),
    }


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_readings_do_not_depend_on_the_order(data):
    spectrum = data.draw(
        st.lists(st.floats(min_value=0.01, max_value=1e3), min_size=2, max_size=12)
    )
    tau = data.draw(st.integers(0, len(spectrum) - 1))
    shuffled = data.draw(st.permutations(spectrum))
    members = sympoly_of(spectrum, tau), cutting_preconditioner(spectrum, tau)
    assert readings(shuffled, tau, *members) == readings(spectrum, tau, *members)


def test_sandwich_of_a_correct_build_reads_zero_in_either_order():
    # tr(B) - s on the spectrum (4, 2, 1): lam * p(lam) is 12, 10 and 6,
    # exactly the sandwich's ends 12 and 6.
    spectrum = np.array([4.0, 2.0, 1.0])
    prec = sympoly_of(spectrum, 1)
    assert sandwich_slack(spectrum[::-1], prec, 1) == sandwich_slack(spectrum, prec, 1) == 0.0


# Each reader of a spectrum, called at a degree.
READERS = {
    "xi_tau": xi_tau,
    "proposition_bounds": proposition_bounds,
    "cutting_preconditioner": cutting_preconditioner,
    "sandwich_slack": lambda s, tau: sandwich_slack(s, IdentityPreconditioner(), tau),
    "cutting_excess": lambda s, tau: cutting_excess(s, IdentityPreconditioner(), tau),
    "gamma_of_polynomial": lambda s, tau: gamma_of_polynomial(IdentityPreconditioner(), s),
    "xi_table": xi_table,
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize(
    "spectrum",
    [[], [1.0, 0.0], [1.0, -1.0], [np.nan, 1.0], [np.inf, 1.0]],
    ids=["empty", "zero", "negative", "nan", "inf"],
)
def test_spectrum_must_be_finite_and_positive(reader, spectrum):
    with pytest.raises(ValueError, match="^spectrum must be finite and positive$"):
        READERS[reader](spectrum, 0)


@pytest.mark.parametrize(
    "reader", ["xi_tau", "proposition_bounds", "cutting_preconditioner", "sandwich_slack",
               "cutting_excess"]
)
@pytest.mark.parametrize("tau", [-1, 3])
def test_degree_must_lie_in_range(reader, tau):
    with pytest.raises(ValueError, match=f"^tau={tau} out of range for spectrum of size 3$"):
        READERS[reader]([3.0, 2.0, 1.0], tau)
