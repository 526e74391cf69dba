"""Every public entry point that takes a parameter array parses it with
matkit._float_array: a string, boolean, None, complex value or NaN anywhere
in it is a ValueError naming the argument, raised before any warning."""

import copy
import warnings

import numpy as np
import pytest

from homscat.classify import (
    hessian_from_scattering,
    indefiniteness_ensemble,
    realize_signature,
    reversible_signature,
)
from homscat.majorize import hessian_bracket, majorizes, mirsky_matrix
from homscat.matkit import CenterBlock, inertia, matrix_exponential, symplectic_rotation
from homscat.models import ModelSpec

I2 = [[1.0, 0.0], [0.0, 1.0]]
ZERO4 = np.zeros((4, 4)).tolist()
BLOCK = CenterBlock([1.0, 2.0])

# entry point -> (call on the argument, a valid argument, the argument's name in messages)
PARAMETER_ARRAYS = {
    "CenterBlock": (CenterBlock, [1.0, 2.0], "omega"),
    "ModelSpec-omega": (lambda x: ModelSpec(l=2, n_hyp=1, omega=x), [1.0, 2.0], "omega"),
    "ModelSpec-C": (lambda x: ModelSpec(l=1, n_hyp=1, omega=[1.0], C=x), [1.0, 0.0, 0.0, 1.0], "C"),
    "realize_signature": (lambda x: realize_signature(2, 1, x, 0.01), [1.0, 2.0], "omega"),
    "hessian_from_scattering-sigma": (
        lambda x: hessian_from_scattering(x, CenterBlock([1.0]).D), I2, "scattering matrix"
    ),
    "hessian_from_scattering-D": (lambda x: hessian_from_scattering(np.eye(2), x), I2, "centre diagonal"),
    "indefiniteness_ensemble": (lambda x: indefiniteness_ensemble(x, 1, 0), I2, "centre diagonal"),
    "inertia": (inertia, I2, "inertia input"),
    "matrix_exponential": (matrix_exponential, I2, "matrix"),
    "majorizes-a": (lambda x: majorizes(x, [1.0, -1.0]), [0.0, 0.0], "majorization vector a"),
    "majorizes-b": (lambda x: majorizes([0.0, 0.0], x), [1.0, -1.0], "majorization vector b"),
    "mirsky_matrix-diagonal": (lambda x: mirsky_matrix(x, [1.0, -1.0]), [0.0, 0.0], "Mirsky diagonal"),
    "mirsky_matrix-spectrum": (lambda x: mirsky_matrix([0.0, 0.0], x), [1.0, -1.0], "Mirsky spectrum"),
    "symplectic_rotation": (symplectic_rotation, [0.1, 0.2], "theta"),
    "reversible_signature": (lambda x: reversible_signature(x, CenterBlock([1.0])), I2, "scattering matrix"),
    "hessian_bracket": (lambda x: hessian_bracket(BLOCK, x), ZERO4, "bracket argument"),
}

# entry -> the cause the message states
BAD_ENTRIES = {
    "string": ("1", "entries must be numbers, got '1'"),
    "boolean": (True, "entries must be numbers, got True"),
    "None": (None, "entries must be numbers, got None"),
    "complex": (1j, "entries must be numbers, got 1j"),
    "NaN": (np.nan, "has a non-finite entry nan at index 0"),
}


def with_first_entry(value, entry):
    """A copy of the nested list value whose first number is entry."""
    value = copy.deepcopy(value)
    row = value
    while isinstance(row[0], list):
        row = row[0]
    row[0] = entry
    return value


def raised_without_warning(call, argument) -> str:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as raised:
            call(argument)
    assert caught == []
    return str(raised.value)


@pytest.mark.parametrize("bad", sorted(BAD_ENTRIES))
@pytest.mark.parametrize("entry_point", sorted(PARAMETER_ARRAYS))
def test_an_entry_that_is_not_a_finite_number_is_named(entry_point, bad):
    call, valid, name = PARAMETER_ARRAYS[entry_point]
    entry, cause = BAD_ENTRIES[bad]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(valid)  # so the one entry alone makes the call fail
    message = raised_without_warning(call, with_first_entry(valid, entry))
    assert message.startswith(f"{name} ")
    assert cause in message


# entry point -> an argument whose asymmetry is beyond the float range: a 2 x 2
# matrix, or for the bracket of BLOCK the leading block of a 4 x 4 one
ASYMMETRIC_2 = np.array([[1.0, 1e308], [-1e308, 1.0]])
ASYMMETRIC_4 = np.block([[ASYMMETRIC_2, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]])
ASYMMETRIC = {
    "inertia": ASYMMETRIC_2,
    "hessian_bracket": ASYMMETRIC_4,
}


@pytest.mark.parametrize("entry_point", sorted(ASYMMETRIC))
def test_asymmetry_beyond_the_float_range_is_named(entry_point):
    # M - M.T overflowed, so the check raised a RuntimeWarning instead of naming the asymmetry
    call, _, name = PARAMETER_ARRAYS[entry_point]
    assert raised_without_warning(call, ASYMMETRIC[entry_point]) == f"{name} is not symmetric (asymmetry inf)"


def test_complex_hermitian_inertia_is_rejected():
    # its imaginary part was dropped with a ComplexWarning, and the inertia of
    # a matrix with eigenvalues +-1 came out (0, 0, 2)
    message = raised_without_warning(inertia, np.array([[0, 1j], [-1j, 0]]))
    assert message == "inertia input entries must be numbers, got 0j"


@pytest.mark.parametrize("array", [np.array([1.0, 2.0], dtype=complex), np.array(["1", "2"]), np.array([True, False])])
def test_arrays_of_non_numbers_are_rejected_like_their_lists(array):
    message = raised_without_warning(CenterBlock, array)
    assert message == f"omega entries must be numbers, got {array.tolist()[0]!r}"
