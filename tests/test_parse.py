"""Every public entry point that takes a parameter array parses it with
matkit._float_array: a string, boolean, None, complex value or NaN anywhere
in it is a ValueError naming the argument, raised before any warning.
The basic input rules, a count, omega's length l and a matrix's dimension
against a centre block, each read in one wording at every entry point."""

import copy
import sys
import warnings

import numpy as np
import pytest

from homscat import cli
from homscat.classify import (
    center_reversal,
    hessian_from_scattering,
    indefiniteness_ensemble,
    realize_signature,
    reversible_signature,
)
from homscat.flow import fundamental_solution
from homscat.majorize import hessian_bracket, indefinite_spectrum, majorizes, mirsky_matrix
from homscat.matkit import CenterBlock, inertia, matrix_exponential, standard_symplectic_form, symplectic_rotation
from homscat.models import HamiltonianSystem, ModelSpec

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


def nested_in(value, levels):
    for _ in range(levels):
        value = [value]
    return value


@pytest.mark.parametrize("entry_point", sorted(PARAMETER_ARRAYS))
def test_an_argument_nested_to_the_recursion_limit_is_named(entry_point):
    # the check of its entries recursed once per level and raised RecursionError;
    # then the message blamed unequal rows, although every row had equal length
    call, valid, name = PARAMETER_ARRAYS[entry_point]
    depth = sys.getrecursionlimit() + np.ndim(valid)
    assert raised_without_warning(call, nested_in(valid, sys.getrecursionlimit())) == (
        f"{name} is nested {depth} levels deep, beyond numpy's limit on array dimensions"
    )


@pytest.mark.parametrize(
    "omega, message",
    [
        (nested_in([1.0], 70), "omega is nested 71 levels deep, beyond numpy's limit on array dimensions"),
        ([[1.0, 2.0], [3.0]], "omega must be a list of numbers or of equal-length rows of them"),
        ([[1.0], [[2.0]]], "omega must be a list of numbers or of equal-length rows of them"),
    ],
    ids=["deep", "ragged", "ragged-in-depth"],
)
def test_nesting_beyond_numpy_is_told_from_ragged_rows(omega, message):
    assert raised_without_warning(CenterBlock, omega) == message


def command(*argv):
    """The CLI handler of argv, called directly, so that its ValueError reaches the caller."""
    args = cli.build_parser().parse_args([str(token) for token in argv])
    return cli._HANDLERS[args.command](args)


# The three basic input rules, each with one home in matkit and one wording:
# entry point -> (call on the count, the count's name in messages)
COUNTS = {
    "center_reversal": (center_reversal, "l"),
    "indefinite_spectrum": (lambda l: indefinite_spectrum(l, 1), "l"),
    "realize_signature": (lambda l: realize_signature(l, 1, [1.0], 0.01), "l"),
    "ModelSpec": (lambda l: ModelSpec(l=l, n_hyp=1, omega=[1.0]), "l"),
    "realize --l": (lambda l: command("realize", "--l", l, "--m", 1, "--omega", 1, "--eps", 0.01), "l"),
    "indefinite --l": (lambda l: command("indefinite", "--l", l, "--omega", 1, "--trials", 5, "--seed", 3), "l"),
    "demo-integrable --l": (lambda l: command("demo-integrable", "--l", l), "l"),
    "standard_symplectic_form": (standard_symplectic_form, "n"),
    "indefiniteness_ensemble": (lambda trials: indefiniteness_ensemble(CenterBlock([1.0]).D, trials, 0), "trials"),
    "indefinite --trials": (
        lambda trials: command("indefinite", "--l", 1, "--omega", 1, "--trials", trials, "--seed", 3), "trials"
    ),
    "fundamental_solution": (lambda d: fundamental_solution(lambda t: np.zeros((t.size, 1, 1)), 0.0, 1.0, d), "d"),
    "matrix document": (lambda dim: cli._mat_from_json({"dim": dim, "data": [1.0]}), "matrix dim"),
}


@pytest.mark.parametrize(
    "value, cause",
    [
        (0, "must be at least 1"),
        (-1, "must be at least 1"),
        # indefinite --l of 4000 digits blamed omega's length: "omega has 1 entries but --l is ..."
        (int("1" * 4000), "is an integer beyond the float range"),
    ],
    ids=["0", "-1", "4000-digits"],
)
@pytest.mark.parametrize("entry_point", sorted(COUNTS))
def test_a_count_is_checked_in_one_wording(entry_point, value, cause):
    # the retired wordings: "need at least one trial", "d must be a positive integer, got 0",
    # "the symplectic form needs at least one conjugate pair", "matrix dim must be at least 1, got 0"
    call, name = COUNTS[entry_point]
    assert raised_without_warning(call, value) == f"{name} {cause}"


# entry point -> (call on an integer argument, its name in messages)
INTEGERS = {
    "ModelSpec-l": (lambda l: ModelSpec(l=l, n_hyp=1, omega=[1.0]), "l"),
    "ModelSpec-n_hyp": (lambda n_hyp: ModelSpec(l=1, n_hyp=n_hyp, omega=[1.0]), "n_hyp"),
    "realize_signature-l": (lambda l: realize_signature(l, 1, [1.0], 0.01), "l"),
    "realize_signature-m": (lambda m: realize_signature(2, m, [1.0, 2.0], 0.01), "m"),
    "indefinite_spectrum-l": (lambda l: indefinite_spectrum(l, 1), "l"),
    "indefinite_spectrum-m": (lambda m: indefinite_spectrum(2, m), "m"),
    "indefiniteness_ensemble-trials": (lambda trials: indefiniteness_ensemble(BLOCK.D, trials, 1), "trials"),
    "indefiniteness_ensemble-seed": (lambda seed: indefiniteness_ensemble(BLOCK.D, 2, seed), "seed"),
    "center_reversal": (center_reversal, "l"),
    "standard_symplectic_form": (standard_symplectic_form, "n"),
    "fundamental_solution": COUNTS["fundamental_solution"],
    "matrix document": COUNTS["matrix document"],
}


@pytest.mark.parametrize("value", [1.5, True, "1", None], ids=["1.5", "True", "str", "None"])
@pytest.mark.parametrize("entry_point", sorted(INTEGERS))
def test_an_integer_argument_is_checked_in_one_wording(entry_point, value):
    # int() truncated them: m = 1.5 realized m = 1, 2.9 trials ran 2, and True counted as 1
    call, name = INTEGERS[entry_point]
    assert raised_without_warning(call, value) == f"{name} must be an integer, got {value!r}"


# entry point -> a call with l = 2 on omega
LENGTHS = {
    "realize_signature": lambda omega: realize_signature(2, 1, omega, 0.01),
    "ModelSpec": lambda omega: ModelSpec(l=2, n_hyp=1, omega=omega),
    "realize": lambda omega: command("realize", "--l", 2, "--m", 1, "--omega", ",".join(map(str, omega)), "--eps", 0.01),
    "indefinite": lambda omega: command(
        "indefinite", "--l", 2, "--omega", ",".join(map(str, omega)), "--trials", 5, "--seed", 3
    ),
    "demo-integrable": lambda omega: command("demo-integrable", "--l", 2, "--omega", ",".join(map(str, omega))),
}


@pytest.mark.parametrize("omega", [[1.0], [1.0, 2.0, 3.0]], ids=["short", "long"])
@pytest.mark.parametrize("entry_point", sorted(LENGTHS))
def test_omega_is_checked_against_l_in_one_wording(entry_point, omega):
    # the retired wordings: "omega must be a vector of length 2", "omega has 1 entries but --l is 2"
    message = raised_without_warning(LENGTHS[entry_point], omega)
    assert message == f"omega must have length l = 2, got {len(omega)}"


# entry point -> (call on a matrix, against the centre block of omega = (1, 2), the matrix's name)
DIMENSIONS = {
    "hessian_from_scattering": (lambda M: hessian_from_scattering(M, BLOCK.D), "scattering matrix"),
    "reversible_signature": (lambda M: reversible_signature(M, BLOCK), "scattering matrix"),
    "hessian_bracket": (lambda M: hessian_bracket(BLOCK, M), "bracket argument"),
}


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("entry_point", sorted(DIMENSIONS))
def test_a_matrix_is_checked_against_the_centre_block_in_one_wording(entry_point, n):
    # the retired wording: "bracket argument has dimension 2, centre block expects 4"
    call, name = DIMENSIONS[entry_point]
    assert raised_without_warning(call, np.eye(n)) == f"{name} has dimension {n} but the centre block 4"


# entry point -> (call on an argument of the wrong shape, that argument, the message)
SHAPES = {
    "majorizes": (lambda v: majorizes(v, v), [], "majorization needs two nonempty vectors"),
    "symplectic_rotation": (
        symplectic_rotation, [], "theta must be a nonempty vector of angles or a (k, n) array of them"
    ),
    "HamiltonianSystem": (
        HamiltonianSystem(ModelSpec(l=1, n_hyp=1, omega=[1.0])).hamiltonian,
        [0.0, 0.0, 0.0],
        "state must have dimension 4, got (3,)",
    ),
}


@pytest.mark.parametrize("entry_point", sorted(SHAPES))
def test_an_argument_of_the_wrong_shape_is_named(entry_point):
    call, argument, message = SHAPES[entry_point]
    assert raised_without_warning(call, argument) == message
