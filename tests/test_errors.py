"""The one interval check, ``errors.require``."""

import math

import numpy as np
import pytest

from cmbpipe import augment
from cmbpipe.errors import ConfigError, require
from cmbpipe.phantom import BackgroundSpec, PhantomSpec, generate_phantom
from cmbpipe.volume import Volume3D


@pytest.mark.parametrize(
    "bound, inside, outside",
    [
        ("[0, inf)", [0, 0.0, 5e-324, 1e308, 10**400], [-5e-324, -1, math.inf]),
        ("(0, inf)", [5e-324, 3], [0, 0.0, -0.0, math.inf]),
        ("(0, 1)", [0.5, np.float32(0.25)], [0.0, 1.0, 1]),
        ("(0, 1]", [1, 1.0], [0, 1.0000000000000002]),
        ("[1, inf)", [1, np.int64(2)], [0, 0.9999999999999999]),
        ("(-inf, inf)", [-1e308, 0, 1e308], [-math.inf, math.inf]),
    ],
)
def test_ends_and_non_finite_values(bound, inside, outside):
    for value in inside:
        assert require(value, bound, "x") is value
    for value in [*outside, math.nan, np.float64("nan")]:
        with pytest.raises(ConfigError):
            require(value, bound, "x")


def test_message_names_the_parameter_and_the_bound():
    with pytest.raises(ConfigError, match=r"^segment: tau must lie in \(0, 1\), got nan$"):
        require(math.nan, "(0, 1)", "segment: tau")


@pytest.mark.parametrize("value", [True, False])
def test_a_bool_is_not_a_number(value):
    """``isinstance(True, int)`` holds, but no parameter takes ``True`` as 1 or ``False`` as 0."""
    with pytest.raises(ConfigError, match=rf"x must lie in \[0, inf\), got {value}$"):
        require(value, "[0, inf)", "x")


@pytest.mark.parametrize(
    "call",
    [
        lambda v: augment.blur_volume(v, True),
        lambda v: augment.noise_add_mult(v, True, 0.0),
        lambda v: generate_phantom(PhantomSpec(dims=(8, 8, 8), background=BackgroundSpec(True, False, False))),
    ],
    ids=["blur_volume", "noise_add_mult", "BackgroundSpec"],
)
def test_library_calls_reject_a_bool(call):
    with pytest.raises(ConfigError):
        call(Volume3D(np.full((8, 8, 8), 100.0)))
