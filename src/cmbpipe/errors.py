"""Exception and warning types shared across the pipeline.

The CLI maps these onto exit codes: configuration problems exit 1, data
problems exit 2, anything else (broken internal invariants) exits 3.
:func:`require` is the one check of a parameter against an interval, and
:func:`is_json_number` the one check of a JSON value's number type.
"""

import math


class CMBPipeError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(CMBPipeError):
    """Invalid configuration or parameters (CLI exit code 1)."""


def require(value, bound: str, name: str):
    """``value`` if it is a finite number, not a bool, in ``bound``, an interval such as "[0, inf)" or "(0, 1]".

    Else a :class:`ConfigError` names the parameter ``name`` and the bound.
    """
    lo, hi = (float(end) for end in bound[1:-1].split(","))
    above = lo < value if bound[0] == "(" else lo <= value
    below = value < hi if bound[-1] == ")" else value <= hi
    if isinstance(value, bool) or not (above and below and (isinstance(value, int) or math.isfinite(value))):
        raise ConfigError(f"{name} must lie in {bound}, got {value!r}")
    return value


def is_json_number(value, kind: type = float) -> bool:
    """Whether ``value`` is a JSON number of ``kind``: an int for ``int``, an int or float for ``float``, never a bool."""
    return not isinstance(value, bool) and isinstance(value, int if kind is int else (int, float))


class DataError(CMBPipeError):
    """Invalid input data (CLI exit code 2)."""


class RejectedInputError(DataError):
    """Input violates an operation's precondition (non-finite values, out-of-range intensities)."""


class GeometryMismatchError(DataError):
    """Two grids that must share dims/spacing/origin do not."""


class VolumeLoadError(DataError):
    """A volume file could not be loaded. Subclasses name the field at fault."""


class BadMagicError(VolumeLoadError):
    """File is not NIfTI-1 (magic field mismatch)."""


class UnsupportedDatatypeError(VolumeLoadError):
    """On-disk datatype code outside the supported subset (uint8, int16, float32)."""


class TruncatedPayloadError(VolumeLoadError):
    """Payload shorter than dim/bitpix imply."""


class NonFiniteDataError(RejectedInputError):
    """A grid's values contain NaN or Inf."""


class QuantizationOverflowError(DataError):
    """Writing to an integer datatype would silently wrap values out of range."""


class ManifestError(DataError):
    """Manifest schema violation; message carries the offending line number."""


class PhantomSpecError(ConfigError):
    """Phantom specification is inconsistent (overlapping objects, bad ranges)."""


class DegenerateTestError(DataError):
    """A statistical test has no information to work with (e.g. all paired differences zero)."""


class DegenerateNormalizationWarning(UserWarning):
    """Percentile window collapsed; normalization returned an all-zero volume."""


class DegenerateAnnotationWarning(UserWarning):
    """An annotation was skipped because the putative CMB has no contrast."""


class AnnotationSkippedWarning(UserWarning):
    """An annotation was skipped (e.g. center outside the volume); others were still processed."""


class ObliqueOrientationWarning(UserWarning):
    """Header affine has a residual oblique rotation that was ignored at load."""


class DegenerateContingencyWarning(UserWarning):
    """A 2x2 table has a zero margin; the exact test is uninformative (p = 1)."""


class PairingMismatchWarning(UserWarning):
    """Group sizes differ; the paired test was skipped."""
