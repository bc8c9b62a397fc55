"""MRI-specific stochastic training-time transforms.

Eight transforms: elastic deformation, bias field, rotation, flipping,
blurring, motion ghosting, Gibbs ringing, and additive-multiplicative
noise. Spatial transforms move image and mask identically (trilinear vs
nearest-neighbor); intensity transforms touch the image only. Composition
order is fixed spatial -> intensity: intensity artifacts are
acquisition-stage effects applied to the already-positioned anatomy.

Randomness is counter-based: each transform draws from a generator keyed
by (master_seed, scan_id, transform index), so outputs are independent of
thread count and call order, and the returned parameter record replays any
output exactly.

The elastic warp, blur, motion ghosting and Gibbs ringing run on blocks of
planes that the threads of :func:`volume.run_blocks` share, each block
written into one preallocated output. Every output voxel gets the same
arithmetic as in the whole-volume call, so the bytes do not depend on the
thread count or on the block size. Rotation stays one
``affine_transform`` call: split into blocks of output planes, it moved
about a third of the voxels by up to 3e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import ndimage

from .errors import ConfigError, is_json_number, require
from .rng import derive_rng, derive_seed
from .volume import LabelMask, Volume3D, extrema, plane_blocks, require_same_geometry, run_blocks

AXES = (0, 1, 2)


# ---------------------------------------------------------------------------
# Individual transforms
# ---------------------------------------------------------------------------

def _voxel_sigma(sigma_mm: float, spacing) -> tuple[float, float, float]:
    return tuple(sigma_mm / s for s in spacing)


def _warp(v: Volume3D, m: LabelMask, disp: np.ndarray):
    """Sample image (linear) and mask (nearest) at each voxel's index plus ``disp`` (3, *dims), in voxels.

    Runs over blocks of output planes: each block adds its own indices to its
    part of ``disp``, so no whole-volume coordinate array is built.
    """
    fill = float(extrema(v.intensities)[0])
    out = np.empty(v.dims)
    lab = np.empty(m.dims, dtype=m.labels.dtype)

    def warp(b: tuple) -> None:
        at = np.indices(out[b].shape, dtype=np.float32)
        at[0] += b[0].start
        at += disp[(slice(None),) + b]
        ndimage.map_coordinates(v.intensities, at, out[b], order=1, mode="constant", cval=fill)
        ndimage.map_coordinates(m.labels, at, lab[b], order=0, mode="constant", cval=0)

    run_blocks(warp, plane_blocks(v.dims, 0))
    return v.with_array(out), m.with_array(lab)


def _tensor_product(coeffs: np.ndarray, w0: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """``sum coeffs[a, b, c] * w0[i, a] * w1[j, b] * w2[k, c]`` over a, b, c, one axis at a time."""
    t = w1 @ (coeffs @ w2.T)  # (a, j, k)
    return (w0 @ t.reshape(len(t), -1)).reshape(len(w0), len(w1), len(w2))


# map_coordinates(mode="nearest") edge-pads its input by this much before prefiltering
_SPLINE_PAD = 12


def _bspline_weights(n: int, grid_points: int) -> tuple[np.ndarray, slice]:
    """Cubic B-spline weights that sample a ``grid_points`` control axis at ``n`` voxels.

    Voxel i sits at control coordinate ``float32(i) * float32((grid_points - 1) / (n - 1))``.
    Returns the (n, k) weight matrix and the slice of the padded control axis
    that its k columns read.
    """
    x = np.arange(n, dtype=np.float32) * np.float32((grid_points - 1) / max(n - 1, 1))
    x = x.astype(np.float64) + _SPLINE_PAD
    knot = np.floor(x)
    y = x - knot
    z = 1.0 - y
    w = np.empty((n, 4))
    w[:, 0] = z * z * z / 6.0
    w[:, 1] = (y * y * (y - 2.0) * 3.0 + 4.0) / 6.0
    w[:, 2] = (z * z * (z - 2.0) * 3.0 + 4.0) / 6.0
    w[:, 3] = 1.0 - w[:, 0] - w[:, 1] - w[:, 2]
    first = knot.astype(np.intp) - 1  # the four control points read are first .. first + 3
    lo, hi = first.min(), first.max() + 4
    weights = np.zeros((n, hi - lo))
    weights[np.arange(n)[:, None], first[:, None] - lo + np.arange(4)] = w
    return weights, slice(lo, hi)


def _bspline_field(control: np.ndarray, dims) -> np.ndarray:
    """Each control component of ``control`` (3, *grid) interpolated at every voxel, float32 (3, *dims).

    Equals ``map_coordinates(control[a], sample, order=3, mode="nearest")`` at
    the voxel positions of ``_bspline_weights``, evaluated as a tensor product
    of three 1-D weight matrices (the free-form-deformation form).
    """
    weights, used = zip(*(_bspline_weights(n, g) for n, g in zip(dims, control.shape[1:])))
    field = np.empty(control.shape[:1] + tuple(dims), dtype=np.float32)
    for a, component in enumerate(control):
        padded = np.pad(component, _SPLINE_PAD, mode="edge")
        coeffs = ndimage.spline_filter(padded, order=3, output=np.float64, mode="nearest")[used]
        field[a] = _tensor_product(coeffs, *weights)
    return field


def elastic_deform(
    v: Volume3D,
    m: LabelMask,
    control_spacing_mm: float = 32.0,
    displacement_mm: float = 3.0,
    seed: int = 0,
):
    """Smooth random displacement field: a cubic B-spline on a random control grid.

    The field is scaled so its largest displacement vector has length
    ``displacement_mm`` exactly.
    """
    require_same_geometry(v, m, "image and mask")
    require(control_spacing_mm, "(0, inf)", "control_spacing_mm")
    require(displacement_mm, "[0, inf)", "displacement_mm")
    dims = v.dims
    if displacement_mm == 0.0:
        return v, m, {"displacement_mm": 0.0}

    rng = derive_rng(seed, "elastic")
    grid_shape = tuple(
        max(2, int(np.ceil((n - 1) * s / control_spacing_mm)) + 1) for n, s in zip(dims, v.spacing)
    )
    control = rng.standard_normal((3,) + grid_shape).astype(np.float32)
    disp = _bspline_field(control, dims)
    # the longest displacement vector, found a block of planes at a time
    blocks = plane_blocks(dims, 0)
    norm = max(np.sqrt(np.sum(disp[(slice(None),) + b] ** 2, axis=0)).max() for b in blocks)
    if norm > 0:
        disp *= displacement_mm / norm
    # displacement is in mm; convert to voxel units per axis
    for a in range(3):
        disp[a] /= v.spacing[a]
    warped = _warp(v, m, disp)
    return (*warped, {"displacement_mm": float(displacement_mm)})


def _rotation_matrix(angles_deg) -> np.ndarray:
    ax, ay, az = np.deg2rad(angles_deg)
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rx @ ry @ rz


def rotate_volume(v: Volume3D, m: LabelMask, angles_deg):
    """Rotate rigidly in mm about the grid center; trilinear for the image, nearest for the mask.

    An output voxel index ``i`` samples the input at ``S^-1 R^T S (i - c) + c``,
    ``S`` the diagonal spacing and ``c`` the center index, so an anisotropic
    grid turns as the world does. The matrix is ``R^T`` times the spacing
    ratios, which are exactly 1 on an isotropic grid.
    """
    require_same_geometry(v, m, "image and mask")
    rot = _rotation_matrix(angles_deg)
    center = (np.asarray(v.dims, dtype=np.float64) - 1.0) / 2.0
    spacing = np.asarray(v.spacing)
    inv = rot.T * (spacing[None, :] / spacing[:, None])
    offset = center - inv @ center
    fill = float(extrema(v.intensities)[0])
    out = ndimage.affine_transform(v.intensities, inv, offset=offset, order=1, mode="constant", cval=fill)
    lab = ndimage.affine_transform(m.labels, inv, offset=offset, order=0, mode="constant", cval=0)
    return v.with_array(out), m.with_array(lab)


def flip_volume(v: Volume3D, m: LabelMask, axes):
    """Mirror along the given axes; an involution for any fixed axis set."""
    require_same_geometry(v, m, "image and mask")
    axes = tuple(int(a) for a in axes)
    if any(a not in AXES for a in axes) or len(set(axes)) != len(axes):
        raise ConfigError(f"flip axes must be distinct values in {AXES}, got {axes}")
    if not axes:
        return v, m
    return v.with_array(np.flip(v.intensities, axes)), m.with_array(np.flip(m.labels, axes))


def bias_field(v: Volume3D, order: int = 3, amplitude: float = 0.2, seed: int = 0) -> Volume3D:
    """Multiplicative low-order polynomial field, spatial mean exactly 1."""
    require(order, "[1, inf)", "bias field order")
    require(amplitude, "[0, inf)", "bias field amplitude")
    if amplitude == 0.0:
        return v
    rng = derive_rng(seed, "bias")
    coeffs = np.zeros((order + 1,) * 3)
    for p in range(order + 1):
        for q in range(order + 1 - p):
            for r in range(order + 1 - p - q):
                if p == q == r == 0:
                    continue
                coeffs[p, q, r] = rng.standard_normal()
    powers = [np.linspace(-1.0, 1.0, n)[:, None] ** np.arange(order + 1) for n in v.dims]
    fld = _tensor_product(coeffs, *powers)
    # 1 + amplitude * fld / peak, then / mean, then * intensities, all in the field's buffer
    lo, hi = extrema(fld)
    peak = max(hi, -lo)
    if peak > 0:
        fld *= amplitude
        fld /= peak
        fld += 1.0
    else:
        fld = np.ones(v.dims)
    fld /= fld.mean()
    fld *= v.intensities
    return v.with_array(fld)


def blur_volume(v: Volume3D, sigma_mm: float) -> Volume3D:
    """Gaussian blur of ``sigma_mm``, the same bytes as ``ndimage.gaussian_filter``.

    ``gaussian_filter`` runs one 1-D pass per axis, axis 0 first, each into
    its output in place. Here the axis-0 pass runs over blocks across axis 1
    and the axis-1 and axis-2 passes over blocks across axis 0, all in one
    output buffer.
    """
    require(sigma_mm, "[0, inf)", "blur sigma_mm")
    if sigma_mm == 0.0:
        return v
    sigma = _voxel_sigma(sigma_mm, v.spacing)
    src, out = v.intensities, np.empty(v.dims)

    def filter_axis_0(b: tuple) -> None:
        ndimage.gaussian_filter(src[b], sigma[:1], output=out[b], axes=(0,))

    def filter_axes_1_2(b: tuple) -> None:
        ndimage.gaussian_filter(out[b], sigma[1:], output=out[b], axes=(1, 2))

    run_blocks(filter_axis_0, plane_blocks(v.dims, 1))
    run_blocks(filter_axes_1_2, plane_blocks(v.dims, 0))
    return v.with_array(out)


def motion_ghost(v: Volume3D, n_ghosts: int, intensity: float, axis: int = 2) -> Volume3D:
    """Attenuate every n_ghosts-th k-space line along the phase-encode axis.

    The DC line is never modulated, so the volume mean is preserved. A delta
    input turns into n_ghosts equally spaced replicas along ``axis``. Each
    block of planes across another axis is transformed, scaled and inverted
    in one complex buffer.
    """
    require(n_ghosts, "[2, inf)", "n_ghosts")
    require(intensity, "[0, 1]", "ghost intensity")
    if axis not in AXES:
        raise ConfigError(f"axis must be in {AXES}, got {axis}")
    if intensity == 0.0:
        return v
    n = v.dims[axis]
    modulated = np.arange(n) % n_ghosts == 0
    modulated[0] = False  # DC excluded by construction
    shape = [1, 1, 1]
    shape[axis] = n
    gain = np.where(modulated, 1.0 - intensity, 1.0).reshape(shape)
    src, out = v.intensities, np.empty(v.dims)

    def ghost(b: tuple) -> None:
        lines = src[b].astype(np.complex128)
        np.fft.fft(lines, axis=axis, out=lines)
        lines *= gain
        out[b] = np.fft.ifft(lines, axis=axis, out=lines).real

    run_blocks(ghost, plane_blocks(v.dims, 1 if axis == 0 else 0))
    return v.with_array(out)


def _kept_frequencies(n: int, retain_fraction: float) -> np.ndarray:
    """Indices, in FFT order, of the ``round(retain_fraction * n)`` frequencies centred after ``fftshift``."""
    k = max(1, int(round(retain_fraction * n)))
    return np.r_[0 : k - k // 2, n - k // 2 : n]


def gibbs_ringing(v: Volume3D, retain_fraction: float) -> Volume3D:
    """Truncate the outer k-space per axis (centered low-pass box) and invert.

    The same bytes as ``ifftn(ifftshift(where(box, fftshift(fftn(x)), 0))).real``.
    ``fftn`` and ``ifftn`` transform one axis at a time, the last axis
    first, so only the lines that reach the box are transformed: forward,
    axis 2 on every line, then axis 1 on the kept columns, then axis 0 on
    the kept rows; inverse, axes 2, 1 and 0 again, zero-padding one axis at
    a time. Three passes over blocks of planes, each across an axis that
    its transforms do not run along.
    """
    require(retain_fraction, "(0, 1]", "retain_fraction")
    if retain_fraction == 1.0:
        return v
    n0, n1, n2 = v.dims
    k0, k1, k2 = (_kept_frequencies(n, retain_fraction) for n in v.dims)
    src, out = v.intensities, np.empty(v.dims)
    # ``low`` (n0, k1, k2) holds the spectrum after the forward axes 2 and 1, ``high`` (k0, k1, n2) the
    # box after the forward axis 0 and the inverse axis 2. Both are views of one buffer with one row per
    # kept axis-1 frequency, and the middle pass reads a block's rows of ``low`` before it writes them.
    buf = np.empty((len(k1), max(n0 * len(k2), len(k0) * n2)), dtype=np.complex128)
    low = buf[:, : n0 * len(k2)].reshape(len(k1), n0, len(k2)).transpose(1, 0, 2)
    high = buf[:, : len(k0) * n2].reshape(len(k1), len(k0), n2).transpose(1, 0, 2)

    def forward(b: tuple) -> None:  # across axis 0
        lines = src[b].astype(np.complex128)
        np.fft.fft(lines, axis=2, out=lines)
        cols = lines[:, :, k2]
        del lines
        np.fft.fft(cols, axis=1, out=cols)
        low[b] = cols[:, k1]

    def middle(b: tuple) -> None:  # across axis 1
        box = np.fft.fft(low[b], axis=0)[k0]
        lines = np.zeros(box.shape[:2] + (n2,), dtype=np.complex128)
        lines[:, :, k2] = box
        high[b] = np.fft.ifft(lines, axis=2, out=lines)

    def inverse(b: tuple) -> None:  # across axis 2
        part = high[b]
        rows = np.zeros((len(k0), n1, part.shape[2]), dtype=np.complex128)
        rows[:, k1] = part
        np.fft.ifft(rows, axis=1, out=rows)
        planes = np.zeros((n0,) + rows.shape[1:], dtype=np.complex128)
        planes[k0] = rows
        out[b] = np.fft.ifft(planes, axis=0, out=planes).real

    run_blocks(forward, plane_blocks(v.dims, 0))
    run_blocks(middle, plane_blocks((n0, len(k1), n2), 1))
    run_blocks(inverse, plane_blocks(v.dims, 2))
    return v.with_array(out)


def noise_add_mult(v: Volume3D, sigma_add: float, sigma_mult: float, seed: int = 0) -> Volume3D:
    """I * (1 + eps_mult) + eps_add with independent Gaussian fields, each applied in its draw's buffer."""
    require(sigma_add, "[0, inf)", "sigma_add")
    require(sigma_mult, "[0, inf)", "sigma_mult")
    if sigma_add == 0.0 and sigma_mult == 0.0:
        return v
    rng = derive_rng(seed, "noise")
    out = v.intensities
    if sigma_mult > 0:
        fld = rng.normal(0.0, sigma_mult, v.dims)
        fld += 1.0
        fld *= out
        out = fld
    if sigma_add > 0:
        fld = rng.normal(0.0, sigma_add, v.dims)
        fld += out
        out = fld
    return v.with_array(out)


# ---------------------------------------------------------------------------
# Spec-driven application: one table row per transform
# ---------------------------------------------------------------------------

class Transform(NamedTuple):
    """One row of the augmentation table.

    ``params`` maps each spec key (after "enabled" and "probability", which
    every row has) to ``(default, bound)``. A bound is an interval such as
    "(0, 1]", applied to a number or to both ends of a pair, which must also be
    in order; or a tuple of choices, for a list of distinct members.
    """

    name: str
    params: dict
    draw: Callable  # (rng, settings, field_seed) -> recorded params, drawing from rng in a fixed order
    replay: Callable  # (volume, mask, recorded params) -> (volume, mask)


SWITCH = {"enabled": (True, None), "probability": (0.5, "[0, 1]")}

# Fixed composition order: spatial transforms first, then intensity. Each step
# names its transform function at call time, so a wrapped module attribute is
# the one that runs.
TRANSFORMS = (
    Transform(
        "elastic",
        {"control_spacing_mm": (32.0, "(0, inf)"), "max_displacement_mm": (3.0, "[0, inf)")},
        lambda rng, s, seed: {
            "control_spacing_mm": s["control_spacing_mm"],
            "displacement_mm": float(rng.uniform(0.0, s["max_displacement_mm"])),
            "seed": seed,
        },
        lambda v, m, p: elastic_deform(v, m, p["control_spacing_mm"], p["displacement_mm"], seed=p["seed"])[:2],
    ),
    Transform(
        "rotation",
        {"max_degrees": (10.0, "[0, inf)")},
        lambda rng, s, seed: {"angles_deg": [float(a) for a in rng.uniform(-s["max_degrees"], s["max_degrees"], 3)]},
        lambda v, m, p: rotate_volume(v, m, p["angles_deg"]),
    ),
    Transform(
        "flip",
        {"axes": (AXES, AXES)},
        lambda rng, s, seed: {"axes": [int(a) for a in s["axes"] if rng.uniform() < 0.5]},
        lambda v, m, p: flip_volume(v, m, tuple(p["axes"])),
    ),
    Transform(
        "bias_field",
        {"order": (3, "[1, inf)"), "max_amplitude": (0.2, "[0, inf)")},
        lambda rng, s, seed: {
            "order": s["order"],
            "amplitude": float(rng.uniform(0.0, s["max_amplitude"])),
            "seed": seed,
        },
        lambda v, m, p: (bias_field(v, p["order"], p["amplitude"], seed=p["seed"]), m),
    ),
    Transform(
        "blur",
        {"sigma_range_mm": ((0.5, 1.5), "[0, inf)")},
        lambda rng, s, seed: {"sigma_mm": float(rng.uniform(*s["sigma_range_mm"]))},
        lambda v, m, p: (blur_volume(v, p["sigma_mm"]), m),
    ),
    Transform(
        "motion_ghost",
        {"n_ghosts_range": ((2, 4), "[2, inf)"), "max_intensity": (0.3, "[0, 1]")},
        lambda rng, s, seed: {
            "n_ghosts": int(rng.integers(s["n_ghosts_range"][0], s["n_ghosts_range"][1] + 1)),
            "intensity": float(rng.uniform(0.0, s["max_intensity"])),
            "axis": int(rng.integers(0, 3)),
        },
        lambda v, m, p: (motion_ghost(v, p["n_ghosts"], p["intensity"], p["axis"]), m),
    ),
    Transform(
        "gibbs_ringing",
        {"retain_range": ((0.6, 1.0), "(0, 1]")},
        lambda rng, s, seed: {"retain_fraction": float(rng.uniform(*s["retain_range"]))},
        lambda v, m, p: (gibbs_ringing(v, p["retain_fraction"]), m),
    ),
    Transform(
        "noise",
        {"max_additive_sigma": (0.05, "[0, inf)"), "max_multiplicative_sigma": (0.05, "[0, inf)")},
        lambda rng, s, seed: {
            "sigma_add": float(rng.uniform(0.0, s["max_additive_sigma"])),
            "sigma_mult": float(rng.uniform(0.0, s["max_multiplicative_sigma"])),
            "seed": seed,
        },
        lambda v, m, p: (noise_add_mult(v, p["sigma_add"], p["sigma_mult"], seed=p["seed"]), m),
    ),
)
TRANSFORM_ORDER = tuple(t.name for t in TRANSFORMS)


def _checked(where: str, default, bound, value):
    """``value`` if it has the JSON type of ``default`` and lies within ``bound``; a list becomes a tuple."""
    if isinstance(default, tuple):
        pair = isinstance(bound, str)
        if not isinstance(value, (list, tuple)) or (pair and len(value) != len(default)):
            raise ConfigError(f"{where} must be a list of {len(default) if pair else 'distinct'} values, got {value!r}")
        value = tuple(_checked(where, default[0], bound if pair else None, x) for x in value)
        if pair and value[0] > value[1]:
            raise ConfigError(f"{where} must be in order (low, high), got {list(value)}")
        if not pair and (len(set(value)) < len(value) or not set(value) <= set(bound)):
            raise ConfigError(f"{where} must hold distinct values out of {list(bound)}, got {list(value)}")
        return value
    if isinstance(default, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok, kind = is_json_number(value, int), "an integer"
    else:
        ok, kind = is_json_number(value, float), "a number"
    if not ok:
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    return value if bound is None else require(value, bound, where)


@dataclass(init=False)
class AugmentSpec:
    """Checked settings for every transform: ``settings[name][key]``, every default filled in.

    ``AugmentSpec(master_seed, **sections)`` takes the spec JSON's sections
    (one per transform name, each a subset of that row's keys) and rejects
    an unknown section or key, a value of the wrong JSON type, and a value
    outside its bound.
    """

    settings: dict
    master_seed: int

    def __init__(self, master_seed: int = 0, **sections):
        unknown = sorted(set(sections) - set(TRANSFORM_ORDER))
        if unknown:
            known = ", ".join(TRANSFORM_ORDER)
            raise ConfigError(f"augment spec: unknown section(s) {', '.join(unknown)} (known: {known})")
        self.master_seed = _checked("augment spec: master_seed", 0, None, master_seed)
        self.settings = {}
        for t in TRANSFORMS:
            given, table = sections.get(t.name, {}), {**SWITCH, **t.params}
            if not isinstance(given, dict):
                raise ConfigError(f"augment spec: section {t.name} must be an object, got {given!r}")
            unknown = sorted(set(given) - set(table))
            if unknown:
                raise ConfigError(f"augment spec: unknown key(s) {', '.join(unknown)} in {t.name}")
            self.settings[t.name] = {
                key: _checked(f"augment spec: {t.name}.{key}", default, bound, given.get(key, default))
                for key, (default, bound) in table.items()
            }

    @classmethod
    def disabled(cls, master_seed: int = 0) -> "AugmentSpec":
        return cls(master_seed, **{name: {"enabled": False} for name in TRANSFORM_ORDER})

    def to_json(self) -> dict:
        return {**{name: dict(s) for name, s in self.settings.items()}, "master_seed": self.master_seed}

    @classmethod
    def from_json(cls, rec: dict) -> "AugmentSpec":
        if not isinstance(rec, dict):
            raise ConfigError(f"augment spec must be a JSON object, got {type(rec).__name__}")
        return cls(**rec)


def apply_augmentation(v: Volume3D, m: LabelMask, spec: AugmentSpec, scan_id: str):
    """Apply the enabled transforms to an image/mask pair.

    Returns (volume, mask, record) where ``record`` lists, per transform,
    whether it fired and the exact parameters used — enough to replay the
    output bit-for-bit.
    """
    require_same_geometry(v, m, "image and mask")
    record = []
    for index, t in enumerate(TRANSFORMS):
        s = spec.settings[t.name]
        rng = derive_rng(spec.master_seed, scan_id, index)
        applied = bool(s["enabled"] and rng.uniform() < s["probability"])
        params = {}
        if applied:
            params = t.draw(rng, s, derive_seed(spec.master_seed, scan_id, index, "field"))
            v, m = t.replay(v, m, params)
        record.append({"transform": t.name, "applied": applied, "params": params})
    return v, m, record
