"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written by a different route than the
library code it checks: literal 2^n enumeration instead of convolution,
exact fractions instead of float accumulation, explicit Fourier partial
sums instead of FFT round trips.
"""

from fractions import Fraction
from itertools import product
from math import comb

import numpy as np


def rankdata_avg(vals):
    order = sorted(range(len(vals)), key=lambda i: vals[i])
    ranks = [0.0] * len(vals)
    i = 0
    while i < len(vals):
        j = i
        while j + 1 < len(vals) and vals[order[j + 1]] == vals[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def wilcoxon_enumeration(diffs, alternative="two_sided"):
    """Exact signed-rank p by enumerating every sign assignment."""
    d = [x for x in diffs if x != 0]
    ranks = rankdata_avg([abs(x) for x in d])
    w_obs = sum(r for r, x in zip(ranks, d) if x > 0)
    m = sum(ranks)
    count = 0
    for signs in product((0, 1), repeat=len(d)):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if alternative == "greater":
            count += w >= w_obs - 1e-12
        elif alternative == "less":
            count += w <= w_obs + 1e-12
        else:
            count += abs(2 * w - m) >= abs(2 * w_obs - m) - 1e-12
    return w_obs, count / 2 ** len(d)


def fisher_enumeration(a, b, c, d, alternative="two_sided"):
    """Exact Fisher p by summing hypergeometric table weights as fractions."""
    r1, r2, c1 = a + b, c + d, a + c
    n = r1 + r2
    lo, hi = max(0, c1 - r2), min(r1, c1)
    pmf = {x: Fraction(comb(r1, x) * comb(r2, c1 - x), comb(n, c1)) for x in range(lo, hi + 1)}
    obs = pmf[a]
    if alternative == "greater":
        return float(sum(p for x, p in pmf.items() if x >= a))
    if alternative == "less":
        return float(sum(p for x, p in pmf.items() if x <= a))
    return float(sum(p for p in pmf.values() if p <= obs * (1 + Fraction(1, 10**7))))


def truncated_spectrum_1d(signal, retain_fraction):
    """Low-pass partial Fourier sum via an explicit DFT matrix (no FFT)."""
    n = len(signal)
    n_keep = max(1, int(round(retain_fraction * n)))
    lo = n // 2 - n_keep // 2
    kept_shifted = range(lo, lo + n_keep)
    ks = [(k - n // 2) % n for k in kept_shifted]  # unshifted frequency indices
    x = np.arange(n)
    out = np.zeros(n, dtype=complex)
    for k in ks:
        coeff = (signal * np.exp(-2j * np.pi * k * x / n)).sum() / n
        out += coeff * np.exp(2j * np.pi * k * x / n)
    return out.real


def ghost_delta_1d(n, x0, n_ghosts, intensity):
    """Closed-form comb modulation of a unit delta along one axis.

    Zeroing ``intensity`` of every n_ghosts-th k-space line (DC excluded)
    turns a delta into the original spike minus intensity/n_ghosts replicas
    at spacings n/n_ghosts, plus a uniform intensity/n offset.
    """
    assert n % n_ghosts == 0
    out = np.full(n, intensity / n)
    out[x0] += 1.0
    step = n // n_ghosts
    for j in range(n_ghosts):
        out[(x0 + j * step) % n] -= intensity / n_ghosts
    return out


def alpha_ball_voxels(dims, spacing, center, radius_mm):
    """Voxel-center discretization of the analytic alpha isosurface sphere."""
    axes = [np.arange(d) * spacing - c for d, c in zip(dims, center)]
    r2 = axes[0][:, None, None] ** 2 + axes[1][None, :, None] ** 2 + axes[2][None, None, :] ** 2
    return (r2 < radius_mm**2).astype(np.uint8)


def sphere_voxel_volume(radius_mm, h_mm):
    """Volume estimate of a sphere by counting grid voxels of pitch h."""
    m = int(np.ceil(radius_mm / h_mm)) + 1
    ax = np.arange(-m, m + 1) * h_mm
    r2 = ax[:, None, None] ** 2 + ax[None, :, None] ** 2 + ax[None, None, :] ** 2
    return int((r2 <= radius_mm**2).sum()) * h_mm**3


def components_oracle(m, connectivity=26):
    """Per-component reference labelling: each component's voxels one at a time.

    Returns ``(id, centroid_mm, volume_mm3, voxel_count, bbox, voxels)``
    tuples, ordered by each component's smallest (k, j, i) voxel; ``voxels``
    is the frozenset of its C-order flat indices.
    """
    from scipy import ndimage

    structure = ndimage.generate_binary_structure(3, 1 if connectivity == 6 else 3)
    labeled, n = ndimage.label(m.labels, structure=structure)
    raw = []
    for slices, label in zip(ndimage.find_objects(labeled), range(1, n + 1)):
        li, lj, lk = np.nonzero(labeled[slices] == label)
        i = li + slices[0].start
        j = lj + slices[1].start
        k = lk + slices[2].start
        first = np.lexsort((i, j, k))[0]
        key = (int(k[first]), int(j[first]), int(i[first]))
        centroid_vox = (float(i.mean()), float(j.mean()), float(k.mean()))
        bbox = (
            (int(i.min()), int(j.min()), int(k.min())),
            (int(i.max()), int(j.max()), int(k.max())),
        )
        flat = frozenset(np.ravel_multi_index((i, j, k), m.dims).tolist())
        raw.append((key, centroid_vox, bbox, len(i), flat))
    raw.sort(key=lambda item: item[0])
    origin, spacing = np.asarray(m.origin), np.asarray(m.spacing)
    out = []
    for comp_id, (_, centroid_vox, bbox, count, flat) in enumerate(raw, start=1):
        w = origin + np.asarray(centroid_vox, dtype=np.float64) * spacing
        out.append((comp_id, tuple(float(x) for x in w), count * m.voxel_volume_mm3, count, bbox, flat))
    return out


def match_oracle(pred, gt, max_dist_mm, overlaps=frozenset()):
    """All-pairs greedy matching: every (pred, gt) pair's distance, then ascending (dist, pred id, gt id).

    ``pred`` and ``gt`` are ``(id, centroid_mm)`` pairs; a pair in
    ``overlaps`` is a candidate at any distance. Returns the pairing.
    """
    candidates = []
    for pid, pc in pred:
        for gid, gc in gt:
            dist = float(np.linalg.norm(np.asarray(pc) - np.asarray(gc)))
            if dist <= max_dist_mm or (pid, gid) in overlaps:
                candidates.append((dist, pid, gid))
    candidates.sort()
    used_p, used_g, pairs = set(), set(), []
    for _, pid, gid in candidates:
        if pid not in used_p and gid not in used_g:
            used_p.add(pid)
            used_g.add(gid)
            pairs.append((pid, gid))
    return tuple(pairs)


VIEW_AXIS = {"axial": 2, "sagittal": 0, "coronal": 1}


def reference_plane_oracle(plane, cfg, px=(1.0, 1.0)):
    """The reference segmenter's probability for one plane of ``px`` = (h, w) mm pixels, computed on that plane alone.

    Every mm scale becomes pixels along each axis on its own: a scale
    ``s`` smooths by ``(s / h, s / w)`` pixels.
    """
    from scipy import ndimage

    plane = np.asarray(plane, dtype=np.float64)
    ph, pw = px
    band = ndimage.gaussian_filter(plane, (cfg.scale_max_mm / ph, cfg.scale_max_mm / pw))
    band -= ndimage.gaussian_filter(plane, (cfg.scale_min_mm / ph, cfg.scale_min_mm / pw))
    return 1.0 / (1.0 + np.exp(-cfg.logistic_gain * (band - cfg.score_offset)))


def oracle_plane(labels, view, index, corruption_rate=0.0, seed=0):
    """The oracle segmenter's plane ``index`` of a view, drawn plane by plane."""
    from cmbpipe.rng import derive_rng

    axis = VIEW_AXIS[view]
    plane = np.take(labels, index, axis=axis).astype(np.float32)
    if corruption_rate > 0.0:
        rng = derive_rng(seed, "oracle", view, index)
        flips = rng.uniform(size=plane.shape) < corruption_rate
        plane = np.where(flips, 1.0 - plane, plane)
    return plane


def per_plane_view(plane_fn, arr, view):
    """A view's float32 volume assembled from ``plane_fn(central_plane, index)``, one plane at a time."""
    axis = VIEW_AXIS[view]
    planes = [plane_fn(np.take(arr, k, axis=axis), k) for k in range(arr.shape[axis])]
    return np.stack(planes, axis=axis, dtype=np.float32)


def bspline_field_oracle(control, dims):
    """Each control component of ``control`` (3, *grid) sampled at every voxel by ``map_coordinates``.

    Voxel i of an axis sits at control coordinate i * (grid - 1) / (n - 1),
    computed in float32; each sample is a per-voxel cubic B-spline
    evaluation (order 3, mode "nearest").
    """
    from scipy import ndimage

    coords = np.indices(dims, dtype=np.float32)
    scale = [(gs - 1) / max(n - 1, 1) for gs, n in zip(control.shape[1:], dims)]
    sample = np.stack([coords[a] * scale[a] for a in range(3)]).astype(np.float32)
    return np.stack([ndimage.map_coordinates(c, sample, order=3, mode="nearest") for c in control])


def bias_field_oracle(dims, order, amplitude, seed):
    """The multiplicative bias field, summed as one full-volume outer product per monomial."""
    from cmbpipe.rng import derive_rng

    rng = derive_rng(seed, "bias")
    axes = [np.linspace(-1.0, 1.0, n) for n in dims]
    fld = np.zeros(dims)
    for p in range(order + 1):
        for q in range(order + 1 - p):
            for r in range(order + 1 - p - q):
                if p == q == r == 0:
                    continue
                coeff = rng.standard_normal()
                fld += coeff * np.multiply.outer(np.multiply.outer(axes[0] ** p, axes[1] ** q), axes[2] ** r)
    peak = np.abs(fld).max()
    fld = 1.0 + amplitude * fld / peak if peak > 0 else np.ones(dims)
    return fld / fld.mean()


def bias_field_expression(arr, order, amplitude, seed):
    """``augment.bias_field`` with each step of the field as its own out-of-place expression."""
    from cmbpipe.augment import _tensor_product
    from cmbpipe.rng import derive_rng

    if amplitude == 0.0:
        return arr
    rng = derive_rng(seed, "bias")
    coeffs = np.zeros((order + 1,) * 3)
    for p in range(order + 1):
        for q in range(order + 1 - p):
            for r in range(order + 1 - p - q):
                if p == q == r == 0:
                    continue
                coeffs[p, q, r] = rng.standard_normal()
    powers = [np.linspace(-1.0, 1.0, n)[:, None] ** np.arange(order + 1) for n in arr.shape]
    fld = _tensor_product(coeffs, *powers)
    peak = np.abs(fld).max()
    if peak > 0:
        fld = 1.0 + amplitude * fld / peak
    else:
        fld = np.ones(arr.shape)
    fld /= fld.mean()
    return arr * fld


# Whole-volume definitions of the blocked augmentation transforms: each is
# one numpy/scipy call over the whole grid, as the transforms were first
# written. The blocked transforms must give the same bytes.


def gibbs_ringing_oracle(arr, retain_fraction):
    """``fftn``, ``fftshift``, a centred box of kept frequencies per axis, ``ifftshift`` and ``ifftn``."""
    spectrum = np.fft.fftshift(np.fft.fftn(arr))
    keep = np.zeros(arr.shape, dtype=bool)
    window = []
    for n in arr.shape:
        n_keep = max(1, int(round(retain_fraction * n)))
        lo = n // 2 - n_keep // 2
        window.append(slice(lo, lo + n_keep))
    keep[tuple(window)] = True
    return np.fft.ifftn(np.fft.ifftshift(np.where(keep, spectrum, 0.0))).real


def motion_ghost_oracle(arr, n_ghosts, intensity, axis):
    """One FFT over the whole volume along ``axis``, scaled by the line gains and inverted."""
    n = arr.shape[axis]
    modulated = np.arange(n) % n_ghosts == 0
    modulated[0] = False
    shape = [1, 1, 1]
    shape[axis] = n
    gain = np.where(modulated, 1.0 - intensity, 1.0).reshape(shape)
    return np.fft.ifft(np.fft.fft(arr, axis=axis) * gain, axis=axis).real


def elastic_oracle(arr, labels, spacing, control_spacing_mm, displacement_mm, seed):
    """The elastic warp with whole-volume coordinates and one ``map_coordinates`` call per image.

    The field comes from ``augment._bspline_field``, checked on its own
    against :func:`bspline_field_oracle`.
    """
    from scipy import ndimage

    from cmbpipe.augment import _bspline_field
    from cmbpipe.rng import derive_rng

    dims = arr.shape
    coords = np.indices(dims, dtype=np.float32)
    if displacement_mm > 0.0:
        grid = tuple(max(2, int(np.ceil((n - 1) * s / control_spacing_mm)) + 1) for n, s in zip(dims, spacing))
        control = derive_rng(seed, "elastic").standard_normal((3,) + grid).astype(np.float32)
        disp = _bspline_field(control, dims)
        norm = np.sqrt(np.sum(disp**2, axis=0)).max()
        if norm > 0:
            disp *= displacement_mm / norm
        for a in range(3):
            disp[a] /= spacing[a]
        coords += disp
    fill = float(arr.min())
    out = ndimage.map_coordinates(arr, coords, order=1, mode="constant", cval=fill)
    return out, ndimage.map_coordinates(labels, coords, order=0, mode="constant", cval=0)


def blur_oracle(arr, sigma_voxels):
    """One ``gaussian_filter`` call over the whole volume."""
    from scipy import ndimage

    return ndimage.gaussian_filter(arr, sigma_voxels)
