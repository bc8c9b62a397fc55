"""Volume and manifest I/O.

Volumes are a NIfTI-1 subset: single ``.nii``/``.nii.gz`` files, magic
``n+1\\0``, datatypes uint8/int16/float32, honoring dim[0..4], datatype,
bitpix, pixdim[1..3], vox_offset, scl_slope/scl_inter and the sform/qform
permutation+sign part (residual oblique rotation is ignored with a
warning — volumes are axis-aligned by design). ``.nii.gz`` files are
written as one gzip member for the NIfTI header and one for each fixed
piece of the payload, deflated at level 1 with run-length matching only
(zlib's ``Z_RLE``) on every available CPU; their bytes depend only on the
volume, and they differ from those of earlier versions (one member),
which decode to the same data. As in BGZF, each member's header gives
its length in an ``FEXTRA`` subfield, so this module inflates the
members on every CPU too, while any gzip reader reads the file as one
multi-member stream. A gzip file of another writer is inflated as one
member, or by :mod:`gzip` if it has several.

Dataset manifests are newline-delimited JSON records, one scan per line.
"""

from __future__ import annotations

import gzip
import json
import struct
import warnings
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    ConfigError,
    ManifestError,
    ObliqueOrientationWarning,
    QuantizationOverflowError,
    RejectedInputError,
    TruncatedPayloadError,
    UnsupportedDatatypeError,
    VolumeLoadError,
    is_json_number,
    require,
)
from .volume import (
    Grid,
    LabelMask,
    ProbabilityVolume,
    Volume3D,
    WorldPoint,
    cast,
    extrema,
    run_blocks,
    thread_count,
)

HEADER_SIZE = 348
DATA_OFFSET = 352  # the header plus the 4-byte extension flag, all zero
MAGIC_SINGLE = b"n+1\x00"
MAGIC_PAIR = b"ni1\x00"

# NIfTI-1 datatype codes in the supported subset.
DTYPES = {2: np.uint8, 4: np.int16, 16: np.float32}
DTYPE_CODES = {"uint8": 2, "int16": 4, "float32": 16}
BITPIX = {2: 8, 4: 16, 16: 32}

# Each piece of a .nii.gz file is one gzip member (RFC 1952), as in BGZF: deflate, FLG FEXTRA only (no
# file name), mtime 0, XFL 4 (fastest level), OS unknown, and an 8-byte extra field of one subfield "CM"
# whose 4 bytes, which follow GZIP_HEADER, give the member's length in the file as a little-endian uint32.
GZIP_HEADER = b"\x1f\x8b\x08\x04\x00\x00\x00\x00\x04\xff\x08\x00CM\x04\x00"
GZIP_CHUNK = 256 * 1024

DATASET_TAGS = ("DS1r", "DS1s", "DS2", "DS3", "DS3n", "PHANTOM", "OTHER")


# ---------------------------------------------------------------------------
# NIfTI-1 subset
# ---------------------------------------------------------------------------

# DEFLATE expands its input at most about 1032-fold, so a larger ISIZE is not the members' size
_MAX_INFLATION = 1032


def _member_bounds(raw: bytes) -> list[int]:
    """Where each gzip member of ``raw`` starts, then ``len(raw)``, as the lengths after their ``GZIP_HEADER`` give it.

    Unless those lengths lead from member to member exactly to the end of
    ``raw``, ``raw`` is taken as one member: ``[0, len(raw)]``.
    """
    bounds = [0]
    while bounds[-1] < len(raw) and raw.startswith(GZIP_HEADER, bounds[-1]):
        at = bounds[-1] + len(GZIP_HEADER)
        length = int.from_bytes(raw[at : at + 4], "little")
        if length == 0:
            break
        bounds.append(bounds[-1] + length)
    return bounds if bounds[-1] == len(raw) else [0, len(raw)]


def _inflate(raw: bytes, bounds: list[int]) -> memoryview:
    """The data of the gzip members ``raw[bounds[i]:bounds[i + 1]]``, inflated on ``volume.run_blocks``.

    Each member is fed to its own zlib inflater a chunk at a time and
    inflated straight into its slice of one buffer, sized from the members'
    ISIZE trailers; zlib checks the member's CRC-32 and ISIZE. A member that
    outgrows its ISIZE, ends early or is followed by more data raises
    ``zlib.error``.
    """
    offsets = np.cumsum([0] + [int.from_bytes(raw[b - 4 : b], "little") for b in bounds[1:]])
    if offsets[-1] > _MAX_INFLATION * len(raw):
        raise zlib.error(f"ISIZE {offsets[-1]} is more than DEFLATE can expand {len(raw)} bytes to")
    data = np.empty(offsets[-1], dtype=np.uint8)
    view, stream = memoryview(data), memoryview(raw)

    def inflate(i: int) -> None:
        inflater, pos, member = zlib.decompressobj(31), offsets[i], stream[bounds[i] : bounds[i + 1]]
        for at in range(0, len(member), GZIP_CHUNK):
            piece = inflater.decompress(member[at : at + GZIP_CHUNK], GZIP_CHUNK)
            while piece:  # until the chunk is used up and no output is pending
                if pos + len(piece) > offsets[i + 1]:
                    raise zlib.error(f"member {i} outgrows its ISIZE")
                view[pos : pos + len(piece)] = piece
                pos += len(piece)
                piece = inflater.decompress(inflater.unconsumed_tail, GZIP_CHUNK)
        if not inflater.eof or inflater.unused_data:
            raise zlib.error(f"member {i} is not one whole gzip member")

    run_blocks(inflate, range(len(bounds) - 1))
    return view


def _read_bytes(path: str | Path) -> bytes | memoryview:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError as exc:
        raise VolumeLoadError(f"{path}: no such file") from exc
    except OSError as exc:  # a directory, a permission, a failing device
        raise VolumeLoadError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    if raw[:2] != b"\x1f\x8b":
        return raw
    try:
        return _inflate(raw, _member_bounds(raw))
    except zlib.error:
        pass  # several members of another writer, or damage, which gzip.decompress reads or names
    try:
        return gzip.decompress(raw)
    except EOFError as exc:
        raise TruncatedPayloadError(f"{path}: gzip stream ends early ({exc})") from exc
    except (gzip.BadGzipFile, zlib.error) as exc:
        raise VolumeLoadError(f"{path}: corrupt gzip stream ({exc})") from exc


def _quaternion_rotation(b: float, c: float, d: float) -> np.ndarray:
    a = float(np.sqrt(max(0.0, 1.0 - (b * b + c * c + d * d))))
    return np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
        ]
    )


def _parse_nifti_header(blob: bytes, path: str):
    if len(blob) < HEADER_SIZE:
        raise TruncatedPayloadError(f"{path}: file shorter than the 348-byte header")
    magic = bytes(blob[344:348])
    if magic == MAGIC_PAIR:
        raise BadMagicError(f"{path}: magic 'ni1' (.hdr/.img pair) is not supported")
    if magic != MAGIC_SINGLE:
        raise BadMagicError(f"{path}: magic field is {magic!r}, expected {MAGIC_SINGLE!r}")

    for endian in ("<", ">"):
        if struct.unpack_from(endian + "i", blob, 0)[0] == HEADER_SIZE:
            break
    else:
        raise BadMagicError(f"{path}: sizeof_hdr is not 348 in either byte order")

    dim = struct.unpack_from(endian + "8h", blob, 40)
    datatype = struct.unpack_from(endian + "h", blob, 70)[0]
    pixdim = struct.unpack_from(endian + "8f", blob, 76)
    vox_offset = struct.unpack_from(endian + "f", blob, 108)[0]
    scl_slope, scl_inter = struct.unpack_from(endian + "2f", blob, 112)
    qform_code, sform_code = struct.unpack_from(endian + "2h", blob, 252)
    quatern = struct.unpack_from(endian + "6f", blob, 256)
    srow = np.array(struct.unpack_from(endian + "12f", blob, 280)).reshape(3, 4)

    ndim = dim[0]
    if ndim < 3 or ndim > 4 or (ndim == 4 and dim[4] != 1):
        raise VolumeLoadError(f"{path}: dim[0]={ndim} (dim[4]={dim[4]}); only 3D volumes are supported")
    dims = tuple(int(d) for d in dim[1:4])
    if any(d < 1 for d in dims):
        raise VolumeLoadError(f"{path}: dim[1..3]={dims} must be positive")
    spacing = tuple(float(p) for p in pixdim[1:4])
    if any(not np.isfinite(s) or s <= 0 for s in spacing):
        raise VolumeLoadError(f"{path}: pixdim[1..3]={spacing} must be positive")
    if not np.isfinite(vox_offset):
        raise VolumeLoadError(f"{path}: vox_offset {vox_offset} is not finite")

    if datatype not in DTYPES:
        raise UnsupportedDatatypeError(f"{path}: datatype code {datatype} unsupported (allowed: 2, 4, 16)")

    if sform_code > 0:
        rot = srow[:, :3].astype(np.float64)
        trans = srow[:, 3].astype(np.float64)
    elif qform_code > 0:
        qfac = -1.0 if pixdim[0] == -1.0 else 1.0
        rot = _quaternion_rotation(*quatern[:3]) * np.array(spacing)
        rot[:, 2] *= qfac
        trans = np.asarray(quatern[3:6], dtype=np.float64)
    else:
        rot = np.diag(spacing).astype(np.float64)
        trans = np.zeros(3)

    return endian, dims, spacing, datatype, float(vox_offset), float(scl_slope), float(scl_inter), rot, trans


def _canonical_orientation(arr: np.ndarray, spacing, rot: np.ndarray, trans: np.ndarray, path: str):
    """Reorder/flip data axes so axis i runs along world axis i, increasing.

    Returns a view of ``arr``. Only the permutation+sign part of the affine
    is honored; a residual oblique rotation triggers a warning and is dropped.
    """
    norms = np.linalg.norm(rot, axis=0)
    if np.any(norms == 0):
        raise VolumeLoadError(f"{path}: srow/qform affine has a zero column")
    world_of_axis = [int(np.argmax(np.abs(rot[:, j]))) for j in range(3)]
    if sorted(world_of_axis) != [0, 1, 2]:
        raise VolumeLoadError(f"{path}: srow/qform affine does not define an axis permutation")

    cosines = [abs(rot[world_of_axis[j], j]) / norms[j] for j in range(3)]
    if min(cosines) < 1.0 - 1e-4:
        warnings.warn(
            f"{path}: oblique rotation in header affine ignored (axis cosines {cosines})",
            ObliqueOrientationWarning,
            stacklevel=3,
        )

    src = [world_of_axis.index(i) for i in range(3)]
    arr = np.transpose(arr, src)
    out_spacing, out_origin = [], []
    for i in range(3):
        j = src[i]
        sign = np.sign(rot[i, j])
        n = arr.shape[i]
        if sign < 0:
            arr = np.flip(arr, axis=i)
            out_origin.append(float(trans[i] + rot[i, j] * (n - 1)))
        else:
            out_origin.append(float(trans[i]))
        out_spacing.append(float(spacing[j]))
    return arr, tuple(out_spacing), tuple(out_origin)


def _read_nifti(path: str | Path, grid: type[Grid]) -> Grid:
    """The canonical C-contiguous data of ``path`` as a ``grid`` with its spacing and origin.

    An unscaled uint8 payload stays uint8, the on-disk type of a mask, which
    :class:`LabelMask` checks and stores as a bool view. Any other unscaled
    payload is cast to the grid's dtype (float64 if it has none) in the
    same copy that reorients it; each supported datatype is exact in
    float32. A scaled payload is reoriented to float64 and scaled there.
    The grid's own check of the values (finite; a mask's 0 and 1, a
    probability's [0, 1]) is the only one, and its error names ``path``.
    """
    blob = _read_bytes(path)
    (endian, dims, spacing, datatype, vox_offset, scl_slope, scl_inter, rot, trans) = _parse_nifti_header(
        blob, str(path)
    )
    dt = np.dtype(DTYPES[datatype]).newbyteorder(endian)
    offset = max(int(vox_offset), HEADER_SIZE)
    count = int(np.prod(dims))
    nbytes = count * dt.itemsize
    if len(blob) < offset + nbytes:
        raise TruncatedPayloadError(
            f"{path}: payload holds {max(len(blob) - offset, 0)} bytes, "
            f"dim/bitpix imply {nbytes} after vox_offset {offset}"
        )
    stored = np.frombuffer(blob, dt, count, offset).reshape(dims, order="F")
    view, spacing, origin = _canonical_orientation(stored, spacing, rot, trans, str(path))
    if scl_slope != 0.0 and not (scl_slope == 1.0 and scl_inter == 0.0):
        arr = cast(view, np.float64)
        arr *= scl_slope
        arr += scl_inter
    else:
        arr = cast(view, np.uint8 if datatype == DTYPE_CODES["uint8"] else grid._dtype or np.float64)
    try:
        return grid(arr, spacing, origin)
    except RejectedInputError as exc:  # the grid's check of the values: NaN/Inf, or outside its range
        raise type(exc)(f"{path}: {exc}") from exc


def _quantize(v: Volume3D, path: str | Path, datatype: str) -> np.ndarray:
    """Intensities as little-endian ``datatype`` in NIfTI's F order (a C-contiguous cast of their
    transpose); integer types round and refuse to wrap."""
    dt = np.dtype(DTYPES[DTYPE_CODES[datatype]]).newbyteorder("<")
    if dt.kind == "f":
        return cast(v.intensities.T, dt)
    rounded = np.rint(v.intensities)
    info = np.iinfo(dt)
    lo, hi = extrema(rounded)
    if lo < info.min or hi > info.max:
        raise QuantizationOverflowError(
            f"{path}: values [{lo}, {hi}] do not fit {datatype} range [{info.min}, {info.max}]"
        )
    return cast(rounded.T, dt)


def _gzip_member(piece) -> bytes:
    """``piece`` as one gzip member: ``GZIP_HEADER`` and the member's length, then zlib's deflate stream and trailer."""
    c = zlib.compressobj(1, zlib.DEFLATED, 31, 8, zlib.Z_RLE)
    body = memoryview(c.compress(piece) + c.flush())[10:]  # past zlib's own 10-byte gzip header
    return GZIP_HEADER + struct.pack("<I", len(GZIP_HEADER) + 4 + len(body)) + body


def _write_gzip(path: str | Path, header: bytearray, payload: memoryview) -> None:
    """Write ``header`` and then each ``GZIP_CHUNK`` bytes of ``payload`` as a gzip member of its own.

    zlib releases the GIL, so the members compress in parallel; they are
    written in order as they come, so their bytes do not depend on the
    number of threads.
    """
    pieces = [header] + [payload[i : i + GZIP_CHUNK] for i in range(0, len(payload), GZIP_CHUNK)]
    with open(path, "wb") as fh, ThreadPoolExecutor(min(len(pieces), thread_count())) as pool:
        fh.writelines(pool.map(_gzip_member, pieces))


def _write_nifti(path: str | Path, data: np.ndarray, spacing, origin) -> None:
    """Write ``data``, a C-contiguous little-endian array with axes (k, j, i), as NIfTI-1."""
    code = DTYPE_CODES[data.dtype.name]
    header = bytearray(DATA_OFFSET)
    struct.pack_into("<i", header, 0, HEADER_SIZE)
    struct.pack_into("<8h", header, 40, 3, *data.shape[::-1], 1, 1, 1, 1)
    struct.pack_into("<h", header, 70, code)
    struct.pack_into("<h", header, 72, BITPIX[code])
    struct.pack_into("<8f", header, 76, 1.0, *spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", header, 108, float(DATA_OFFSET))
    struct.pack_into("<2f", header, 112, 0.0, 0.0)  # scl unset
    struct.pack_into("<80s", header, 148, b"cmbpipe")
    struct.pack_into("<2h", header, 252, 0, 1)  # qform off, sform on
    srow = np.zeros((3, 4))
    srow[:, :3] = np.diag(spacing)
    srow[:, 3] = origin
    struct.pack_into("<12f", header, 280, *srow.ravel())
    struct.pack_into("<4s", header, 344, MAGIC_SINGLE)

    payload = data.reshape(-1).view(np.uint8).data
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    if str(path).endswith(".gz"):
        _write_gzip(path, header, payload)
    else:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload)


# ---------------------------------------------------------------------------
# Public volume API
# ---------------------------------------------------------------------------

def read_volume(path: str | Path) -> Volume3D:
    """Load a NIfTI-1 volume; gzip compression is detected from the content."""
    return _read_nifti(path, Volume3D)


def write_volume(v: Volume3D, path: str | Path, datatype: str = "float32") -> None:
    """Write a volume as NIfTI-1, gzip-compressed when ``path`` ends in ``.gz``.

    Integer datatypes round to the nearest step and refuse to wrap:
    out-of-range values raise :class:`QuantizationOverflowError`.
    """
    if datatype not in DTYPE_CODES:
        raise UnsupportedDatatypeError(f"datatype '{datatype}' unsupported (allowed: {sorted(DTYPE_CODES)})")
    _write_nifti(path, _quantize(v, path, datatype), v.spacing, v.origin)


def read_mask(path: str | Path) -> LabelMask:
    return _read_nifti(path, LabelMask)


def write_mask(m: LabelMask, path: str | Path) -> None:
    _write_nifti(path, cast(m.labels.T, np.uint8), m.spacing, m.origin)


def read_probability(path: str | Path) -> ProbabilityVolume:
    return _read_nifti(path, ProbabilityVolume)


def write_probability(p: ProbabilityVolume, path: str | Path) -> None:
    _write_nifti(path, cast(p.values.T, np.dtype("<f4")), p.spacing, p.origin)


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Acquisition:
    field_strength_tesla: float
    echo_time_ms: float
    slice_thickness_mm: float
    scanner_model: str


@dataclass(frozen=True)
class ScanManifestEntry:
    scan_id: str
    subject_id: str
    dataset_tag: str
    path: str
    cmb_centers: tuple[WorldPoint, ...] = ()
    p_cmb: float | None = None
    acquisition: Acquisition = field(
        default_factory=lambda: Acquisition(0.0, 0.0, 0.0, "unknown")
    )

    def to_json(self) -> dict:
        """The manifest record: every field, leaving out a ``p_cmb`` of None."""
        rec = asdict(self)
        if self.p_cmb is None:
            del rec["p_cmb"]
        return rec


def _entry_from_json(rec: dict, lineno: int) -> ScanManifestEntry:
    """The entry of a record keyed by the fields of ``ScanManifestEntry`` (``p_cmb`` optional) and ``Acquisition``,
    whose numbers are JSON numbers (``errors.is_json_number``) within their bounds (``errors.require``)."""
    def fail(msg: str):
        raise ManifestError(f"line {lineno}: {msg}")

    def keys(obj: dict, cls, where: str, optional=()) -> None:
        names = [f.name for f in fields(cls)]
        for key in names:
            if key not in obj and key not in optional:
                fail(f"{where}missing key '{key}'")
        unknown = set(obj) - set(names)
        if unknown:
            fail(f"{where}unknown keys {sorted(unknown)}")

    def number(value, what: str, bound: str, fault: str = "") -> float:
        """``value`` as a float if it is a JSON number in ``bound``; else ``fault`` or "outside" is the message."""
        try:
            x = float(value) if is_json_number(value) else None
        except OverflowError:  # an int beyond the float range
            x = None
        if x is None:
            fail(f"{what} {value!r} is not a number")
        try:
            return require(x, bound, what)
        except ConfigError:
            fail(fault or f"{what} {x} outside {bound}")

    def text(value, what: str) -> str:
        if not isinstance(value, str):
            fail(f"{what} {value!r} is not a string")
        return value

    if not isinstance(rec, dict):
        fail("record is not an object")
    keys(rec, ScanManifestEntry, "", optional=("p_cmb",))
    scan_id = text(rec["scan_id"], "scan_id")
    # the id names each scan's output files, so it must name one file inside the output directory
    if not scan_id or any(part in scan_id for part in ("/", "\\", "..")):
        fail(f"scan_id {scan_id!r} is empty or holds '/', '\\' or '..'")
    if rec["dataset_tag"] not in DATASET_TAGS:
        fail(f"dataset_tag '{rec['dataset_tag']}' not in {DATASET_TAGS}")
    if not isinstance(rec["cmb_centers"], list):
        fail(f"cmb_centers {rec['cmb_centers']!r} is not a list")
    centers = []
    for c in rec["cmb_centers"]:
        if not isinstance(c, (list, tuple)) or len(c) != 3:
            fail(f"cmb_center {c!r} is not an [x, y, z] triple")
        centers.append(
            WorldPoint(*(number(x, "cmb_center coordinate", "(-inf, inf)", f"cmb_center {c!r} is not finite") for x in c))
        )
    p_cmb = rec.get("p_cmb")
    if p_cmb is not None:
        p_cmb = number(p_cmb, "p_cmb", "[0, 1]")
    acq = rec["acquisition"]
    if not isinstance(acq, dict):
        fail("acquisition is not an object")
    keys(acq, Acquisition, "acquisition ")
    *measures, model = (f.name for f in fields(Acquisition))
    acquisition = Acquisition(
        *(number(acq[key], key, "[0, inf)") for key in measures),  # 0 is the entry's "unknown"
        text(acq[model], model),
    )
    return ScanManifestEntry(
        scan_id=scan_id,
        subject_id=text(rec["subject_id"], "subject_id"),
        dataset_tag=rec["dataset_tag"],
        path=text(rec["path"], "path"),
        cmb_centers=tuple(centers),
        p_cmb=p_cmb,
        acquisition=acquisition,
    )


def read_manifest(path: str | Path) -> list[ScanManifestEntry]:
    """Parse a JSON-lines manifest; schema violations carry the line number."""
    entries: list[ScanManifestEntry] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            entry = _entry_from_json(rec, lineno)
            if entry.scan_id in seen:
                raise ManifestError(f"line {lineno}: duplicate scan_id '{entry.scan_id}'")
            seen.add(entry.scan_id)
            entries.append(entry)
    return entries


def write_manifest(entries, path: str | Path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry.to_json(), sort_keys=True) + "\n")
