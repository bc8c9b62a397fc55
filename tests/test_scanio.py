import gzip
import hashlib
import json
import struct
import zlib

import numpy as np
import pytest

from cmbpipe import scanio, volume
from cmbpipe.errors import (
    BadMagicError,
    ManifestError,
    NonFiniteDataError,
    ObliqueOrientationWarning,
    QuantizationOverflowError,
    RejectedInputError,
    TruncatedPayloadError,
    UnsupportedDatatypeError,
    VolumeLoadError,
)
from cmbpipe.scanio import (
    Acquisition,
    ScanManifestEntry,
    read_manifest,
    read_mask,
    read_probability,
    read_volume,
    write_manifest,
    write_mask,
    write_probability,
    write_volume,
)
from cmbpipe.volume import LabelMask, ProbabilityVolume, Volume3D, WorldPoint
from cmbpipe.volume import extrema as volume_extrema


def make_volume(rng, dims=(12, 10, 14), spacing=(0.93, 0.93, 1.75), origin=(-5.0, 3.0, 0.0)):
    return Volume3D(rng.normal(100, 20, dims), spacing, origin)


class TestNiftiRoundTrip:
    def test_float32_round_trip(self, rng, tmp_path):
        v = make_volume(rng)
        path = tmp_path / "vol.nii"
        write_volume(v, path, "float32")
        back = read_volume(path)
        assert back.dims == v.dims
        assert np.allclose(back.spacing, v.spacing, atol=1e-6)
        assert np.allclose(back.origin, v.origin, atol=1e-5)
        assert np.allclose(back.intensities, v.intensities.astype(np.float32), atol=0)

    def test_gzip_round_trip(self, rng, tmp_path):
        v = make_volume(rng)
        path = tmp_path / "vol.nii.gz"
        write_volume(v, path, "float32")
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        back = read_volume(path)
        assert np.allclose(back.intensities, v.intensities.astype(np.float32), atol=0)

    def test_int16_quantization_step(self, rng, tmp_path):
        v = make_volume(rng)
        path = tmp_path / "vol.nii"
        write_volume(v, path, "int16")
        back = read_volume(path)
        assert np.abs(back.intensities - v.intensities).max() <= 0.5  # one quantization step

    def test_int16_overflow_rejected(self, tmp_path):
        v = Volume3D(np.full((4, 4, 4), 70000.0))
        with pytest.raises(QuantizationOverflowError):
            write_volume(v, tmp_path / "vol.nii", "int16")

    def test_uint8_mask_round_trip(self, rng, tmp_path):
        m = LabelMask((rng.uniform(0, 1, (9, 9, 9)) > 0.7).astype(np.uint8), (1.0,) * 3, (0.0, 0.0, 0.0))
        path = tmp_path / "mask.nii.gz"
        write_mask(m, path)
        back = read_mask(path)
        assert np.array_equal(back.labels, m.labels)

    def test_probability_round_trip_keeps_unit_range(self, rng, tmp_path):
        p = ProbabilityVolume(rng.uniform(0, 1, (8, 8, 8)).astype(np.float32))
        path = tmp_path / "prob.nii.gz"
        write_probability(p, path)
        back = read_probability(path)
        assert back.values.min() >= 0.0 and back.values.max() <= 1.0
        assert np.array_equal(back.values, p.values)


class TestNiftiHeaderHandling:
    def _raw_header_and_payload(self, path):
        blob = path.read_bytes()
        if blob[:2] == b"\x1f\x8b":
            blob = gzip.decompress(blob)
        return bytearray(blob)

    def test_bad_magic(self, rng, tmp_path):
        v = make_volume(rng)
        path = tmp_path / "vol.nii"
        write_volume(v, path)
        blob = self._raw_header_and_payload(path)
        blob[344:348] = b"abc\x00"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError, match="magic"):
            read_volume(path)

    def test_pair_magic_unsupported(self, rng, tmp_path):
        v = make_volume(rng)
        path = tmp_path / "vol.nii"
        write_volume(v, path)
        blob = self._raw_header_and_payload(path)
        blob[344:348] = b"ni1\x00"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError, match="pair"):
            read_volume(path)

    def test_unsupported_datatype(self, rng, tmp_path):
        v = make_volume(rng)
        path = tmp_path / "vol.nii"
        write_volume(v, path)
        blob = self._raw_header_and_payload(path)
        struct.pack_into("<h", blob, 70, 32)  # 64-bit complex
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedDatatypeError, match="datatype"):
            read_volume(path)

    def test_truncated_payload(self, rng, tmp_path):
        v = make_volume(rng)
        path = tmp_path / "vol.nii"
        write_volume(v, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-40])
        with pytest.raises(TruncatedPayloadError, match="payload"):
            read_volume(path)

    def test_raw_payload_with_sidecar_is_not_a_volume(self, rng, tmp_path):
        path = tmp_path / "vol.raw"
        path.write_bytes(rng.normal(0, 1, (12, 10, 14)).astype("<f4").tobytes())
        (tmp_path / "vol.raw.hdr").write_text(
            "dims: 12 10 14\nspacing: 1 1 1\norigin: 0 0 0\ndtype: float32\nbyteorder: little\n"
        )
        with pytest.raises(BadMagicError, match="magic"):
            read_volume(path)

    @pytest.mark.parametrize(
        "write, read, bad, error, message",
        [
            (write_volume, read_volume, np.nan, NonFiniteDataError, "intensities contain NaN or Inf"),
            (write_volume, read_volume, -np.inf, NonFiniteDataError, "intensities contain NaN or Inf"),
            (write_probability, read_probability, np.nan, NonFiniteDataError, r"probabilities outside \[0, 1\]"),
            (write_probability, read_probability, np.inf, NonFiniteDataError, r"probabilities outside \[0, 1\]"),
            (write_probability, read_probability, 1.5, RejectedInputError, r"probabilities outside \[0, 1\]"),
            (write_mask, read_mask, 2, RejectedInputError, "labels must be binary"),
        ],
        ids=["volume-nan", "volume-inf", "probability-nan", "probability-inf", "probability-1.5", "mask-2"],
    )
    def test_bad_payload_value_names_the_file(self, tmp_path, write, read, bad, error, message):
        """The grid's check of the values raises, naming the file."""
        grid = {write_volume: Volume3D, write_probability: ProbabilityVolume, write_mask: LabelMask}[write]
        path = tmp_path / "vol.nii"
        write(grid(np.zeros((4, 4, 4), dtype=np.uint8)), path)
        blob = self._raw_header_and_payload(path)
        np.frombuffer(blob, np.uint8 if write is write_mask else "<f4", 1, 352)[...] = bad
        path.write_bytes(bytes(blob))
        with pytest.raises(error, match=f"^{path}: {message}"):
            read(path)

    def test_read_checks_the_values_once(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "vol.nii.gz"
        write_volume(make_volume(rng), path)
        calls = []

        def counted(arr):
            calls.append(arr.shape)
            return volume_extrema(arr)

        monkeypatch.setattr(volume, "extrema", counted)
        monkeypatch.setattr(scanio, "extrema", counted)
        read_volume(path)
        assert len(calls) == 1

    @pytest.mark.parametrize("vox_offset", [np.nan, np.inf])
    def test_non_finite_vox_offset(self, rng, tmp_path, vox_offset):
        v = make_volume(rng, dims=(4, 4, 4))
        path = tmp_path / "vol.nii"
        write_volume(v, path)
        blob = self._raw_header_and_payload(path)
        struct.pack_into("<f", blob, 108, vox_offset)
        path.write_bytes(bytes(blob))
        with pytest.raises(VolumeLoadError, match="vox_offset") as exc:
            read_volume(path)
        assert str(path) in str(exc.value)

    def test_pixdim_honored(self, tmp_path):
        # typical DS1-style SWI acquisition geometry
        v = Volume3D(np.zeros((6, 6, 6)), (0.93, 0.93, 1.75))
        path = tmp_path / "vol.nii"
        write_volume(v, path)
        back = read_volume(path)
        assert np.allclose(back.spacing, (0.93, 0.93, 1.75), atol=1e-6)

    def test_scl_slope_inter_applied(self, rng, tmp_path):
        v = make_volume(rng, dims=(5, 5, 5))
        path = tmp_path / "vol.nii"
        write_volume(v, path, "float32")
        blob = self._raw_header_and_payload(path)
        struct.pack_into("<2f", blob, 112, 2.0, 10.0)
        path.write_bytes(bytes(blob))
        back = read_volume(path)
        assert np.allclose(back.intensities, v.intensities.astype(np.float32) * 2.0 + 10.0, atol=1e-4)

    def test_axis_permutation_and_flip_normalized(self, rng, tmp_path):
        # canonical volume, stored with axes permuted (z, x, y) and x flipped
        arr = rng.normal(0, 1, (6, 8, 10))
        stored = np.transpose(arr, (2, 0, 1))[:, ::-1, :]  # axis0=z, axis1=-x, axis2=y
        dims = stored.shape
        header = bytearray(348)
        struct.pack_into("<i", header, 0, 348)
        struct.pack_into("<8h", header, 40, 3, *dims, 1, 1, 1, 1)
        struct.pack_into("<h", header, 70, 16)
        struct.pack_into("<h", header, 72, 32)
        struct.pack_into("<8f", header, 76, 1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0)
        struct.pack_into("<f", header, 108, 352.0)
        struct.pack_into("<2h", header, 252, 0, 1)
        # world = R @ index + t ; data axis 0 -> +z, axis 1 -> -x, axis 2 -> +y
        srow = np.array(
            [
                [0.0, -1.0, 0.0, 5.0],
                [0.0, 0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0, -2.0],
            ]
        )
        struct.pack_into("<12f", header, 280, *srow.ravel())
        struct.pack_into("<4s", header, 344, b"n+1\x00")
        payload = stored.astype("<f4").tobytes(order="F")
        path = tmp_path / "perm.nii"
        path.write_bytes(bytes(header) + b"\x00" * 4 + payload)

        back = read_volume(path)
        assert back.dims == (6, 8, 10)
        assert np.allclose(back.intensities, arr.astype(np.float32))
        # flipped x: origin moves to the low end of the x span
        assert back.origin == (5.0 - (6 - 1), 0.0, -2.0)

    def test_oblique_rotation_warns(self, rng, tmp_path):
        v = make_volume(rng, dims=(5, 5, 5))
        path = tmp_path / "vol.nii"
        write_volume(v, path)
        blob = self._raw_header_and_payload(path)
        theta = np.deg2rad(10.0)
        rot = np.array(
            [
                [np.cos(theta), -np.sin(theta), 0.0],
                [np.sin(theta), np.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        ) @ np.diag(v.spacing)
        srow = np.column_stack([rot, np.asarray(v.origin)])
        struct.pack_into("<12f", blob, 280, *srow.ravel())
        path.write_bytes(bytes(blob))
        with pytest.warns(ObliqueOrientationWarning):
            read_volume(path)


# A fixed volume whose values are exact in float32 and int16, and a mask on its grid.
FROZEN_DIMS = (64, 70, 33)
FROZEN_INDEX = np.arange(np.prod(FROZEN_DIMS), dtype=np.int64).reshape(FROZEN_DIMS)
FROZEN_GEOMETRY = ((0.93, 0.93, 1.75), (-5.0, 3.0, 0.0))
# sha256 of the decoded (gunzipped) files, frozen from the level-9 single-stream writer.
FROZEN_DECODED_SHA256 = {
    "float32": "ff40fdddabcb04d02cde7108fff7dd8606dc80bfc9cbe3d4263bea511a144622",
    "int16": "9403153390516e2cefed54fd9cd097a05e134f203bd7e40dcdfb0ecbff479063",
    "mask": "bd884df6d3bf58ce552cd8a725d7f07013d4f0caa81b553526040b248b34311d",
}


def write_frozen(kind, path):
    if kind == "mask":
        write_mask(LabelMask((FROZEN_INDEX * 7919 % 13 < 3).astype(np.uint8), *FROZEN_GEOMETRY), path)
    else:
        write_volume(Volume3D((FROZEN_INDEX * 7919 % 65521) / 8.0 - 1000.0, *FROZEN_GEOMETRY), path, kind)


def member_lengths(blob):
    """The length in ``blob`` of each of its gzip members, from the 4 bytes after each member's ``GZIP_HEADER``."""
    lengths, pos = [], 0
    while pos < len(blob):
        assert blob[pos : pos + 16] == scanio.GZIP_HEADER
        lengths.append(int.from_bytes(blob[pos + 16 : pos + 20], "little"))
        pos += lengths[-1]
    assert pos == len(blob)  # the lengths lead from member to member, and the last ends the file
    return lengths


def members(blob):
    """The gzip members of ``blob``, cut where their lengths say."""
    lengths = member_lengths(blob)
    return [blob[end - length : end] for end, length in zip(np.cumsum(lengths), lengths)]


def gunzip_member(member):
    """The decoded data of ``member``, which must be exactly one gzip member."""
    d = zlib.decompressobj(wbits=31)
    out = d.decompress(member)
    assert d.eof and d.unused_data == b""
    return out


def gunzip_members(blob):
    return b"".join(gunzip_member(m) for m in members(blob))


class TestGzipWriter:
    @pytest.mark.parametrize("kind", sorted(FROZEN_DECODED_SHA256))
    def test_decoded_bytes_frozen(self, kind, tmp_path):
        path = tmp_path / "vol.nii.gz"
        write_frozen(kind, path)
        blob = path.read_bytes()
        # FEXTRA only (no name), mtime 0, XFL 4, OS unknown; an 8-byte extra field, one 4-byte subfield CM
        assert blob[:16] == b"\x1f\x8b\x08\x04\x00\x00\x00\x00\x04\xff\x08\x00CM\x04\x00"
        decoded = gunzip_members(blob)
        assert hashlib.sha256(decoded).hexdigest() == FROZEN_DECODED_SHA256[kind]
        with gzip.open(path) as fh:
            assert fh.read() == decoded

    @pytest.mark.parametrize(
        "dims",
        [(64, 64, 64), (64, 64, 128), (65, 37, 109), (5, 5, 5)],
        ids=["one-chunk", "two-chunks", "one-chunk-plus-1-byte", "under-one-chunk"],
    )
    def test_payload_sizes_round_trip(self, dims, rng, tmp_path):
        m = LabelMask((rng.uniform(0, 1, dims) > 0.7).astype(np.uint8))
        path = tmp_path / "mask.nii.gz"
        write_mask(m, path)
        assert len(gunzip_members(path.read_bytes())) == 352 + int(np.prod(dims))
        assert len(members(path.read_bytes())) == 1 + -(-int(np.prod(dims)) // scanio.GZIP_CHUNK)
        assert np.array_equal(read_mask(path).labels, m.labels)

    def test_bytes_independent_of_worker_count(self, tmp_path):
        blobs = []
        for workers in (1, 4, 4):
            path = tmp_path / f"vol-{len(blobs)}.nii.gz"
            with volume.threads(workers):
                write_frozen("float32", path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]


def entry(scan_id="s1", subject="p1", centers=(), p_cmb=None):
    return ScanManifestEntry(
        scan_id=scan_id,
        subject_id=subject,
        dataset_tag="PHANTOM",
        path=f"{scan_id}.nii.gz",
        cmb_centers=tuple(WorldPoint(*c) for c in centers),
        p_cmb=p_cmb,
        acquisition=Acquisition(3.0, 20.0, 1.75, "SIM"),
    )


def with_member_lengths(blob, lengths):
    """``blob`` with the header of its ``i``-th gzip member giving the length ``lengths[i]``; no member moves."""
    out = bytearray(blob)
    for at, length in zip(np.cumsum([0] + member_lengths(blob)[:-1]), lengths):
        struct.pack_into("<I", out, int(at) + 16, length)
    return bytes(out)


class TestGzipReader:
    def test_each_member_inflates_alone_to_its_slice(self, tmp_path):
        path = tmp_path / "vol.nii.gz"
        write_frozen("float32", path)
        blob = path.read_bytes()
        decoded = gzip.decompress(blob)
        pieces = [gunzip_member(m) for m in members(blob)]
        # the NIfTI header, then 256 KiB chunks of the payload
        assert [len(p) for p in pieces] == [352, scanio.GZIP_CHUNK, scanio.GZIP_CHUNK, len(decoded) - 352 - 2 * scanio.GZIP_CHUNK]
        assert b"".join(pieces) == decoded
        with gzip.open(path) as fh:
            assert fh.read() == decoded
        assert bytes(scanio._inflate(blob, scanio._member_bounds(blob))) == decoded

    def test_reads_the_same_on_any_thread_count(self, tmp_path):
        path = tmp_path / "vol.nii.gz"
        write_frozen("float32", path)
        arrays = []
        for workers in (1, 4):
            with volume.threads(workers):
                arrays.append(read_volume(path).intensities)
        assert np.array_equal(arrays[0], arrays[1])

    def test_foreign_single_member_file_reads(self, tmp_path):
        """A gzip member without member lengths, as `gzip` writes it, is inflated as one member of its ISIZE."""
        one = tmp_path / "one.nii.gz"
        write_frozen("float32", one)
        foreign = tmp_path / "foreign.nii.gz"
        foreign.write_bytes(gzip.compress(gzip.decompress(one.read_bytes())))
        blob = foreign.read_bytes()
        assert scanio._member_bounds(blob) == [0, len(blob)]
        assert bytes(scanio._inflate(blob, [0, len(blob)])) == gzip.decompress(blob)
        assert np.array_equal(read_volume(foreign).intensities, read_volume(one).intensities)

    @pytest.mark.parametrize(
        "lengths",
        [
            {1: +1, 2: -1},  # a member boundary moves a byte: the lengths still lead to the end
            {1: -1, 2: +1},
            {3: +1},  # the lengths lead past the end
            {0: -1},  # the lengths stop short of the end
        ],
        ids=["boundary-later", "boundary-earlier", "sum-past-the-end", "sum-short-of-the-end"],
    )
    def test_damaged_member_length_reads_through_gzip(self, tmp_path, lengths):
        """The members of a file whose lengths are wrong do not inflate alone: gzip reads the right data."""
        path = tmp_path / "vol.nii.gz"
        write_frozen("float32", path)
        expected = read_volume(path).intensities
        blob = path.read_bytes()
        damaged = member_lengths(blob)
        for member, delta in lengths.items():
            damaged[member] += delta
        blob = with_member_lengths(blob, damaged)
        path.write_bytes(blob)
        with pytest.raises(zlib.error):
            scanio._inflate(blob, scanio._member_bounds(blob))
        assert np.array_equal(read_volume(path).intensities, expected)

    def test_member_with_a_bad_crc_is_corrupt(self, tmp_path):
        """A member whose data inflates to its length but not to its CRC-32 is an error, not data."""
        path = tmp_path / "mask.nii.gz"
        write_frozen("mask", path)
        first, *rest = members(path.read_bytes())
        ones = zlib.compressobj(1, zlib.DEFLATED, -15)
        ones = ones.compress(b"\x01" * 352) + ones.flush()  # in place of the NIfTI header
        first = scanio.GZIP_HEADER + struct.pack("<I", 20 + len(ones) + 8) + ones + first[-8:]
        path.write_bytes(first + b"".join(rest))
        assert member_lengths(path.read_bytes())[1:] == [len(m) for m in rest]
        with pytest.raises(VolumeLoadError, match="corrupt gzip stream"):
            read_mask(path)

    def test_multi_member_file_reads_like_one_member(self, tmp_path):
        one = tmp_path / "one.nii.gz"
        write_frozen("float32", one)
        decoded = gzip.decompress(one.read_bytes())
        two = tmp_path / "two.nii.gz"
        two.write_bytes(gzip.compress(decoded[:1000]) + gzip.compress(decoded[1000:]))
        assert np.array_equal(read_volume(two).intensities, read_volume(one).intensities)

    @pytest.mark.parametrize("cut", [4, 8, 9])  # inside the size, inside the CRC, into the deflate stream
    def test_cut_stream_is_truncated(self, tmp_path, cut):
        path = tmp_path / "vol.nii.gz"
        write_frozen("float32", path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(TruncatedPayloadError):
            read_volume(path)

    def test_garbage_after_the_member_is_corrupt(self, tmp_path):
        path = tmp_path / "vol.nii.gz"
        write_frozen("float32", path)
        path.write_bytes(path.read_bytes() + b"not gzip")
        with pytest.raises(VolumeLoadError, match="corrupt gzip stream"):
            read_volume(path)


class TestManifest:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text("")
        assert read_manifest(path) == []

    def test_round_trip(self, tmp_path):
        entries = [entry("a", centers=[(1, 2, 3), (4, 5, 6), (7, 8, 9)], p_cmb=0.4), entry("b")]
        path = tmp_path / "manifest.jsonl"
        write_manifest(entries, path)
        back = read_manifest(path)
        assert back == entries
        assert len(back[0].cmb_centers) == 3
        assert back[0].cmb_centers[1] == WorldPoint(4.0, 5.0, 6.0)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("p_cmb", 1.5),
            ("p_cmb", "high"),
            ("cmb_centers", [["a", 1, 2]]),
            ("cmb_centers", 5),
            ("cmb_centers", [[float("nan"), 1, 2]]),
            ("cmb_centers", [[1, float("inf"), 2]]),
            ("echo_time_ms", "long"),
            ("field_strength_tesla", -3),
            ("echo_time_ms", float("nan")),
            ("slice_thickness_mm", float("inf")),
            ("scan_id", None),
            ("scan_id", 3),
            ("scan_id", ""),
            ("scan_id", "../../x"),
            ("scan_id", "a/b"),
            ("scan_id", "a\\b"),
            ("scan_id", ".."),
            ("subject_id", 3),
            ("subject_id", None),
            ("path", ["a.nii.gz"]),
            ("scanner_model", None),
            ("p_cmb", True),
            ("p_cmb", "0.5"),
            ("cmb_centers", [[True, 1, 2]]),
            ("field_strength_tesla", True),
            ("echo_time_ms", "20"),
            (
                "acquisition",
                {
                    "field_strength_tesla": 3.0,
                    "echo_time_ms": 20.0,
                    "echo_time": 20.0,
                    "slice_thickness_mm": 1.75,
                    "scanner_model": "SIM",
                },
            ),
        ],
    )
    def test_p_cmb_out_of_range(self, tmp_path, key, value):
        """A value of the wrong type or out of range is a manifest error that names its line."""
        rec = entry("a").to_json()
        (rec["acquisition"] if key in rec["acquisition"] else rec)[key] = value
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ManifestError, match="line 1"):
            read_manifest(path)

    def test_duplicate_scan_id(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        write_manifest([entry("a")], path)
        with open(path, "a") as fh:
            fh.write(json.dumps(entry("a").to_json()) + "\n")
        with pytest.raises(ManifestError, match="line 2.*duplicate"):
            read_manifest(path)

    def test_error_names_line(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        good = json.dumps(entry("a").to_json())
        path.write_text(good + "\n" + "{not json}\n")
        with pytest.raises(ManifestError, match="line 2"):
            read_manifest(path)

    def test_bad_tag(self, tmp_path):
        rec = entry("a").to_json()
        rec["dataset_tag"] = "DS9"
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ManifestError, match="dataset_tag"):
            read_manifest(path)
