import re
import struct
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ivfbalance.dataset as dataset
from ivfbalance import VectorSet, gen_gaussian_mixture, load_fvecs, mixture_centers, save_fvecs
from ivfbalance.dataset import decode_fvecs

from oracles import decode_fvecs_walking, gaussian_mixture_one_shot


def records_bytes(records, fmt="f"):
    """fvecs/bvecs bytes of (declared dim, components) pairs, independent of
    the library's encoder."""
    return b"".join(struct.pack(f"<i{len(vec)}{fmt}", dim, *vec) for dim, vec in records)


def write_records(path, records, fmt="f"):
    """Raw fvecs/bvecs writer independent of the library's encoder."""
    path.write_bytes(records_bytes([(len(vec), vec) for vec in records], fmt))


class TestLoadFvecs:
    def test_two_records(self, tmp_path):
        path = tmp_path / "a.fvecs"
        write_records(path, [[1.0, 2.0], [3.0, 4.0]])
        vs = load_fvecs(path)
        assert (vs.dim, vs.count) == (2, 2)
        assert vs.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_empty_file_is_empty_sentinel(self, tmp_path):
        path = tmp_path / "empty.fvecs"
        path.write_bytes(b"")
        vs = load_fvecs(path)
        assert (vs.dim, vs.count) == (0, 0)

    def test_dimension_mismatch_reports_record_index(self, tmp_path):
        path = tmp_path / "bad.fvecs"
        write_records(path, [[1.0, 2.0], [1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match="record 1"):
            load_fvecs(path)

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "trunc.fvecs"
        write_records(path, [[1.0, 2.0]])
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(ValueError, match="truncated"):
            load_fvecs(path)

    def test_nonpositive_dim(self, tmp_path):
        path = tmp_path / "zero.fvecs"
        path.write_bytes(struct.pack("<i", 0))
        with pytest.raises(ValueError, match="dim"):
            load_fvecs(path)

    def test_nonfinite_value_rejected_with_record(self, tmp_path):
        path = tmp_path / "nan.fvecs"
        write_records(path, [[1.0, 2.0], [float("nan"), 0.0]])
        with pytest.raises(ValueError, match="record 1"):
            load_fvecs(path)

    def test_nonfinite_error_names_file_record_and_component(self, tmp_path):
        path = tmp_path / "inf.fvecs"
        write_records(path, [[1.0, 2.0, 3.0], [4.0, 5.0, float("inf")], [float("nan")] * 3])
        with pytest.raises(ValueError) as err:
            load_fvecs(path)
        assert str(err.value) == f"{path}: non-finite value at record 1, component 2"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_fvecs(tmp_path / "nope.fvecs")

    def test_bvecs_widens_to_float32(self, tmp_path):
        path = tmp_path / "b.bvecs"
        write_records(path, [[0, 128, 255], [1, 2, 3]], fmt="B")
        vs = load_fvecs(path)
        assert vs.data.dtype == np.float32
        assert vs.data.tolist() == [[0.0, 128.0, 255.0], [1.0, 2.0, 3.0]]


def decoded(decode, raw, path):
    """What ``decode`` makes of ``raw``: the data's shape and bytes, or the
    error message, in which a non-finite value's component is dropped (the
    walking decoder names only its record)."""
    try:
        vs = decode(raw, path)
    except ValueError as err:
        return re.sub(r"at record (\d+), component \d+", r"in record \1", str(err))
    assert vs.data.dtype == np.float32
    return vs.data.shape, vs.data.tobytes()


NONFINITE = (float("nan"), float("inf"), float("-inf"))


@st.composite
def vectors_files(draw):
    """Up to 5 records of declared dims -2..6 (one dim for all in half the
    cases), non-finite components among the fvecs ones, and a cut at a
    random byte in 30% of the cases."""
    path = draw(st.sampled_from(["x.fvecs", "x.bvecs"]))
    component = (st.integers(0, 255) if path.endswith(".bvecs") else
                 st.floats(width=32) | st.sampled_from(NONFINITE))
    dims = draw(st.lists(st.integers(-2, 6), max_size=5))
    if dims and draw(st.booleans()):
        dims = [dims[0]] * len(dims)
    raw = records_bytes([(d, draw(st.lists(component, min_size=max(d, 0), max_size=max(d, 0))))
                         for d in dims], "B" if path.endswith(".bvecs") else "f")
    if raw and draw(st.integers(0, 9)) < 3:
        raw = raw[: draw(st.integers(0, len(raw) - 1))]
    return raw, path


@st.composite
def malformed_vectors_files(draw):
    """A well-formed file of 1-5 records with 1-3 defects, each of which
    alone makes it malformed and which the others leave so: a header other
    than the dim (<= 0 at record 0, whose dim sets the record size), a
    non-finite fvecs component, or a cut inside a record."""
    path = draw(st.sampled_from(["x.fvecs", "x.bvecs"]))
    bvecs = path.endswith(".bvecs")
    dim, n = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    component = st.integers(0, 255) if bvecs else st.floats(width=32, allow_nan=False,
                                                           allow_infinity=False)
    records = [[dim, draw(st.lists(component, min_size=dim, max_size=dim))] for _ in range(n)]
    kinds = ["header", "cut"] if bvecs else ["header", "cut", "nonfinite"]
    defects = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3))
    for defect in defects:
        j = draw(st.integers(0, n - 1))
        if defect == "header":
            # -2..6 but the dim; only <= 0 at record 0.
            other = st.integers(-2, 0) if j == 0 else st.integers(-2, 5).map(lambda v: v + (v >= dim))
            records[j][0] = draw(other)
        elif defect == "nonfinite":
            records[j][1][draw(st.integers(0, dim - 1))] = draw(st.sampled_from(NONFINITE))
    raw = records_bytes(records, "B" if bvecs else "f")
    if "cut" in defects:
        record_size = 4 + dim * (1 if bvecs else 4)
        j, offset = draw(st.integers(0, n - 1)), draw(st.integers(1, record_size - 1))
        raw = raw[: j * record_size + offset]
    return raw, path


class TestDecodeMatchesWalkingDecoder:
    """``decode_fvecs`` finds the first malformed record in one pass over the
    headers; the decoder that walked the records (tests/oracles.py) is the
    reference for which record each error names, and why."""

    @given(malformed_vectors_files())
    @settings(max_examples=1000, deadline=None)
    @example((b"\x02\x00", "x.fvecs"))  # under 4 bytes
    @example((records_bytes([(2, [1.0, 2.0]), (2, [3.0, 4.0])])[:14], "x.fvecs"))  # header cut
    @example((records_bytes([(2, [1, 2]), (0, []), (2, [3, 4])], "B"), "x.bvecs"))  # dim 0 mid-file
    @example((records_bytes([(2, [1.0, 2.0]), (1, [3.0, 4.0])]), "x.fvecs"))  # sizes fit, dims mix
    def test_malformed_files(self, case):
        raw, path = case
        want = decoded(decode_fvecs_walking, raw, path)
        assert isinstance(want, str)
        assert decoded(decode_fvecs, raw, path) == want

    @given(vectors_files())
    @settings(max_examples=500, deadline=None)
    def test_any_file(self, case):
        raw, path = case
        assert decoded(decode_fvecs, raw, path) == decoded(decode_fvecs_walking, raw, path)


class TestSaveFvecs:
    def test_record_layout(self, tmp_path):
        vs = VectorSet.from_array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "out.fvecs"
        save_fvecs(vs, path)
        assert path.stat().st_size == 2 * (4 + 2 * 4)

    def test_roundtrip_bit_exact(self, tmp_path, rng):
        vs = VectorSet.from_array(rng.standard_normal((1000, 128)))
        path = tmp_path / "rt.fvecs"
        save_fvecs(vs, path)
        first = path.read_bytes()
        reloaded = load_fvecs(path)
        assert np.array_equal(
            reloaded.data.view(np.uint32), vs.data.view(np.uint32)
        )
        save_fvecs(reloaded, path)
        assert path.read_bytes() == first

    def test_file_holds_the_encoded_bytes(self, tmp_path, rng):
        vs = VectorSet.from_array(rng.standard_normal((9, 3)))
        save_fvecs(vs, tmp_path / "a.fvecs")
        write_records(tmp_path / "want.fvecs", vs.data.tolist())
        assert (tmp_path / "a.fvecs").read_bytes() == (tmp_path / "want.fvecs").read_bytes()
        loaded = load_fvecs(tmp_path / "a.fvecs")
        assert loaded.data.dtype == np.float32 and loaded.data.flags.c_contiguous

    def test_empty_set_writes_zero_bytes(self, tmp_path):
        path = tmp_path / "none.fvecs"
        save_fvecs(VectorSet.empty(), path)
        assert path.stat().st_size == 0


class TestVectorSet:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            VectorSet.from_array([[1.0, float("inf")]])

    def test_data_is_read_only(self, small_set):
        with pytest.raises(ValueError):
            small_set.data[0, 0] = 1.0

    def test_keys_are_read_only(self, small_set):
        keys = small_set.keys
        assert keys.points is small_set.data
        for array in (keys.half, keys.frame.center):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_threads_reading_fresh_keys_at_once_get_equal_bits(self):
        data = VectorSet.from_array(np.random.default_rng(4).standard_normal((20_000, 16)))
        start = threading.Barrier(4)

        def read(_):
            start.wait()
            return data.keys

        with ThreadPoolExecutor(4) as pool:
            seen = list(pool.map(read, range(4)))
        for keys in seen:
            assert keys.half.tobytes() == seen[0].half.tobytes()
            assert keys.frame.center.tobytes() == seen[0].frame.center.tobytes()
            assert keys.frame[1:] == seen[0].frame[1:]


class TestGenGaussianMixture:
    def test_deterministic(self):
        a = gen_gaussian_mixture(7, 200, 3, 2, [0.5, 0.5], 1.0)
        b = gen_gaussian_mixture(7, 200, 3, 2, [0.5, 0.5], 1.0)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize(
        "args",
        [
            (12, 100_000, 32, 5, (0.5, 0.2, 0.15, 0.1, 0.05), 0.1, 42),
            (3, 1001, 5, 2, (1.0, 2.0), 0.5, None),
            (1, 1, 1, 1, (1.0,), 1.0, None),
        ],
    )
    @pytest.mark.parametrize("block_elems", [None, 6 * 5])  # 6 rows at dim 5: 1001 = 166·6 + 5
    def test_row_blocks_match_one_shot_draw(self, args, block_elems, monkeypatch):
        if block_elems is not None:
            monkeypatch.setattr(dataset, "_GEN_BLOCK_ELEMS", block_elems)
        *head, centers_from_seed = args
        got = gen_gaussian_mixture(*head, centers_from_seed=centers_from_seed)
        want = gaussian_mixture_one_shot(*args)
        assert got.data.tobytes() == want.data.tobytes()

    def test_sample_mean_near_mode_center(self):
        vs = gen_gaussian_mixture(7, 1000, 2, 1, [1.0], 1.0)
        center = mixture_centers(7, 2, 1)[0]
        # sigma/sqrt(n) ~ 0.032 per axis; 0.2 is a ~6 sigma budget
        assert np.all(np.abs(vs.data.mean(axis=0) - center) < 0.2)

    def test_weighted_split_within_binomial_3sigma(self):
        weights = [0.9, 0.1]
        vs = gen_gaussian_mixture(11, 1000, 2, 2, weights, 0.02)
        centers = mixture_centers(11, 2, 2)
        assert np.linalg.norm(centers[0] - centers[1]) > 0.3  # modes separated
        d2 = ((vs.data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argmin(d2, axis=1)
        heavy = int((nearest == 0).sum())
        sigma = np.sqrt(1000 * 0.9 * 0.1)
        assert abs(heavy - 900) <= 3 * sigma

    def test_centers_from_seed_pins_layout(self):
        held_out = gen_gaussian_mixture(99, 500, 4, 3, [1, 1, 1], 0.05, centers_from_seed=7)
        centers = mixture_centers(7, 4, 3)
        d2 = ((held_out.data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assert d2.min(axis=1).max() < 1.0  # every point near one of seed-7's modes

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(seed=1, n=0, dim=2, modes=1, mode_weights=[1.0], spread=1.0),
            dict(seed=1, n=10, dim=0, modes=1, mode_weights=[1.0], spread=1.0),
            dict(seed=1, n=10, dim=2, modes=0, mode_weights=[], spread=1.0),
            dict(seed=1, n=10, dim=2, modes=1, mode_weights=[1.0], spread=0.0),
            dict(seed=1, n=10, dim=2, modes=2, mode_weights=[1.0, -0.5], spread=1.0),
            dict(seed=1, n=10, dim=2, modes=2, mode_weights=[1.0], spread=1.0),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            gen_gaussian_mixture(**kwargs)

    def test_nan_spread_rejected_before_drawing(self):
        with pytest.raises(ValueError, match="spread must be positive"):
            gen_gaussian_mixture(1, 10, 2, 1, [1.0], float("nan"))
