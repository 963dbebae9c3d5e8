"""No stage of the write path or of routing holds an n×k float64 matrix,
balancing holds no n×k array at all, the set-up path holds one copy of
the vectors, neither ground truth, k-means++ nor the Lloyd mean update
makes an n×d float64 copy of the data, the exact kernel holds one block of
rows at a time, and the checksums of the data hash its buffer in place.

``tracemalloc`` sees numpy's buffers, so the peak it reports is the live
memory a stage allocates, apart from where the allocator places it. The
shape has k ≫ d and small kernel row blocks, so an n×k matrix would
dominate every other allocation.
"""

import tracemalloc

import numpy as np
import pytest

import ivfbalance.distances as distances
from ivfbalance import (
    Assignment,
    BalanceConfig,
    Centroids,
    Codebook,
    StopRule,
    VectorSet,
    balance,
    brute_force_nn,
    build,
    gen_gaussian_mixture,
    load_fvecs,
    lloyd_full,
    save_fvecs,
)
from ivfbalance.index import route_cells_batch, save_index
from ivfbalance.kmeans import INIT_KMEANS_PP, _update_means, init_centroids

from conftest import random_vectors

N, D, K = 4000, 4, 256
MATRIX = 8 * N * K  # bytes of one n×k float64 matrix


def peak_bytes(fn):
    """(result, peak bytes that ``fn()`` allocated on top of what was live)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def data(monkeypatch):
    monkeypatch.setattr(distances, "_CHUNK_ELEMS", 64 * K * D)  # 64-row blocks
    return random_vectors(np.random.default_rng(5), N, D)


def test_each_stage_stays_far_below_one_matrix(data):
    result, peak = peak_bytes(lambda: lloyd_full(data, K, seed=1, max_iters=2))
    assert peak < MATRIX / 8
    codebook = Codebook.fresh(result.centroids)
    config = BalanceConfig(stop=StopRule.fixed_iters(4), alpha=0.1)
    (codebook, _), peak = peak_bytes(lambda: balance(data, codebook, config))
    # Each point's candidates and bounds (96 bytes at TOP_L = 16) and one
    # iteration's keys of them, not its float32 products with every
    # centroid (MATRIX / 2).
    assert peak < MATRIX / 4
    _, peak = peak_bytes(lambda: build(data, codebook))
    assert peak < MATRIX / 8
    _, peak = peak_bytes(lambda: route_cells_batch(data.data, codebook, 1))
    assert peak < MATRIX / 8


def test_set_up_path_holds_one_copy_of_the_vectors(tmp_path):
    n, d = 100_000, 8
    vectors = n * d * 4  # bytes of the float32 output
    # The labels (8n bytes) plus float64 row blocks, not three n×d float64 arrays.
    data, peak = peak_bytes(lambda: gen_gaussian_mixture(1, n, d, 3, [1, 1, 1], 0.5))
    assert peak < vectors + 8 * n + vectors / 2
    path = tmp_path / "x.fvecs"
    record = vectors + 4 * n
    _, peak = peak_bytes(lambda: save_fvecs(data, path))
    assert peak < record * 1.25
    # The file's bytes, one float32 copy and the finiteness mask.
    _, peak = peak_bytes(lambda: load_fvecs(path))
    assert peak < record + vectors + n * d + vectors / 4


def test_ground_truth_and_mean_update_hold_no_widened_copy():
    n, d, k = 50_000, 16, 256
    rng = np.random.default_rng(3)
    data = random_vectors(rng, n, d)
    widened = 8 * n * d  # bytes of one n×d float64 array
    # Per call: the points' ids and centered half norms (12 bytes a point);
    # per block of queries, one tile of float32 keys, its mask and the
    # first tile's partition (about 1.2 MB at 32 queries); per query, the
    # exact kernel over the few points the block pre-cut keeps.
    _, peak = peak_bytes(lambda: brute_force_nn(data, random_vectors(rng, 20, d), 10))
    assert peak < widened / 2
    cells = Assignment(rng.integers(0, k, n), k)
    previous = random_vectors(rng, k, d)
    _, peak = peak_bytes(lambda: _update_means(data, cells, Centroids(previous.data)))
    assert peak < widened / 2


def test_kmeans_pp_holds_no_widened_copy():
    n, d = 50_000, 32
    data = random_vectors(np.random.default_rng(6), n, d)
    # The rows' keys, the weights and their float32 halves, a float32
    # buffer of n keys, the ids and weights of a draw's re-scored rows, and
    # the exact kernel's block of differences (2.4 MB of 3.2 here, where a
    # draw can re-score a third of the rows).
    _, peak = peak_bytes(lambda: init_centroids(data, 8, seed=1, method=INIT_KMEANS_PP))
    assert peak < 8 * n * d / 4


def test_ground_truth_past_the_keys_holds_no_block_of_every_row():
    # Half norms past float32's range: the key cut claims nothing, and every
    # query scores all rows exactly, one block of rows at a time.
    n, d = 50_000, 32
    rng = np.random.default_rng(4)
    data = VectorSet.from_array(rng.standard_normal((n, d)) * 1e19)
    queries = VectorSet.from_array(rng.standard_normal((4, d)) * 1e19)
    assert data.keys.frame.h_max == np.inf
    _, peak = peak_bytes(lambda: brute_force_nn(data, queries, 10))
    assert peak < 8 * n * d / 4


def test_data_checksums_hash_the_buffer_in_place(tmp_path):
    n, d = 10_000, 64
    rng = np.random.default_rng(8)
    data = random_vectors(rng, n, d)
    copy = 4 * n * d  # bytes of one copy of the data
    index = build(data, Codebook.fresh(Centroids(data.data[:16].copy())))
    _, peak = peak_bytes(lambda: save_index(index, tmp_path / "idx"))
    assert peak < copy / 2
