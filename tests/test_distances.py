import numpy as np
import pytest

import ivfbalance.distances as distances
from ivfbalance.distances import sq_norms, sqdist_to_centroids


class TestCachedNorms:
    @pytest.mark.parametrize("k", [1, 3, 17])
    def test_cached_norms_match_across_chunks(self, rng, monkeypatch, k):
        d = 8
        monkeypatch.setattr(distances, "_CHUNK_ELEMS", 5 * k * d)  # 5-row chunks
        x = rng.standard_normal((37, d)).astype(np.float32)
        c = rng.standard_normal((k, d)).astype(np.float32)
        x64 = x.astype(np.float64)
        want = sqdist_to_centroids(x, c)
        got = sqdist_to_centroids(x64, c, sq_norms(x64))
        assert got.tobytes() == want.tobytes()

    def test_x_sq_is_shape_and_dtype_checked(self, rng):
        x = rng.standard_normal((6, 3))
        with pytest.raises(ValueError, match="x_sq"):
            sqdist_to_centroids(x, x[:2], np.zeros(5))
        with pytest.raises(ValueError, match="x_sq"):
            sqdist_to_centroids(x, x[:2], sq_norms(x).astype(np.float32))
