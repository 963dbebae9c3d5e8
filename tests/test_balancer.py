import warnings
from fractions import Fraction

import numpy as np
import pytest

from ivfbalance import (
    BalanceConfig,
    Centroids,
    Codebook,
    StopRule,
    VectorSet,
    assign_balanced,
    assign_plain,
    balance,
    gen_gaussian_mixture,
    lloyd_full,
    update_penalties,
)
import ivfbalance.balancer as balancer_mod
import ivfbalance.distances as distances_mod
from ivfbalance.balancer import B_FLOOR
from ivfbalance.distances import key_bounds, sqdist_pairs
from ivfbalance.index import build, load_codebook, save_codebook

from conftest import integer_tie_fixture, random_vectors
from oracles import (
    balance_recomputing,
    embed_augmented,
    embed_points,
    penalized_distance_sq,
)


def codebook_1d(centroid_values, penalties):
    cents = Centroids(np.array(centroid_values, dtype=np.float32).reshape(-1, 1))
    return Codebook(cents, np.array(penalties, dtype=np.float64))


def assign_under(data, codebook):
    """``assign_balanced`` of ``data`` under the codebook."""
    return assign_balanced(data, codebook)


class TestPenalizedDistance:
    def test_zero_at_identity(self):
        assert penalized_distance_sq(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 0.0) == 0.0

    def test_worked_example(self):
        # 9 + 16 + 1
        assert penalized_distance_sq(np.array([0.0, 0.0]), np.array([3.0, 4.0]), 1.0) == 26.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            penalized_distance_sq(np.array([0.0]), np.array([0.0, 1.0]), 0.0)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            penalized_distance_sq(np.array([0.0]), np.array([1.0]), -0.1)

    def test_matches_augmented_space(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 20))
            x = rng.standard_normal(d)
            c = rng.standard_normal(d)
            b = float(rng.uniform(0, 5))
            direct = penalized_distance_sq(x, c, b)
            lifted_c = np.concatenate([c, [np.sqrt(b)]])
            lifted_x = np.concatenate([x, [0.0]])
            plain = float(np.sum((lifted_x - lifted_c) ** 2))
            assert direct == pytest.approx(plain, rel=1e-9)


class TestAssignBalanced:
    def test_uniform_penalties_match_plain(self, rng):
        data = random_vectors(rng, 500, 8)
        cents = Centroids(data.data[:16].copy())
        for beta in (0.0, 1.0, 7.5):
            cb = Codebook(cents, np.full(16, beta))
            balanced = assign_under(data, cb)
            plain = assign_plain(data, cents)
            assert np.array_equal(balanced.cell_of, plain.cell_of)

    def test_penalty_flips_cell(self):
        cb = codebook_1d([0.0, 10.0], [50.0, 1.0])
        data = VectorSet.from_array([[4.0]])
        # 16+50=66 > 36+1=37
        assert assign_under(data, cb).cell_of[0] == 1

    def test_penalized_tie_breaks_low(self):
        cb = codebook_1d([0.0, 10.0], [100.0, 0.0])
        data = VectorSet.from_array([[0.0]])
        # 0+100 == 100+0 -> lowest index
        assert assign_under(data, cb).cell_of[0] == 0

    def test_dimension_mismatch(self, small_set):
        cb = Codebook.fresh(Centroids(small_set.data[:3, :-1].copy()))
        with pytest.raises(ValueError, match="dimension"):
            assign_balanced(small_set, cb)


class TestUpdatePenalties:
    def test_fixed_point_at_n_opt(self):
        cb = codebook_1d([0.0, 1.0, 2.0], [1.0, 2.0, 0.5])
        out = update_penalties(cb, np.array([10, 10, 10]), n_opt=10.0, alpha=0.3)
        assert np.array_equal(out.penalties, cb.penalties)
        assert out.iteration == cb.iteration + 1

    def test_double_population_sqrt2(self):
        cb = codebook_1d([0.0], [1.0])
        out = update_penalties(cb, np.array([20]), n_opt=10.0, alpha=0.5)
        assert out.penalties[0] == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_zero_count_clamped_to_one(self):
        cb = codebook_1d([0.0], [1.0])
        out = update_penalties(cb, np.array([0]), n_opt=100.0, alpha=0.01)
        assert out.penalties[0] == pytest.approx(0.01**0.01, rel=1e-9)
        assert out.penalties[0] == pytest.approx(0.954993, abs=1e-6)

    def test_b_floor_applies(self):
        cb = codebook_1d([0.0], [B_FLOOR])
        out = update_penalties(cb, np.array([1]), n_opt=100.0, alpha=1.0)
        assert out.penalties[0] == B_FLOOR

    @pytest.mark.parametrize("n_opt, alpha, match", [
        (float("nan"), 0.5, "n_opt must be positive"),
        (1.0, float("nan"), "alpha must be positive"),
    ])
    def test_nan_parameters_rejected(self, n_opt, alpha, match):
        cb = codebook_1d([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match=match):
            update_penalties(cb, np.array([1, 2]), n_opt=n_opt, alpha=alpha)

    def test_count_length_mismatch(self):
        cb = codebook_1d([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            update_penalties(cb, np.array([1, 2, 3]), n_opt=1.0, alpha=0.5)


class TestStopRules:
    def test_target_gamma_below_one_rejected(self):
        with pytest.raises(ValueError, match="unreachable"):
            StopRule.target_gamma(0.99)

    @pytest.mark.parametrize("f", [0.0, -0.1, 1.5])
    def test_bad_fractions(self, f):
        with pytest.raises(ValueError):
            StopRule.target_fraction(f)

    def test_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            BalanceConfig(stop=StopRule.fixed_iters(1), alpha=0.0)

    def test_nan_target_gamma_rejected(self):
        with pytest.raises(ValueError, match="unreachable"):
            StopRule.target_gamma(float("nan"))

    def test_nan_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha must be positive"):
            BalanceConfig(stop=StopRule.fixed_iters(1), alpha=float("nan"))


class FourPointFixture:
    """1-d data {0,1,2,10} with centroids {1,10}: gamma drops 1.25 -> 1.0
    when point 2 migrates, which an independent recurrence of the update
    rule places at iteration 52 (alpha=0.2)."""

    MIGRATION_ITERATION = 52

    def __init__(self):
        self.data = VectorSet.from_array([[0.0], [1.0], [2.0], [10.0]])
        self.codebook = codebook_1d([1.0, 10.0], [1.0, 1.0])


class TestBalance:
    def test_already_balanced_stops_immediately(self):
        data = VectorSet.from_array([[0.0], [0.1], [9.9], [10.0]])
        cb = codebook_1d([0.0, 10.0], [1.0, 1.0])
        config = BalanceConfig(stop=StopRule.target_gamma(1.0), alpha=0.5)
        final, trace = balance(data, cb, config)
        assert len(trace) == 1
        assert trace.records[0].gamma == 1.0
        assert np.array_equal(final.penalties, [1.0, 1.0])

    def test_four_point_migration(self):
        fx = FourPointFixture()
        config = BalanceConfig(stop=StopRule.target_gamma(1.0), alpha=0.2)
        final, trace = balance(fx.data, fx.codebook, config)
        assert trace.records[0].gamma == 1.25
        assert trace.records[-1].gamma == 1.0
        assert trace.records[-1].iteration == fx.MIGRATION_ITERATION
        assert list(trace.records[-1].counts) == [2, 2]
        # migration happens once b0 - b1 exceeds (2-10)^2 - (2-1)^2 = 63
        before = trace.records[-2].penalties
        after = trace.records[-1].penalties
        assert before[0] - before[1] <= 63.0 < after[0] - after[1]

    def test_fixed_iters_zero_returns_input(self, rng):
        data = random_vectors(rng, 50, 2)
        cb = Codebook.fresh(Centroids(data.data[:4].copy()))
        final, trace = balance(data, cb, BalanceConfig(stop=StopRule.fixed_iters(0)))
        assert final is cb
        assert len(trace) == 1

    def test_fixed_iters_exact_update_count(self, rng):
        data = random_vectors(rng, 200, 3)
        cb = Codebook.fresh(Centroids(data.data[:8].copy()))
        for r in (1, 5, 12):
            final, trace = balance(
                data, cb, BalanceConfig(stop=StopRule.fixed_iters(r))
            )
            assert final.iteration == r
            assert len(trace) == r + 1

    def test_target_fraction_interpolates_excess(self, rng):
        data = random_vectors(rng, 400, 2)
        cb = Codebook.fresh(Centroids(data.data[:8].copy()))
        config = BalanceConfig(stop=StopRule.target_fraction(0.5), alpha=0.1)
        final, trace = balance(data, cb, config)
        g0 = trace.records[0].gamma
        assert trace.records[-1].gamma <= 1.0 + 0.5 * (g0 - 1.0)

    def test_counts_always_sum_to_n(self, rng):
        data = random_vectors(rng, 300, 4)
        cb = Codebook.fresh(Centroids(data.data[:10].copy()))
        _, trace = balance(data, cb, BalanceConfig(stop=StopRule.fixed_iters(20)))
        for record in trace.records:
            assert record.counts.sum() == data.count

    def test_penalties_respect_floor(self, rng):
        data = random_vectors(rng, 100, 2)
        cb = Codebook.fresh(Centroids(data.data[:30].copy()))
        config = BalanceConfig(stop=StopRule.fixed_iters(200), alpha=0.5)
        _, trace = balance(data, cb, config)
        assert min(r.penalties.min() for r in trace.records) >= B_FLOOR

    def test_closed_form_penalty_log(self, rng):
        data = random_vectors(rng, 500, 4)
        cb = Codebook.fresh(Centroids(data.data[:6].copy()))
        alpha = 0.05
        _, trace = balance(
            data, cb, BalanceConfig(stop=StopRule.fixed_iters(30), alpha=alpha)
        )
        n_opt = data.count / 6
        for l, record in enumerate(trace.records):
            counts = np.array([trace.records[j].counts for j in range(l)], dtype=float)
            if l and (counts == 0).any():
                continue  # clamp fired; closed form no longer applies
            expected = (
                alpha * np.log(np.maximum(counts, 1) / n_opt).sum(axis=0)
                if l
                else np.zeros(6)
            )
            assert np.allclose(np.log(record.penalties), expected, atol=1e-9)

    def test_empty_data_rejected(self):
        cb = codebook_1d([0.0], [1.0])
        with pytest.raises(ValueError):
            balance(VectorSet.empty(), cb, BalanceConfig(stop=StopRule.fixed_iters(1)))

    def test_max_iters_cap_bounds_target_rules(self, rng):
        data = random_vectors(rng, 100, 2)
        cb = Codebook.fresh(Centroids(data.data[:5].copy()))
        config = BalanceConfig(
            stop=StopRule.target_gamma(1.0), alpha=1e-6, max_iters_cap=7
        )
        final, trace = balance(data, cb, config)
        assert len(trace) <= 8
        assert final.iteration <= 7


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


class TestBalanceOneMatrix:
    """``balance`` keys each point once, keeps its candidate cells and a
    bound on the others, and re-scores the points the bound leaves open;
    it must match the loop that ranks every cell of every point by exact
    distance plus penalty on every iteration."""

    def assert_matches_recomputing(self, data, cb, config):
        final, trace = balance(data, cb, config)
        want_cb, want_records, want_scale = balance_recomputing(data, cb, config)
        assert same_bits(final.penalties, want_cb.penalties)
        assert final.iteration == want_cb.iteration
        assert same_bits(trace.scale_ratio, want_scale)
        assert len(trace.records) == len(want_records)
        for rec, (iteration, gamma, counts, penalties) in zip(trace.records, want_records):
            assert rec.iteration == iteration
            assert same_bits(rec.gamma, gamma)
            assert np.array_equal(rec.counts, counts)
            assert same_bits(rec.penalties, penalties)
        return trace

    def test_one_row_past_a_block_multiple(self, rng, monkeypatch):
        k, rows = 16, 64
        monkeypatch.setattr(distances_mod, "_CHUNK_ELEMS", rows * k * 8)
        data = random_vectors(rng, 2 * rows + 1, 8)
        cb = Codebook.fresh(Centroids(data.data[:k].copy()))
        config = BalanceConfig(stop=StopRule.fixed_iters(6), alpha=0.1)
        trace = self.assert_matches_recomputing(data, cb, config)
        assert len({tuple(r.counts) for r in trace.records}) > 1

    def test_many_small_blocks(self, rng, monkeypatch):
        monkeypatch.setattr(distances_mod, "_CHUNK_ELEMS", 10 * 8 * 3)
        data = random_vectors(rng, 10 * 10 + 1, 3)
        cb = Codebook.fresh(Centroids(data.data[:8].copy()))
        config = BalanceConfig(stop=StopRule.target_fraction(0.3), alpha=0.2)
        trace = self.assert_matches_recomputing(data, cb, config)
        assert len({tuple(r.counts) for r in trace.records}) > 1

    def test_exact_ties_go_to_the_lowest_id(self, monkeypatch):
        monkeypatch.setattr(distances_mod, "_CHUNK_ELEMS", 7 * 7 * 4)
        data, cb = integer_tie_fixture()
        config = BalanceConfig(stop=StopRule.fixed_iters(10), alpha=0.2)
        trace = self.assert_matches_recomputing(data, cb, config)
        first = trace.records[0].counts
        assert first[:3].min() > 0 and first[3:6].sum() == 0

    def test_one_cell(self, rng):
        data = random_vectors(rng, 50, 3)
        cb = Codebook.fresh(Centroids(data.data[:1].copy()))
        config = BalanceConfig(stop=StopRule.fixed_iters(3))
        trace = self.assert_matches_recomputing(data, cb, config)
        assert all(r.counts.tolist() == [50] for r in trace.records)

    @pytest.mark.parametrize(
        "stop, records", [(StopRule.fixed_iters(9), 10), (StopRule.target_gamma(1.0), 5)],
        ids=["fixed", "target"],
    )
    def test_a_cap_below_the_rule_bounds_only_the_target(self, rng, stop, records):
        data = random_vectors(rng, 300, 4)
        cb = Codebook.fresh(Centroids(data.data[:10].copy()))
        config = BalanceConfig(stop=stop, alpha=1e-3, max_iters_cap=4)
        assert len(self.assert_matches_recomputing(data, cb, config)) == records

    @pytest.mark.parametrize(
        "stop", [StopRule.fixed_iters(0), StopRule.fixed_iters(9), StopRule.target_gamma(1.0)]
    )
    def test_one_distance_call_per_balance(self, rng, monkeypatch, stop):
        # Bounds come with the products: one key_bounds call per row block of
        # the first pass, then one per block of the rows each iteration
        # re-scores; the float64 kernel is never called.
        calls, blas, rescored = [], [], []
        rescore = balancer_mod.Candidates._rescore

        def counting(*args):
            calls.append(len(args[0]))
            return key_bounds(*args)

        def recording(state, x, rows, cells, out):
            rescored.append(len(rows))
            return rescore(state, x, rows, cells, out)

        monkeypatch.setattr(distances_mod, "_CHUNK_ELEMS", 64 * 24 * 4)  # 64-row blocks
        monkeypatch.setattr(distances_mod, "key_bounds", counting)
        monkeypatch.setattr(balancer_mod.Candidates, "_rescore", recording)
        monkeypatch.setattr(balancer_mod, "sqdist_to_centroids", lambda *a: blas.append(1))
        data = random_vectors(rng, 300, 4)
        cb = Codebook.fresh(Centroids(data.data[:24].copy()))
        config = BalanceConfig(stop=stop, alpha=0.1, max_iters_cap=40)
        _, trace = balance(data, cb, config)
        blocks = [min(64, n - start) for n in rescored for start in range(0, n, 64)]
        assert calls == [64] * 4 + [44] + blocks and not blas
        assert len(rescored) == len(trace)
        assert len(trace) == 1 or 0 < sum(rescored) < 300 * len(trace)

    @pytest.mark.parametrize("k", [balancer_mod.TOP_L, balancer_mod.TOP_L + 1])
    def test_every_cell_or_all_but_one_a_candidate(self, rng, monkeypatch, k):
        # Distances near the unit penalties: with one cell outside the
        # candidates, the bound sends some rows, not all, to a re-score.
        rescored, rescore = [], balancer_mod.Candidates._rescore

        def recording(state, x, rows, cells, out):
            rescored.append(len(rows))
            return rescore(state, x, rows, cells, out)

        monkeypatch.setattr(distances_mod, "_CHUNK_ELEMS", 48 * k * 4)
        monkeypatch.setattr(balancer_mod.Candidates, "_rescore", recording)
        data = random_vectors(rng, 400, 4, scale=0.3)
        cb = Codebook.fresh(Centroids(data.data[:k].copy()))
        config = BalanceConfig(stop=StopRule.fixed_iters(12), alpha=0.2)
        trace = self.assert_matches_recomputing(data, cb, config)
        assert len({tuple(r.counts) for r in trace.records}) > 1
        if k > balancer_mod.TOP_L:
            assert 0 < sum(rescored) < data.count * len(trace) / 4

    def test_a_starved_cell_is_reached_only_through_the_bound(self, rng):
        # The last cell sits amid the data with a penalty that keeps it out
        # of every point's candidates. It stays empty, so its penalty falls
        # fastest, and points cross into it only when their bound sends
        # them to a re-score.
        top = balancer_mod.TOP_L
        data = VectorSet.from_array(rng.uniform(0, 1, (400, 2)))
        points = np.vstack([rng.uniform(0, 1, (top, 2)), [[0.5, 0.5]]])
        cb = Codebook(Centroids(points.astype(np.float32)), np.r_[np.ones(top), 50.0])
        state, _ = balancer_mod.Candidates.initial(data, cb)
        assert not (state.cells == top).any()
        config = BalanceConfig(stop=StopRule.fixed_iters(20), alpha=0.2)
        trace = self.assert_matches_recomputing(data, cb, config)
        assert trace.records[0].counts[top] == 0 < trace.records[-1].counts[top]

    @pytest.mark.parametrize(
        "stop", [StopRule.target_gamma(1.0), StopRule.target_fraction(0.01)],
        ids=["gamma", "fraction"],
    )
    def test_target_rules_stop_at_the_cap(self, rng, stop):
        data = random_vectors(rng, 300, 3, scale=0.3)
        cb = Codebook.fresh(Centroids(data.data[:20].copy()))
        config = BalanceConfig(stop=stop, alpha=0.05, max_iters_cap=9)
        assert len(self.assert_matches_recomputing(data, cb, config)) == 10

    def test_rows_re_scored_stay_a_small_share(self, monkeypatch):
        # Benchmark-like data (five skewed modes, d = 32, k = 64 > TOP_L):
        # 8.9% of N x iterations are re-scored; the bound is what keeps it
        # from every row on every iteration.
        data = gen_gaussian_mixture(0, 4000, 32, 5, [0.5, 0.2, 0.15, 0.1, 0.05], 0.1)
        cb = Codebook.fresh(lloyd_full(data, 64, seed=1, max_iters=3).centroids)
        rows, products = [], balancer_mod.plain_products

        def counting(x, cells):
            rows.append(len(x))
            return products(x, cells)

        monkeypatch.setattr(balancer_mod, "plain_products", counting)
        _, trace = balance(data, cb, BalanceConfig(stop=StopRule.fixed_iters(20), alpha=0.03))
        rescored = sum(rows) - data.count  # less the first pass
        assert 0 < rescored < 0.15 * data.count * len(trace)

    @staticmethod
    def permutation_tie_fixture(rng):
        """Constant points and centroids whose coordinates permute each
        other: every point ties exactly between the two cells of a pair,
        and the BLAS values of the two may differ in their last bits."""
        base = rng.standard_normal((3, 32)).astype(np.float32)
        points = np.concatenate([base, base[:, ::-1], base[:, np.roll(np.arange(32), 5)]])
        consts = rng.standard_normal(200)[:, None] * np.ones(32)
        data = VectorSet.from_array(np.concatenate([consts, rng.standard_normal((100, 32))]))
        return data, Codebook.fresh(Centroids(points))

    @pytest.mark.parametrize("case", ["offset", "huge", "tiny", "permuted"])
    def test_screen_fixtures(self, rng, monkeypatch, case):
        """Adversarial inputs for the key cut: a large offset, distances
        past float32's range (the half norms overflow, so every row is
        re-scored) and below its normal range, and exact real ties. Rows
        the keys cannot decide are ranked on their kept cells."""
        if case == "permuted":
            data, cb = self.permutation_tie_fixture(rng)
        else:
            scale, shift = {"offset": (1.0, 1e4), "huge": (1e19, 0.0), "tiny": (1e-20, 0.0)}[case]
            data = VectorSet.from_array(rng.standard_normal((120, 5)) * scale + shift)
            cb = Codebook.fresh(Centroids(data.data[:9].copy()))
        ranked = []

        def counting(x, c, rows, cells):
            ranked.extend(np.unique(rows))
            return sqdist_pairs(x, c, rows, cells)

        monkeypatch.setattr(distances_mod, "_CHUNK_ELEMS", 16 * cb.k * cb.dim)
        monkeypatch.setattr(distances_mod, "sqdist_pairs", counting)
        config = BalanceConfig(stop=StopRule.fixed_iters(8), alpha=0.3)
        # Every cell a candidate, then 4 of the 9: the bound decides.
        for top in (balancer_mod.TOP_L, 4):
            monkeypatch.setattr(balancer_mod, "TOP_L", top)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                self.assert_matches_recomputing(data, cb, config)
        if case != "offset":
            assert ranked  # some rows were left open

    def test_build_agrees_with_the_last_record(self, rng):
        data = random_vectors(rng, 500, 4)
        cb = Codebook.fresh(Centroids(data.data[:12].copy()))
        config = BalanceConfig(stop=StopRule.fixed_iters(15), alpha=0.1)
        final, trace = balance(data, cb, config)
        assert np.array_equal(build(data, final).list_sizes(), trace.records[-1].counts)


class TestEmbedding:
    def test_unit_penalty_lifts_by_one(self):
        cb = codebook_1d([3.0], [1.0])
        lifted = embed_augmented(cb)
        assert lifted.dim == 2
        assert lifted.points[0, 1] == 1.0

    def test_zero_penalty_degenerates(self):
        cb = codebook_1d([3.0], [0.0])
        assert embed_augmented(cb).points[0, 1] == 0.0

    def test_equivalence_random(self, rng):
        cents = Centroids(rng.standard_normal((10, 5)).astype(np.float32))
        cb = Codebook(cents, rng.uniform(0, 4, 10))
        lifted = embed_augmented(cb)
        points = rng.standard_normal((40, 5))
        lifted_points = embed_points(points)
        for x, lx in zip(points, lifted_points):
            for i in range(10):
                direct = penalized_distance_sq(x, cents.points[i], cb.penalties[i])
                plain = float(np.sum((lx - lifted.points[i]) ** 2))
                assert direct == pytest.approx(plain, rel=1e-9)


class TestTraceExport:
    def test_csv_header_and_shape(self, rng, tmp_path):
        data = random_vectors(rng, 60, 2)
        cb = Codebook.fresh(Centroids(data.data[:4].copy()))
        _, trace = balance(data, cb, BalanceConfig(stop=StopRule.fixed_iters(3)))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,gamma,b_min,b_max,b_mean,n_min,n_max"
        assert len(lines) == 5
        assert lines[1].startswith("0,")

    def test_four_point_csv_pinned(self, tmp_path):
        fx = FourPointFixture()
        config = BalanceConfig(stop=StopRule.target_gamma(1.0), alpha=0.2)
        _, trace = balance(fx.data, fx.codebook, config)
        trace.to_csv(tmp_path / "trace.csv")
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(lines) == fx.MIGRATION_ITERATION + 2
        assert lines[:3] + lines[-2:] == [
            "iter,gamma,b_min,b_max,b_mean,n_min,n_max",
            "0,1.25,1.0,1.0,1.0,1,3",
            "1,1.25,0.8705505632961241,1.0844717711976986,0.9775111672469113,1,3",
            "51,1.25,0.0008501470344688709,62.53610704829367,31.26847859766407,1,3",
            "52,1.0,0.000740095979741405,67.81864277447193,33.90969143522583,2,2",
        ]

    def test_scale_ratio_reported(self, rng):
        data = random_vectors(rng, 60, 2)
        cb = Codebook.fresh(Centroids(data.data[:4].copy()))
        _, trace = balance(data, cb, BalanceConfig(stop=StopRule.fixed_iters(1)))
        assert np.isfinite(trace.scale_ratio)


class TestCodebookPersistence:
    def test_roundtrip_bit_exact(self, rng, tmp_path):
        cents = Centroids(rng.standard_normal((7, 3)).astype(np.float32))
        cb = Codebook(cents, rng.uniform(1e-9, 10, 7), iteration=13)
        save_codebook(cb, tmp_path / "cb", extra_meta={"alpha": "0.01"})
        loaded = load_codebook(tmp_path / "cb")
        assert np.array_equal(loaded.centroids.points, cb.centroids.points)
        assert np.array_equal(loaded.penalties, cb.penalties)
        assert loaded.iteration == 13

    def test_fresh_codebook_requires_unit_penalties(self, rng):
        cents = Centroids(rng.standard_normal((4, 2)).astype(np.float32))
        cb = Codebook.fresh(cents)
        assert np.array_equal(cb.penalties, np.ones(4))
        assert cb.iteration == 0




def next32(value, direction=np.inf):
    """The float32 after ``value`` towards ``direction``."""
    return np.nextafter(np.float32(value), np.float32(direction))


class TestCandidateRule:
    """``balance`` decides a point from its candidates where ``_beyond``
    certifies every other cell's key above the cut. Checked in rationals at
    each cut near the edge of what the rule passes: every other cell's real
    ``hb - q`` lies above ``next32(cut)`` and its float32 key above the
    cut, whatever the penalized half norms ``hb`` did since λ was taken."""

    @staticmethod
    def walks(rng):
        """(name, float32 products q of a point's other cells, their float32
        ``hb`` on each iteration)."""
        n, steps = 24, 12
        for name, scale, spread in [
            ("unit", 1.0, 1.0),
            ("keys round", 1.0, 2.0**-30),  # q far below hb: every key rounds
            ("subnormal", 2.0**-140, 1.0),
            ("large", 1e30, 1.0),
        ]:
            q = (rng.standard_normal(n) * scale * spread).astype(np.float32)
            walk = [(rng.uniform(1, 2, n) * scale).astype(np.float32)]
            for _ in range(steps):
                factor = rng.uniform(0.7, 1.2, n)
                factor[rng.integers(n)] = 0.05  # one cell falls past λ's gap
                walk.append((walk[-1] * factor).astype(np.float32))
            yield name, q, walk
        # Half norms whose exponents lie far apart: their float64 drops round.
        walk = [(2.0 ** rng.integers(-60, 60, n) * rng.uniform(1, 2, n)).astype(np.float32)
                for _ in range(steps)]
        yield "drops round in float64", np.zeros(n, np.float32), walk
        # Few-bit values on a coarse grid: negative keys that fall into a
        # wider binade, where λ's one-ulp margin is less than half an ulp
        # of the key. Without the step above the cut, 4-5% of these fail.
        for _ in range(2000):
            hb = (rng.integers(1, 64, 4) * 2.0 ** rng.integers(-6, 0, 4)).astype(np.float32)
            q = (rng.integers(1, 2**24, 4) * 2.0 ** rng.integers(-23, -20, 4)).astype(np.float32)
            fall = rng.integers(0, 64, 4) * 2.0 ** rng.integers(-8, 0, 4)
            yield "binades widen", q, [hb, (hb - fall).astype(np.float32)]

    def test_the_floor_is_rounded_down(self, rng):
        # F = fl64(prev32(λ) + D) rounded down, over keys of every scale,
        # subnormal ones included, and drops whose sums round either way.
        keys = (rng.standard_normal(3000) * 10.0 ** rng.uniform(-44, 30, 3000)).astype(np.float32)
        drops = rng.uniform(0, 1, 3000) * 10.0 ** rng.uniform(-10, 10, 3000)
        for key, drop in zip(keys, drops):
            floor = balancer_mod._floor(np.array([key]), float(drop))[0]
            below = Fraction(float(next32(key, -np.inf)))
            assert Fraction(float(floor)) <= below + Fraction(float(drop))

    def test_the_rule_holds_in_exact_arithmetic(self, rng):
        fell_past, claims = set(), 0
        for name, q, walk in self.walks(rng):
            state = balancer_mod.Candidates(None, None, None, None, walk[0])
            for t, hb in enumerate(walk):
                previous_drop = state.drop
                state._follow(hb)
                # D covers the largest real drop of any cell.
                fall = max(Fraction(float(a)) - Fraction(float(b)) for a, b in zip(walk[t - 1], hb))
                assert t == 0 or Fraction(state.drop) - Fraction(previous_drop) >= fall, name
                keys = np.subtract(hb, q)
                if t == 0 or t == len(walk) // 2 > 1:  # λ is taken, and reset midway
                    lam, taken = keys.min(), state.drop
                    floor = balancer_mod._floor(np.array([lam]), taken)
                    below = Fraction(float(next32(lam, -np.inf)))
                    assert Fraction(float(floor[0])) <= below + Fraction(taken), name
                    continue
                edge = np.float32(floor[0] - state.drop)
                cuts = [edge, keys.min()]
                for _ in range(3):
                    cuts += [next32(c, -np.inf) for c in cuts[-2:]]
                real = min(Fraction(float(h)) - Fraction(float(v)) for h, v in zip(hb, q))
                for cut in cuts:
                    if balancer_mod._beyond(floor, state.drop, np.array([cut]))[0]:
                        claims += 1
                        assert real > Fraction(float(next32(cut))), name
                        assert (keys > cut).all(), name
                if keys.min() < lam:
                    fell_past.add(name)
        # In every kind of walk some cell's key fell below λ.
        assert fell_past == {"unit", "keys round", "subnormal", "large", "drops round in float64",
                             "binades widen"}
        assert claims > 2000
