"""Correlations with tie handling, trajectory assembly and files."""

import numpy as np
import pytest
from scipy import stats

from finegrain import dynamics as dyn
from finegrain.errors import UndefinedCorrelationError, ValidationError
from finegrain.seeding import rng_for


def spearman(x, y) -> float:
    """Spearman's rho of one pair, ranking both series afresh.

    The reference for `correlate_tasks`, which ranks each metric once.
    """
    return dyn.pearson(*(dyn._average_ranks(np.asarray(s, dtype=np.float64)) for s in (x, y)))


class TestPearson:
    def test_self_correlation(self):
        x = [1.0, 2.0, 3.0, 5.0]
        assert dyn.pearson(x, x) == pytest.approx(1.0, abs=1e-15)
        assert dyn.pearson(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-15)

    def test_matches_direct_formula(self):
        x = np.array([1.0, 2.0, 3.0, 5.0])
        y = np.array([2.0, 1.0, 4.0, 6.0])
        xc, yc = x - x.mean(), y - y.mean()
        expected = (xc * yc).sum() / np.sqrt((xc * xc).sum() * (yc * yc).sum())
        assert dyn.pearson(x, y) == pytest.approx(float(expected), abs=1e-15)

    def test_zero_variance_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            dyn.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        # the float64 mean of [0.025] * 3 is 0.025 + 3.5e-18, so centring leaves no zeros
        for x, y in (([0.025] * 3, [1.0, 2.0, 3.0]), ([0.025] * 3, [0.025] * 3)):
            with pytest.raises(UndefinedCorrelationError):
                dyn.pearson(x, y)

    def test_short_series_rejected(self):
        with pytest.raises(ValidationError):
            dyn.pearson([1.0, 2.0], [2.0, 1.0])


class TestSpearman:
    def test_monotone_invariance(self):
        x = [0.1, 0.5, 1.2, 2.0, 3.3]
        assert spearman(x, np.exp(x)) == pytest.approx(1.0, abs=1e-15)

    def test_reversed_series(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert spearman(x, x[::-1]) == pytest.approx(-1.0, abs=1e-15)

    def test_tie_handling_matches_brute_force_ranks(self):
        x = [1.0, 2.0, 2.0, 3.0]
        y = [0.3, 0.1, 0.4, 0.4]
        rho = spearman(x, y)
        # tied values share the average of their 1-based positions
        assert rho == dyn.pearson([1.0, 2.5, 2.5, 4.0], [2.0, 1.0, 3.5, 3.5])
        assert rho == pytest.approx(float(stats.spearmanr(x, y).statistic), abs=1e-12)

    def test_against_scipy_on_random_series(self):
        rng = rng_for(1, "scipy")
        for trial in range(100):
            x = rng.random(8)
            y = rng.random(8)
            if trial % 3 == 0:
                x[1] = x[5]  # inject ties
            assert dyn.pearson(x, y) == pytest.approx(
                float(stats.pearsonr(x, y).statistic), abs=1e-12)
            assert spearman(x, y) == pytest.approx(
                float(stats.spearmanr(x, y).statistic), abs=1e-12)

    def test_symmetry(self):
        rng = rng_for(2, "sym")
        x, y = rng.random(10), rng.random(10)
        assert dyn.pearson(x, y) == dyn.pearson(y, x)
        assert spearman(x, y) == spearman(y, x)


class TestCorrelateTasks:
    def build_table(self):
        rng = rng_for(3, "table")
        return {step: {"existence": float(rng.random()), "counting": float(rng.random()),
                       "flat": 0.5}
                for step in range(500, 4001, 500)}

    @staticmethod
    def entry(entries, a, b):
        return next(e for e in entries if (e.metric_a, e.metric_b) == (a, b))

    def test_column_with_itself(self):
        entry = self.entry(dyn.correlate_tasks(self.build_table()), "existence", "existence")
        assert entry.pearson_r == pytest.approx(1.0, abs=1e-12)
        assert entry.spearman_rho == pytest.approx(1.0, abs=1e-12)
        assert entry.count == 8

    def test_constant_column_yields_sentinel_not_error(self):
        entry = self.entry(dyn.correlate_tasks(self.build_table()), "existence", "flat")
        assert not entry.defined
        assert entry.pearson_r is None and entry.spearman_rho is None

    def test_matches_independent_recomputation(self):
        table = self.build_table()
        entry = self.entry(dyn.correlate_tasks(table), "counting", "existence")
        assert entry.pearson_r == pytest.approx(
            float(stats.pearsonr([m["existence"] for m in table.values()],
                                 [m["counting"] for m in table.values()]).statistic),
            abs=1e-12)

    def test_spearman_is_the_per_pair_rho_bit_for_bit(self):
        rng = rng_for(5, "ties")
        table = {step: {"tied": float(rng.integers(3)), "smooth": float(rng.random()),
                        "halves": float(step > 6), "flat": 0.25}
                 for step in range(1, 13)}
        entries = dyn.correlate_tasks(table)
        assert len(entries) == 10
        for entry in entries:
            if "flat" in (entry.metric_a, entry.metric_b):
                assert entry.spearman_rho is None
            else:
                xs, ys = ([m[name] for m in table.values()]
                          for name in (entry.metric_a, entry.metric_b))
                assert entry.spearman_rho == spearman(xs, ys)


class TestTrack:
    def test_rows_at_cadence_points(self):
        table = dyn.track([500, 1000, 1500, 2000], lambda step: {"metric": step / 2000})
        assert list(table) == [500, 1000, 1500, 2000]
        assert [m["metric"] for m in table.values()] == [0.25, 0.5, 0.75, 1.0]


class TestFiles:
    def test_trajectory_round_trip(self, tmp_path):
        table = dyn.track([250, 500, 750, 1000], lambda step: {"a": step * 0.001, "b": 1 / step})
        path = tmp_path / "trajectory.tsv"
        dyn.write_trajectory(path, table, "hash123")
        assert path.read_text().startswith("# config_hash=hash123\n")
        header, *rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
        assert header[0] == "step" and sorted(header[1:]) == sorted(table[250])
        assert [int(row[0]) for row in rows] == list(table)
        for j, name in enumerate(header[1:], start=1):
            assert [float(row[j]) for row in rows] == [m[name] for m in table.values()]

    def test_correlation_file_has_sentinels(self, tmp_path):
        table = {step: {"x": float(step), "flat": 1.0} for step in (1, 2, 3)}
        entries = dyn.correlate_tasks(table)
        path = tmp_path / "corr.tsv"
        dyn.write_correlations(path, entries, "hash123")
        text = path.read_text()
        assert "undefined" in text
        assert "ok" in text
