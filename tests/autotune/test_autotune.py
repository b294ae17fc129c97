"""Tests for the autotuner and the DySel-style runtime selector."""

import numpy as np
import pytest

from repro.autotune import (
    DynamicSelector,
    best_tuned_version,
    configurations,
    tune_all,
    tune_version,
)
from repro.codegen.synthesize import Tunables
from repro.core import FIG6


class TestConfigurations:
    def test_coop_versions_ignore_grid(self, fw_add):
        configs = configurations(FIG6["p"], blocks=(64, 256), grids=(None, 128))
        assert len(configs) == 2
        assert all(c.grid is None for c in configs)

    def test_compound_versions_sweep_grid(self):
        configs = configurations(FIG6["b"], blocks=(64, 256), grids=(None, 128))
        assert len(configs) == 4


class TestTuneVersion:
    def test_returns_best_of_trials(self, fw_add):
        result = tune_version(
            fw_add, "p", 4096, "maxwell", blocks=(64, 256), grids=(None,)
        )
        assert result.time_s == min(t for _, t in result.trials)
        assert isinstance(result.tunables, Tunables)
        assert len(result.trials) == 2

    def test_compound_grid_tuning_helps_large(self, fw_add):
        """At large sizes the partition count matters (thread coarsening)."""
        result = tune_version(
            fw_add, "b", 4_194_304, "kepler",
            blocks=(256,), grids=(None, 32, 1024),
        )
        times = [t for _, t in result.trials]
        assert max(times) > result.time_s  # the sweep found a real winner


class TestTuneAll:
    def test_covers_candidates(self, fw_add):
        results = tune_all(
            fw_add, 1024, "maxwell", candidates=["n", "p"],
            blocks=(64,), grids=(None,),
        )
        assert set(results) == {"n", "p"}

    def test_best_tuned_version(self, fw_add):
        key, tunables, seconds = best_tuned_version(
            fw_add, 1024, "maxwell", candidates=["l", "n", "p"],
            blocks=(64, 256), grids=(None,),
        )
        assert key in ("l", "n", "p")
        assert seconds > 0


def _fresh(op="add"):
    from repro import ReductionFramework
    from repro.perf import ProfileCache

    return ReductionFramework(op=op, cache=ProfileCache())


def _brute_force(fw, sizes, arch, candidates, blocks, grids):
    """``[(n, {key: (tunables, seconds, trials)})]`` from one
    ``fw.time`` call per grid point."""
    table = []
    for n in sorted(sizes):
        results = {}
        for key in candidates:
            configs = configurations(fw.resolve(key), blocks, grids)
            trials = [(t, fw.time(n, key, arch, t)) for t in configs]
            best = min(trials, key=lambda trial: trial[1])
            results[key] = (*best, trials)
        table.append((n, results))
    return table


class TestCountOnce:
    """A tuning sweep reads each grid point from the cache exactly once:
    a cold sweep is all misses and saves nothing, a repeat all hits."""

    def test_tune_version_cold_then_warm(self):
        fw = _fresh()
        stats = fw.cache.stats
        result = tune_version(fw, "b", 4096, "kepler")
        assert len(result.trials) == 20
        assert (stats.hits, stats.misses, stats.stores) == (0, 20, 20)
        assert stats.time_saved_s == 0.0
        again = tune_version(fw, "b", 4096, "kepler")
        assert (stats.hits, stats.misses, stats.stores) == (20, 20, 20)
        assert again == result

    def test_selector_build_cold(self):
        fw = _fresh()
        DynamicSelector.build(fw, "kepler", sizes=(4096, 65536))
        stats = fw.cache.stats
        assert (stats.misses, stats.hits, stats.stores) == (480, 0, 480)
        assert stats.time_saved_s == 0.0

    def test_tune_all_matches_brute_force(self):
        blocks, grids = (64, 256), (None, 128, 1024)
        results = tune_all(
            _fresh(), 65536, "pascal", blocks=blocks, grids=grids
        )
        [(_, want)] = _brute_force(
            _fresh(), [65536], "pascal", list(FIG6), blocks, grids
        )
        assert list(results) == list(want)
        for key, result in results.items():
            assert (result.tunables, result.time_s, result.trials) == want[key]

    def test_selector_matches_brute_force(self):
        sizes, candidates = (65536, 1024, 16384), ["a", "b", "m", "p"]
        blocks, grids = (64, 512), (None, 256)
        selector = DynamicSelector.build(
            _fresh("max"), "maxwell", sizes=sizes, candidates=candidates,
            blocks=blocks, grids=grids,
        )
        want = []
        for n, results in _brute_force(
            _fresh("max"), sizes, "maxwell", candidates, blocks, grids
        ):
            key = min(results, key=lambda k: results[k][1])
            want.append((n, key, *results[key][:2]))
        assert [
            (e.max_n, e.version_key, e.tunables, e.time_s)
            for e in selector.entries
        ] == want


class TestDynamicSelector:
    @pytest.fixture(scope="class")
    def selector(self):
        from repro import ReductionFramework

        fw = ReductionFramework("add")
        return DynamicSelector.build(
            fw,
            "maxwell",
            sizes=(256, 65_536, 1_048_576),
            candidates=["n", "m", "p", "b"],
            blocks=(64, 256),
            grids=(None,),
        )

    def test_table_sorted_by_size(self, selector):
        sizes = [entry.max_n for entry in selector.entries]
        assert sizes == sorted(sizes)

    def test_select_picks_covering_bucket(self, selector):
        assert selector.select(100).max_n == 256
        assert selector.select(70_000).max_n == 1_048_576
        # beyond the largest bucket, the last entry is used
        assert selector.select(10 ** 9).max_n == 1_048_576

    def test_reduce_runs_selected_version(self, selector, rng):
        data = rng.random(5000).astype(np.float32)
        result = selector.reduce(data)
        assert result.value == pytest.approx(float(data.sum()), rel=1e-4)

    def test_empty_selector_rejected(self, fw_add):
        empty = DynamicSelector(framework=fw_add, arch="maxwell")
        with pytest.raises(RuntimeError):
            empty.select(10)


class TestExplainPruning:
    """The tuner/selector must cite the explain attribution — the same
    component/counter ranking as ``repro explain --diff`` — when one
    candidate prunes another."""

    def test_cites_counters_for_the_margin(self, fw_add):
        from repro.autotune import explain_pruning

        results = tune_all(
            fw_add, 65_536, "pascal", candidates=["a", "b"],
            blocks=(64,), grids=(8,),
        )
        why = explain_pruning(fw_add, results, 65_536, "pascal")
        assert {why["winner"], why["runner_up"]} == {
            results["a"].version_key and fw_add.resolve("a").identifier,
            fw_add.resolve("b").identifier,
        }
        assert why["margin_s"] > 0  # a real pruning margin
        assert why["cited"], "pruning must cite component attributions"
        for row in why["cited"]:
            assert row["delta_s"] != 0
            assert row["component"] in {
                r["component"] for r in why["diff"]["ranking"]
            }
        # The diff is the timing model's own verdict: the cited deltas
        # are drawn from a ranking that sums to the model delta.
        attributed = sum(
            row["delta_s"] for row in why["diff"]["ranking"]
        )
        assert attributed == pytest.approx(
            why["diff"]["model_delta_s"], rel=1e-9
        )

    def test_winner_matches_best_tuned_version(self, fw_add):
        from repro.autotune import explain_pruning

        candidates = ["n", "p"]
        results = tune_all(
            fw_add, 4096, "maxwell", candidates=candidates,
            blocks=(64, 256), grids=(None,),
        )
        key, _, _ = best_tuned_version(
            fw_add, 4096, "maxwell", candidates=candidates,
            blocks=(64, 256), grids=(None,),
        )
        why = explain_pruning(fw_add, results, 4096, "maxwell")
        assert why["winner"] == fw_add.resolve(key).identifier

    def test_needs_two_candidates(self, fw_add):
        from repro.autotune import explain_pruning

        results = tune_all(
            fw_add, 1024, "maxwell", candidates=["p"],
            blocks=(64,), grids=(None,),
        )
        with pytest.raises(ValueError):
            explain_pruning(fw_add, results, 1024, "maxwell")

    def test_selector_explains_its_bucket(self):
        from repro import ReductionFramework

        fw = ReductionFramework("add")
        selector = DynamicSelector.build(
            fw, "maxwell", sizes=(4096,), candidates=["n", "p"],
            blocks=(64, 256), grids=(None,),
        )
        why = selector.explain(4096, candidates=["n", "p"])
        entry = selector.select(4096)
        assert why["winner"] == fw.resolve(entry.version_key).identifier
        assert why["cited"]
