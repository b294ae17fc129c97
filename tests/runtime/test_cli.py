"""Tests for the command-line interface."""

import pytest

import repro.perf.cache as cache_mod
from repro.cli import main
from repro.perf import ProfileCache
from repro.runtime import ReductionFramework


class TestCli:
    def test_variants(self, capsys):
        assert main(["variants"]) == 0
        out = capsys.readouterr().out
        assert "pruned: 30" in out
        assert "(p) *" in out

    def test_passes(self, capsys):
        assert main(["passes"]) == 0
        out = capsys.readouterr().out
        assert "shuffle pass" in out
        assert "shared-atomic pass" in out

    def test_passes_with_unroll(self, capsys):
        assert main(["passes", "--unroll"]) == 0
        assert "unroll pass" in capsys.readouterr().out

    def test_cuda(self, capsys):
        assert main(["cuda", "p"]) == 0
        out = capsys.readouterr().out
        assert "__global__" in out
        assert "__shfl_down" in out

    def test_reduce_success(self, capsys):
        assert main(["reduce", "5000", "--version", "m"]) == 0
        out = capsys.readouterr().out
        assert "relative error" in out
        assert "kernel launches: 1" in out

    def test_reduce_with_tunables(self, capsys):
        assert main(["reduce", "5000", "--version", "b", "--block", "128",
                     "--grid", "32"]) == 0

    def test_reduce_max(self, capsys):
        assert main(["reduce", "3000", "--op", "max", "--version", "n"]) == 0

    def test_time(self, capsys):
        assert main(["time", "4096", "--versions", "m,p"]) == 0
        out = capsys.readouterr().out
        assert "kepler" in out and "pascal" in out
        assert "CUB" in out

    def test_tune(self, capsys):
        assert main(["tune", "10000", "--version", "b", "--arch",
                     "maxwell"]) == 0
        out = capsys.readouterr().out
        assert "<- best" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_version_errors(self):
        with pytest.raises(KeyError):
            main(["cuda", "zz"])


class TestSweep:
    """``repro sweep`` warms the cache that a later tune reads back."""

    GRID = ["--sizes", "4096", "--versions", "b,p",
            "--blocks", "64,128", "--grids", "none,8"]

    @staticmethod
    def _tune_table(cache):
        from repro.autotune import tune_all

        fw = ReductionFramework(op="add", cache=cache)
        results = tune_all(
            fw, 4096, "kepler", candidates=["b", "p"],
            blocks=(64, 128), grids=(None, 8), max_workers=1,
        )
        return {
            key: (result.tunables, result.time_s)
            for key, result in results.items()
        }

    def test_tune_from_swept_disk_tier(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            cache_mod, "_default_cache", ProfileCache(disk_dir=tmp_path)
        )
        assert main(["sweep", *self.GRID]) == 0
        out = capsys.readouterr().out
        assert "[sweep] 6 grid points" in out
        assert "misses=6" in out and "stores=6" in out
        warm = ProfileCache(disk_dir=tmp_path)
        table = self._tune_table(warm)
        assert warm.stats.misses == 0
        assert warm.stats.disk_hits == 6
        cold = ProfileCache()
        assert table == self._tune_table(cold)
        assert cold.stats.misses == 6

    @pytest.mark.parametrize("argv", [
        ["cache", "merge"],
        ["sweep", "-n", "1024", "--shard", "0/2"],
    ])
    def test_shard_arguments_are_unknown(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
