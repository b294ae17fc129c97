"""Autotuning of ``__tunable`` launch parameters (Section IV-C).

The paper tunes every code version's block and grid dimensions "with a
simple script that runs all versions with different tuning parameters"
— this module is that script. :func:`tune_version` sweeps a small
configuration grid for one version and returns the best
:class:`~repro.codegen.synthesize.Tunables`;
:func:`tune_all` does it for a set of versions on one architecture.

Because our timing is a model over cached, architecture-independent
event profiles, a full sweep takes seconds rather than the paper's ~20
minutes. Every entry point times its whole (size × version × tunables)
grid in one ``framework.time_many`` call: one ``profile_many`` pass —
which fans the missing points out over the :mod:`repro.perf.parallel`
pool and merges them into the shared profile cache deterministically —
then the analytic model on each profile. Each grid point is therefore
read from the cache exactly once (one hit or one miss).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..codegen.synthesize import Tunables

#: Default block-dimension sweep (powers of two, full warps).
DEFAULT_BLOCKS = (64, 128, 256, 512)

#: Default partition counts (grid) swept for compound versions.
#: ``None`` lets the synthesizer derive the grid from the input size.
DEFAULT_GRIDS = (None, 128, 256, 512, 1024)


@dataclass
class TuneResult:
    version_key: object
    tunables: Tunables
    time_s: float
    trials: list = field(default_factory=list)  # (Tunables, seconds)


def configurations(version, blocks=DEFAULT_BLOCKS, grids=DEFAULT_GRIDS):
    """The tuning grid for one version (coop versions ignore ``grid``)."""
    configs = []
    for block in blocks:
        if version.block_kind == "coop":
            configs.append(Tunables(block=block))
        else:
            for grid in grids:
                configs.append(Tunables(block=block, grid=grid))
    return configs


def sweep_specs(
    framework,
    sizes,
    candidates=None,
    blocks=DEFAULT_BLOCKS,
    grids=DEFAULT_GRIDS,
):
    """The full ``(version, n, tunables)`` grid a tuning sweep profiles.

    One canonical enumeration — sorted sizes × catalog order ×
    :func:`configurations` — shared by :func:`tune_all`,
    :meth:`~repro.autotune.selector.DynamicSelector.build` and the
    ``repro sweep`` CLI, so a cache warmed by ``repro sweep`` holds
    *exactly* the grid ``tune_all`` profiles.
    """
    candidates = (
        candidates if candidates is not None else list(framework.catalog)
    )
    resolved = [framework.resolve(key) for key in candidates]
    return [
        (version, int(n), tunables)
        for n in sorted(int(size) for size in sizes)
        for version in resolved
        for tunables in configurations(version, blocks, grids)
    ]


def _tune_sizes(framework, sizes, arch, candidates, blocks, grids, max_workers):
    """``[(n, {key: TuneResult})]`` per size in sorted order, from one
    ``time_many`` call over the :func:`sweep_specs` grid, whose
    enumeration order the times are consumed in. Ties go to the
    earlier configuration."""
    if candidates is None:
        candidates = list(framework.catalog)
    specs = sweep_specs(framework, sizes, candidates, blocks, grids)
    times = iter(framework.time_many(specs, arch, max_workers=max_workers))
    table = []
    for n in sorted(sizes):
        results = {}
        for key in candidates:
            configs = configurations(framework.resolve(key), blocks, grids)
            trials = [(tunables, next(times)) for tunables in configs]
            best, seconds = min(trials, key=lambda trial: trial[1])
            results[key] = TuneResult(key, best, seconds, trials)
        table.append((n, results))
    return table


def _winner(results):
    """``(key, Tunables, seconds)`` of the fastest :class:`TuneResult`."""
    key = min(results, key=lambda k: results[k].time_s)
    return key, results[key].tunables, results[key].time_s


def tune_version(
    framework,
    version,
    n: int,
    arch,
    blocks=DEFAULT_BLOCKS,
    grids=DEFAULT_GRIDS,
    max_workers=None,
) -> TuneResult:
    """Sweep tuning parameters for one version at input size ``n``."""
    return tune_all(
        framework, n, arch, [version], blocks, grids, max_workers
    )[version]


def tune_all(
    framework,
    n: int,
    arch,
    candidates=None,
    blocks=DEFAULT_BLOCKS,
    grids=DEFAULT_GRIDS,
    max_workers=None,
) -> dict:
    """Tune every candidate version; returns ``{key: TuneResult}``.

    This reproduces the paper's tuning run ("for the biggest problem
    size"); pass the sweep's largest ``n``. The whole candidate × config
    grid is timed in one parallel batch.
    """
    [(_, results)] = _tune_sizes(
        framework, [n], arch, candidates, blocks, grids, max_workers
    )
    return results


def best_tuned_version(
    framework,
    n: int,
    arch,
    candidates=None,
    blocks=DEFAULT_BLOCKS,
    grids=DEFAULT_GRIDS,
    max_workers=None,
):
    """Best (version key, Tunables, seconds) across candidates at size n."""
    return _winner(
        tune_all(framework, n, arch, candidates, blocks, grids, max_workers)
    )


def explain_pruning(framework, results, n: int, arch, top: int = 3) -> dict:
    """Counter-cited justification for a tuning verdict.

    ``results`` is :func:`tune_all`'s ``{key: TuneResult}``. The
    runner-up is diffed against the winner through
    :func:`repro.obs.explain.diff_explanations` (each under its own
    tuned launch parameters), so the pruning decision cites the same
    component/counter attribution ``repro explain --diff`` prints —
    the timing model's own additive verdict, not a heuristic. The
    returned ``cited`` rows are the top nonzero component deltas,
    each carrying its counter citations.
    """
    from ..obs.explain import diff_explanations, explain_variant

    if len(results) < 2:
        raise ValueError("explain_pruning needs at least two candidates")
    order = sorted(results, key=lambda key: results[key].time_s)
    winner_key, runner_key = order[0], order[1]
    winner, runner = results[winner_key], results[runner_key]
    runner_expl = explain_variant(
        framework, runner_key, n, arch, runner.tunables, coverage=False
    )
    winner_expl = explain_variant(
        framework, winner_key, n, arch, winner.tunables, coverage=False
    )
    diff = diff_explanations(runner_expl, winner_expl)
    return {
        "winner": winner_expl["identifier"],
        "runner_up": runner_expl["identifier"],
        "margin_s": runner.time_s - winner.time_s,
        "cited": [row for row in diff["ranking"] if row["delta_s"]][:top],
        "diff": diff,
    }
