"""Figures 5 and 6: how much LLC space would spilled directory entries
need, and what does taking LLC ways away cost?"""

from repro.harness import experiments

from benchmarks.conftest import run_experiment


def test_fig05_llc_occupancy(benchmark):
    table, results = run_experiment(benchmark,
                                    experiments.fig5_llc_occupancy,
                                    "fig05")
    # Paper: maximum occupancy ~12% of LLC blocks, average at most 10%.
    for suite, maxima in results.items():
        assert max(maxima) < 30.0, f"{suite} occupancy blew up"
    overall_max = max(max(m) for m in results.values())
    assert overall_max <= 26.0   # 25% is the 1x-directory-in-LLC bound
    # Some suite overflows a 1x directory's sets.
    assert overall_max > 0


def test_fig06_llc_ways(benchmark):
    table, results = run_experiment(benchmark, experiments.fig6_llc_ways,
                                    "fig06")
    for suite, per_ways in results.items():
        avg15 = per_ways[15][0]
        avg12 = per_ways[12][0]
        # Shape: losing ways costs performance, monotonically.
        assert avg12 <= avg15 + 0.02, suite
        assert avg12 < 1.02
