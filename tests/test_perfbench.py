"""The traced benchmark run stays runnable in-process at smoke size.

perfbench/traced.py times the Carlson kernels on the argument tuples it
records from omega_total, and wraps solid_angle.decompose; a hot-path change
that leaves a kernel without a recorded call, or drops that name, breaks the
traced run. This test catches that in tier-1.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_scalar_mix_emits_every_layer_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import traced
    from workloads import SIZES, load_library

    result = traced.traced_run(load_library(), "scalar_mix", 1, 0.2, SIZES["smoke"])
    missing = [name for name in run.LAYER_UNITS if not isinstance(result.metrics.get(name), (int, float))]
    assert missing == []
    assert result.attempted > 0
    assert result.failed == 0, result.details
