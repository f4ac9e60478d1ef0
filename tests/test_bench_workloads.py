"""The benchmark's training workloads call ``grasp.pipeline`` directly; a changed call fails here.

``perfbench/workloads.py`` drives ``load_data_dir``, ``build_model``,
``train_one_seed``, ``load_model_dir`` and ``eval_model`` from outside
the package, so a renamed function, a changed signature or default, or
an output check that no longer holds would otherwise surface only when
the benchmark runs.  Each test runs one untimed, untraced cycle in
process, as ``perfbench/worker.py`` does, and changes nothing under
``perfbench/``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS, Checks, make_cycle, make_inputs  # noqa: E402


@pytest.mark.parametrize("name", ["trend-sasrec", "long-gru4rec"])
def test_one_cycle_passes_every_output_check(tmp_path, name):
    workload = WORKLOADS[name]
    data_dir, work_dir = str(tmp_path / "data"), str(tmp_path / "work")
    make_inputs(workload, 1, data_dir)
    cycle = make_cycle(workload, 1, data_dir, work_dir)
    checks = Checks()
    for stage_name, stage in cycle.stages():
        stage()
        cycle.between(stage_name, checks)
    quality = cycle.after_cycle(checks)
    cycle.final_checks(checks)
    assert checks.failures == []
    assert checks.attempted >= 5
    assert quality["test_ndcg10"] > 0.0
