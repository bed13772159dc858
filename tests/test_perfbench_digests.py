"""The benchmark's check sweeps reproduce the digests stored with it.

Each workload of `perfbench/workloads.py` is swept once on its stored check
seed, in a temporary directory, and its artifacts are hashed by
`perfbench/checks.py`, as the benchmark does before it times anything. So a
change that alters any byte of `runs.csv`, `summary.csv` or a trace file
fails here, not first in a benchmark run, and so does a change that loses
the sharing of runs between policies of one decision rule.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from specmt import experiment, run_experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name: str):
    """A module of the benchmark harness, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _perfbench_module("checks")
workloads = _perfbench_module("workloads")
STORED = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_check_sweep_reproduces_the_stored_digests(name, tmp_path, monkeypatch):
    workload = workloads.WORKLOADS[name]
    stored = STORED[name]
    config = workload.config(stored["seed"], tmp_path)
    baselines = []
    real_run_baseline = experiment.run_baseline

    def counted(model, source, run_config):
        baselines.append((model.policy.rule, run_config.sentence_index))
        return real_run_baseline(model, source, run_config)

    monkeypatch.setattr(experiment, "run_baseline", counted)
    assert run_experiment(config).ok
    got = checks.sweep_digests(Path(config.out_dir), workload.from_files)
    assert {"seed": stored["seed"], **got} == stored
    # policies of one decision rule share their runs: one baseline run per (rule, sentence)
    assert len(baselines) == len(set(baselines)) == BASELINE_RUNS[name]


# distinct decision rules x test sentences: `short`'s 10 policies hold 6 rules
# (adaptive 0.1, 0.05 and 0.02 decide as wait-k 1, adaptive 0.5 and 0.2 alike),
# `traced`'s 5 hold 4, and `long`'s 4 policies hold 4 rules over 20 sentences
BASELINE_RUNS = {"short": 6 * 10, "traced": 4 * 10, "long": 4 * 20}
