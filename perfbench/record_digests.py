"""Write digests.json: the check corpus's sweep artifacts for every workload.

Run from the repository root, only when the outputs are meant to change:

    python3 perfbench/record_digests.py
"""

import json
import shutil

from run import DIGESTS, WORK, experiment, sweep_digests
from workloads import WORKLOADS

CHECK_SEED = 7


def main() -> None:
    digests = {}
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        for name, workload in WORKLOADS.items():
            config = workload.config(CHECK_SEED, WORK / name)
            result = experiment.run_experiment(config)
            if not result.ok:
                raise SystemExit(f"{name}: sweep failed: {result.failures[:3]}")
            digests[name] = {"seed": CHECK_SEED, **sweep_digests(WORK / name / "sweep", workload.from_files)}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
