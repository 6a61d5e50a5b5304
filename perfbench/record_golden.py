"""Record the golden digests of the default seed from the ``reference`` backend.

Run from the repository root after changing any workload parameter::

    PYTHONPATH=src python3 perfbench/record_golden.py

It runs every operation of every workload once through the ``reference``
backend (the behavioural ground truth) and writes ``perfbench/golden.json``.
The benchmark compares each numpy-backed result of the default seed
against these digests.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import workloads
from checks import digest

import repro.runtime as runtime
from repro.api import EvolutionSession

REFERENCE = "reference"


def session_digests(workload, seed: int) -> dict:
    cells = workload.cells(seed, 0)
    pairs = workload.build_pairs(cells)
    out = {}
    for cell in cells:
        session = EvolutionSession(cell.platform.replace(backend=REFERENCE), cell.evolution)
        artifact = session.evolve(pairs[cell.task])
        out[cell.op] = digest({"results": artifact.results, "timing": artifact.timing})
        print(f"  {cell.op} {out[cell.op][:12]}", file=sys.stderr)
    return out


def campaign_digests(seed: int) -> dict:
    spec = workloads.fault_campaign_spec(seed, 0, None)
    spec = dataclasses.replace(spec, platform=spec.platform.replace(backend=REFERENCE))
    result = runtime.run_campaign(spec, "serial")
    if result.failures:
        raise RuntimeError(f"reference campaign runs failed: {sorted(result.failures)}")
    out = {}
    for run in result.runs:
        artifact = result.artifacts[run.run_id]
        out[workloads.campaign_op(run)] = digest(
            {"results": artifact.results, "timing": artifact.timing}
        )
    return out


def main() -> int:
    seed = workloads.DEFAULT_SEED
    record = {"seed": seed, "params": workloads.params_digest(), "workloads": {}}
    for name, workload in workloads.WORKLOADS.items():
        print(f"recording {name}", file=sys.stderr)
        if workload.kind == "campaign":
            record["workloads"][name] = campaign_digests(seed)
        else:
            record["workloads"][name] = session_digests(workload, seed)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
