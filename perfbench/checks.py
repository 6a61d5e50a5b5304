"""Correctness checks: every operation that fails one is counted as failed.

An operation is one evolution run (session workloads) or one campaign run
(each phase of ``fault_campaign``).  It fails when it raised, when the
campaign reported it failed, or when any check below does not hold:

* its fitness history is non-increasing, ends at the reported best
  fitness, and ``n_evaluations == 1 + generations * lambda``;
* the final best genotype, re-scored through the ``reference`` backend on
  a fault-free array, has exactly the reported best fitness (runs that
  never saw an injected fault; a faulty run's fitness includes its fault
  draws, so it is checked by the replay below instead);
* replaying a campaign run of the first pass through the ``reference``
  backend gives byte-identical results (later passes are covered by the
  re-score only, to keep the check time bounded);
* a traced pass, and the rerun and dedupe phases, give the same digest as
  the first cold result of the same operation and pass;
* for the default seed, the first pass's digests equal the golden digests
  recorded from the ``reference`` backend (``golden.json``).

The digest covers the fitness history, the best genotype genes,
``n_reconfigurations`` and ``platform_time_s``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.array import Genotype
from repro.array.genotype import GenotypeSpec
from repro.array.systolic_array import ArrayGeometry, SystolicArray
from repro.imaging.metrics import sae
from repro.runtime import RunSpec
from repro.runtime.engine import execute_run_payload

from workloads import N_OFFSPRING, Outcome

__all__ = ["digest", "invariant_errors", "rescore_errors", "Checker"]

#: Scenario event kinds that leave a fault on the fabric.
_FAULT_EVENTS = ("seu", "lpd")


def digest(artifact: Dict[str, Any]) -> str:
    """SHA-256 of the result fields a faster simulator must leave unchanged."""
    results = artifact["results"]
    payload = {
        "fitness_history": results["fitness_history"],
        "best_genotypes": results["best_genotypes"],
        "n_reconfigurations": results["n_reconfigurations"],
        "platform_time_s": artifact["timing"]["platform_time_s"],
    }
    text = json.dumps(payload, sort_keys=True, default=float)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def invariant_errors(artifact: Dict[str, Any], generations: int) -> List[str]:
    """Violations of the run invariants that hold for any seed."""
    results = artifact["results"]
    errors = []
    n_generations = results["n_generations"]
    if n_generations != generations:
        errors.append(f"ran {n_generations} generations, expected {generations}")
    expected = 1 + n_generations * N_OFFSPRING
    if results["n_evaluations"] != expected:
        errors.append(f"n_evaluations {results['n_evaluations']} != {expected}")
    for array, history in results["fitness_history"].items():
        if len(history) != n_generations:
            errors.append(f"array {array}: history has {len(history)} entries")
        if any(later > earlier for earlier, later in zip(history, history[1:])):
            errors.append(f"array {array}: fitness history increases")
        if history and history[-1] != results["best_fitness"][array]:
            errors.append(f"array {array}: history ends at {history[-1]}, not the best fitness")
    return errors


def saw_fault(artifact: Dict[str, Any]) -> bool:
    """Whether any scenario event of the run injected a fault."""
    events = artifact["results"].get("scenario", {}).get("events", [])
    return any(event.get("kind") in _FAULT_EVENTS for event in events)


def rescore_errors(
    artifact: Dict[str, Any], training: np.ndarray, reference: np.ndarray, rows: int, cols: int
) -> List[str]:
    """Re-score each array's best genotype through ``reference``; report mismatches."""
    results = artifact["results"]
    spec = GenotypeSpec(rows=rows, cols=cols)
    oracle = SystolicArray(ArrayGeometry(rows=rows, cols=cols), backend="reference")
    errors = []
    for array, flat in results["best_genotypes"].items():
        value = sae(oracle.process(training, Genotype.from_flat(spec, flat)), reference)
        if value != results["best_fitness"][array]:
            errors.append(
                f"array {array}: reference re-score {value} != reported "
                f"{results['best_fitness'][array]}"
            )
    return errors


def replay_errors(run, expected: str) -> List[str]:
    """Replay a campaign run through the ``reference`` backend; compare its digest."""
    replay = RunSpec.from_dict(
        {
            **run.to_dict(),
            "platform": run.platform.replace(backend="reference").to_dict(),
            "evolution": run.evolution.replace(fitness_cache=None).to_dict(),
        }
    )
    outcome = json.loads(execute_run_payload(replay.to_json()))
    if outcome["status"] != "completed":
        return [f"reference replay failed:\n{outcome.get('error')}"]
    if digest(outcome["artifact"]) != expected:
        return ["reference replay digest differs"]
    return []


class Checker:
    """Checks outcomes pass by pass and counts attempted and failed operations.

    :meth:`check` runs every check except the reference replays, which it
    queues: they are slow, so :meth:`finish` runs them after the measured
    passes.  Only digests are kept, so memory does not grow with passes.

    Parameters
    ----------
    workload:
        The workload object the outcomes came from.
    golden:
        ``{op: digest}`` of the first pass for this workload and seed, or
        ``None`` when the seed has no golden record.
    """

    def __init__(self, workload, golden: Optional[Dict[str, str]]):
        self.workload = workload
        self.generations = workload.params()["generations"]
        self.golden = golden
        self.first: Dict[Tuple[int, str], str] = {}
        self.replays: List[Tuple[str, Any, str]] = []
        self.attempted = 0
        self.failed_ops: Set[str] = set()
        self.errors: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def errors_for(self, outcome: Outcome) -> List[str]:
        """Every check ``outcome`` fails now (empty when it passes)."""
        if outcome.artifact is None or outcome.error is not None:
            return [outcome.error or "no artifact"]
        artifact = outcome.artifact
        errors = invariant_errors(artifact, self.generations)
        value = digest(artifact)
        key = (outcome.pass_index, outcome.op)
        first = self.first.get(key)
        if first is not None:
            if value != first:
                errors.append("digest differs from the first cold result of this run")
            return errors
        if outcome.phase not in ("evolve", "cold"):
            return errors + ["no cold result to compare against"]
        self.first[key] = value
        run = outcome.run
        if not saw_fault(artifact):
            pair = run.task.build()
            errors += rescore_errors(
                artifact, pair.training, pair.reference, run.platform.rows, run.platform.cols
            )
        if outcome.pass_index != 0:
            return errors
        if self.workload.kind == "campaign":
            self.replays.append((_label(outcome), run, value))
        if self.golden is not None and self.golden.get(outcome.op) != value:
            errors.append("digest differs from the golden reference digest")
        return errors

    def _fail(self, label: str, errors: List[str]) -> None:
        self.failed_ops.add(label)
        self.errors.append(f"{label}: " + "; ".join(errors))

    def check(self, outcome: Outcome) -> None:
        """Check one outcome now; its reference replay, if any, waits for :meth:`finish`."""
        self.attempted += 1
        errors = self.errors_for(outcome)
        if errors:
            self._fail(_label(outcome), errors)

    def finish(self) -> None:
        """Run the queued reference replays."""
        for label, run, expected in self.replays:
            errors = replay_errors(run, expected)
            if errors:
                self._fail(label, errors)
        self.replays.clear()


def _label(outcome: Outcome) -> str:
    return f"pass {outcome.pass_index} {outcome.phase} {outcome.op}"
