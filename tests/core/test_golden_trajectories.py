"""Golden trajectories: every evolution driver, pinned byte for byte.

Each case runs one driver for a few generations on a small
salt-and-pepper task and reduces the run to a compact record — a SHA-256
digest of the fitness history, the best genotype genes per array,
``n_reconfigurations``, ``platform_time_s`` and ``n_evaluations`` — that
must equal the record in ``golden_trajectories.json`` next to this file.
Cases cover every driver (parallel, two-level, independent, the four
cascade variants, imitation, one cascaded and one TMR self-healing
recovery, and the single-array (1+λ) ES) on every evaluation backend,
with no fault, with two injected LPDs, and under the ``seu-storm``
fault scenario.  The first 50 ``mutate()`` results per mutation rate on
the default and the 1x1 genotype spec are pinned the same way, which
fixes the RNG draw order of the mutation operator.

The fixture was recorded while the simulator still had three generation
paths (per-candidate, batched and population-at-a-time); all three
produced these exact records, so the fixture is the contract the single
population step has to keep.  Likewise the ``compiled`` rows were
recorded by the LUT engine that name used to select; it is now a
registry alias of ``numpy``, and these rows pin the alias to the old
engine's trajectories.  Re-record only after a deliberate trajectory
change::

    PYTHONPATH=src python tests/core/test_golden_trajectories.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import numpy as np
import pytest

from repro.array.genotype import Genotype, GenotypeSpec
from repro.core.evolution import (
    CascadedEvolution,
    ImitationEvolution,
    IndependentEvolution,
    ParallelEvolution,
)
from repro.core.modes import CascadeFitnessMode, CascadeSchedule
from repro.core.platform import EvolvableHardwarePlatform
from repro.core.self_healing import CascadedSelfHealing, TmrSelfHealing
from repro.core.two_level_ea import TwoLevelMutationEvolution
from repro.ea.fitness import FitnessEvaluator
from repro.ea.mutation import mutate
from repro.ea.strategy import OnePlusLambdaES
from repro.imaging.images import make_training_pair
from repro.scenarios import SCENARIOS, ScenarioRunner, compile_schedule

FIXTURE = Path(__file__).with_name("golden_trajectories.json")

BACKENDS = ("reference", "numpy", "compiled")
CONDITIONS = ("healthy", "lpd", "seu-storm")
GENERATIONS = 6
EA = dict(n_offspring=9, mutation_rate=3, rng=11)
MUTATE_RATES = (1, 3, 5)
MUTATE_DRAWS = 50


def _pair():
    return make_training_pair("salt_pepper_denoise", size=16, seed=7, noise_level=0.1)


def _platform(backend: str, condition: str) -> EvolvableHardwarePlatform:
    platform = EvolvableHardwarePlatform(n_arrays=3, seed=5, backend=backend)
    if condition == "lpd":
        platform.inject_permanent_fault(0, 1, 1)
        platform.inject_permanent_fault(1, 2, 0)
    return platform


def _scenario(condition: str) -> Optional[str]:
    return "seu-storm" if condition == "seu-storm" else None


def _storm_runner(platform: EvolvableHardwarePlatform, horizon: int) -> ScenarioRunner:
    schedule = compile_schedule(
        SCENARIOS.get("seu-storm"),
        n_generations=horizon,
        n_arrays=platform.n_arrays,
        rows=platform.geometry.rows,
        cols=platform.geometry.cols,
        seed=platform.fabric.seed,
    )
    return ScenarioRunner(platform, schedule)


def _digest(value: Any) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _genes(genotype: Genotype) -> str:
    return ",".join(str(int(gene)) for gene in genotype.to_flat())


def _platform_record(result) -> Dict[str, Any]:
    return {
        "history_digest": _digest(
            {str(index): trace for index, trace in sorted(result.fitness_history.items())}
        ),
        "best_genes": {
            str(index): _genes(genotype)
            for index, genotype in sorted(result.best_genotypes.items())
        },
        "n_reconfigurations": int(result.n_reconfigurations),
        "platform_time_s": float(result.platform_time_s),
        "n_evaluations": int(result.n_evaluations),
    }


# --------------------------------------------------------------------------- #
# Drivers: each returns the golden record of one run
# --------------------------------------------------------------------------- #
def _parallel(backend, condition, driver_cls=ParallelEvolution):
    pair = _pair()
    driver = driver_cls(_platform(backend, condition), scenario=_scenario(condition), **EA)
    return _platform_record(driver.run(pair.training, pair.reference, GENERATIONS))


def _two_level(backend, condition):
    return _parallel(backend, condition, TwoLevelMutationEvolution)


def _independent(backend, condition):
    pair = _pair()
    driver = IndependentEvolution(
        _platform(backend, condition), scenario=_scenario(condition), **EA
    )
    tasks = {index: (pair.training, pair.reference) for index in range(3)}
    return _platform_record(driver.run(tasks, GENERATIONS // 2))


def _cascaded(fitness_mode, schedule):
    def run(backend, condition):
        pair = _pair()
        driver = CascadedEvolution(
            _platform(backend, condition),
            fitness_mode=fitness_mode,
            schedule=schedule,
            scenario=_scenario(condition),
            **EA,
        )
        return _platform_record(driver.run(pair.training, pair.reference, GENERATIONS // 2))

    return run


def _imitation(backend, condition):
    pair = _pair()
    platform = _platform(backend, condition)
    platform.configure_array(1, Genotype.random(platform.spec, np.random.default_rng(21)))
    driver = ImitationEvolution(platform, scenario=_scenario(condition), **EA)
    return _platform_record(driver.run(0, 1, pair.training, GENERATIONS))


def _healing_record(platform, condition, cycle: Callable[[], Any]) -> Dict[str, Any]:
    """Run healing cycles until one recovers by evolution.

    Under the storm condition each cycle first applies the next
    generation of ``seu-storm`` events, as the mission lifecycle does;
    transient upsets are scrubbed away by the cycles that find them.
    """
    runner = _storm_runner(platform, GENERATIONS) if condition == "seu-storm" else None
    for _ in range(GENERATIONS):
        if runner is not None:
            runner.advance()
        report = cycle()
        if report.recovery_result is not None:
            break
    assert report.recovery_result is not None, "the case must exercise a recovery"
    record = _platform_record(report.recovery_result)
    record["fault_class"] = report.fault_class.value
    record["faulty_array"] = report.faulty_array
    return record


def _healing_platform(backend, condition):
    platform = _platform(backend, condition)
    circuit = Genotype.random(platform.spec, np.random.default_rng(21))
    platform.configure_all(circuit)
    return platform


def _break_output_pe(platform):
    """Permanently damage array 1's output PE, which is always active."""
    circuit = platform.acb(1).genotype
    platform.inject_permanent_fault(1, circuit.output_select, platform.geometry.cols - 1)


def _cascaded_healing(backend, condition):
    pair = _pair()
    platform = _healing_platform(backend, condition)
    healer = CascadedSelfHealing(
        platform,
        pair.training,
        pair.reference,
        imitation_generations=GENERATIONS,
        imitation_target_fitness=None,
        n_offspring=9,
        mutation_rate=3,
        rng=11,
    )
    healer.initialize()
    _break_output_pe(platform)
    return _healing_record(platform, condition, healer.check_and_heal)


def _tmr_healing(backend, condition):
    pair = _pair()
    platform = _healing_platform(backend, condition)
    healer = TmrSelfHealing(
        platform,
        pair.training,
        pair.reference,
        imitation_generations=GENERATIONS,
        imitation_target_fitness=0.0,
        n_offspring=9,
        mutation_rate=3,
        rng=11,
    )
    healer.setup(platform.acb(0).genotype)
    _break_output_pe(platform)
    return _healing_record(platform, condition, healer.monitor_and_heal)


def _es(backend, condition, population_hook=True):
    pair = _pair()
    platform = _platform(backend, condition)
    evaluator = FitnessEvaluator(platform.acb(0).array, pair.training, pair.reference)
    hook = None
    if condition == "seu-storm":
        runner = _storm_runner(platform, GENERATIONS)

        def hook(generation):
            runner.advance()

    es = OnePlusLambdaES(
        evaluator.evaluate,
        spec=platform.spec,
        evaluate_population=evaluator.evaluate_population if population_hook else None,
        generation_hook=hook,
        **EA,
    )
    result = es.run(GENERATIONS)
    return {
        "history_digest": _digest(
            [[record.best_fitness, record.parent_fitness, record.accepted]
             for record in result.history]
        ),
        "best_genes": {"0": _genes(result.best.genotype)},
        "n_reconfigurations": int(result.n_reconfigurations),
        "platform_time_s": None,
        "n_evaluations": int(result.n_evaluations),
    }


DRIVERS: Dict[str, Callable[[str, str], Dict[str, Any]]] = {
    "parallel": _parallel,
    "two_level": _two_level,
    "independent": _independent,
    **{
        f"cascaded-{mode.value}-{schedule.value}": _cascaded(mode, schedule)
        for mode in CascadeFitnessMode
        for schedule in CascadeSchedule
    },
    "imitation": _imitation,
    "cascaded_self_healing": _cascaded_healing,
    "tmr_self_healing": _tmr_healing,
    "one_plus_lambda_es": _es,
}

CASES = [
    f"{driver}/{backend}/{condition}"
    for driver in DRIVERS
    for backend in BACKENDS
    for condition in CONDITIONS
]


def run_case(case: str) -> Dict[str, Any]:
    driver, backend, condition = case.split("/")
    return DRIVERS[driver](backend, condition)


# --------------------------------------------------------------------------- #
# Mutation operator draw order
# --------------------------------------------------------------------------- #
MUTATE_SPECS = {"4x4": GenotypeSpec(), "1x1": GenotypeSpec(rows=1, cols=1)}

#: The 1x1 spec has four genes, so k=5 is out of range there.
MUTATE_CASES = [
    f"{name}/k{rate}"
    for name, spec in MUTATE_SPECS.items()
    for rate in MUTATE_RATES
    if rate <= spec.n_genes
]


def run_mutate_case(case: str) -> Dict[str, Any]:
    name, rate = case.split("/")
    spec, rate = MUTATE_SPECS[name], int(rate[1:])
    rng = np.random.default_rng(2013)
    parent = Genotype.random(spec, rng)
    draws = []
    for _ in range(MUTATE_DRAWS):
        result = mutate(parent, rate, rng)
        draws.append([
            _genes(result.genotype),
            list(result.mutated_indices),
            [list(position) for position in result.changed_pe_positions],
        ])
        parent = result.genotype
    return {"digest": _digest(draws), "last_genes": draws[-1][0]}


# --------------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden["drivers"]) == sorted(CASES)
    assert sorted(golden["mutate"]) == sorted(MUTATE_CASES)


@pytest.mark.parametrize("case", CASES)
def test_driver_trajectory(case, golden):
    assert run_case(case) == golden["drivers"][case]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("condition", CONDITIONS)
def test_es_scalar_evaluate_matches_population_hook(backend, condition, golden):
    """Without the ``evaluate_population`` hook the ES scores offspring one
    ``evaluate`` call at a time; the trajectory must not change."""
    record = _es(backend, condition, population_hook=False)
    assert record == golden["drivers"][f"one_plus_lambda_es/{backend}/{condition}"]


@pytest.mark.parametrize("case", MUTATE_CASES)
def test_mutate_draw_order(case, golden):
    assert run_mutate_case(case) == golden["mutate"][case]


def record() -> Dict[str, Any]:
    """Run every case and return the fixture payload."""
    return {
        "drivers": {case: run_case(case) for case in CASES},
        "mutate": {case: run_mutate_case(case) for case in MUTATE_CASES},
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    FIXTURE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(CASES)} driver cases, {len(MUTATE_CASES)} mutate cases)")
