"""repro — reproduction of the IPPS 2013 multi-array evolvable hardware system.

This library reproduces, in pure Python, the system described in
*"A Novel FPGA-based Evolvable Hardware System Based on Multiple Processing
Arrays"* (Gallego et al., IPPS/IPDPS Workshops 2013): a scalable set of
evolvable systolic processing arrays for window-based image filtering,
evolved intrinsically through (simulated) Dynamic Partial Reconfiguration,
with parallel/cascaded/bypass/independent operation modes, a new
two-level-mutation evolutionary algorithm, and self-healing strategies that
combine scrubbing, TMR voting and evolution by imitation.

Quick start
-----------
The unified Session API (:mod:`repro.api`) is the recommended entry point:

>>> from repro.api import EvolutionConfig, EvolutionSession, PlatformConfig, TaskSpec
>>> session = EvolutionSession(
...     PlatformConfig(n_arrays=3, seed=1),
...     EvolutionConfig(strategy="parallel", n_generations=50, seed=1),
... )
>>> artifact = session.evolve(
...     TaskSpec(task="salt_pepper_denoise", image_side=32, seed=1, noise_level=0.1)
... )
>>> artifact.results["overall_best_fitness"] < float("inf")
True

The class-based entry points remain fully supported:

>>> from repro import EvolvableHardwarePlatform, ParallelEvolution
>>> from repro.imaging import make_training_pair
>>> pair = make_training_pair("salt_pepper_denoise", size=32, seed=1, noise_level=0.1)
>>> platform = EvolvableHardwarePlatform(n_arrays=3, seed=1)
>>> driver = ParallelEvolution(platform, n_offspring=9, mutation_rate=3, rng=1)
>>> result = driver.run(pair.training, pair.reference, n_generations=50)
>>> result.overall_best_fitness() < float("inf")
True

The package is organised as one sub-package per subsystem; see
``docs/architecture.md`` for the full inventory and ``docs/paper_map.md``
for the per-experiment index.
"""

from repro import analysis, api, backends, experiments, imaging, runtime
from repro.api import (
    EvolutionConfig,
    EvolutionSession,
    PlatformConfig,
    RunArtifact,
    SelfHealingConfig,
    TaskSpec,
)
from repro.array import ArrayGeometry, Genotype, GenotypeSpec, SystolicArray
from repro.core import (
    ArrayControlBlock,
    CascadeFitnessMode,
    CascadeSchedule,
    CascadedEvolution,
    CascadedSelfHealing,
    EvolvableHardwarePlatform,
    FitnessSource,
    FitnessVoter,
    ImitationEvolution,
    IndependentEvolution,
    ParallelEvolution,
    PixelVoter,
    PlatformEvolutionResult,
    ProcessingMode,
    TmrSelfHealing,
    TwoLevelMutationEvolution,
)
from repro.runtime import CampaignSpec, CampaignStore, run_campaign
from repro.timing import EvolutionTimingModel

__version__ = "3.0.0"

__all__ = [
    "analysis",
    "api",
    "backends",
    "experiments",
    "imaging",
    "runtime",
    "CampaignSpec",
    "CampaignStore",
    "run_campaign",
    "EvolutionConfig",
    "EvolutionSession",
    "PlatformConfig",
    "RunArtifact",
    "SelfHealingConfig",
    "TaskSpec",
    "ArrayGeometry",
    "Genotype",
    "GenotypeSpec",
    "SystolicArray",
    "ArrayControlBlock",
    "CascadeFitnessMode",
    "CascadeSchedule",
    "CascadedEvolution",
    "CascadedSelfHealing",
    "EvolvableHardwarePlatform",
    "FitnessSource",
    "FitnessVoter",
    "ImitationEvolution",
    "IndependentEvolution",
    "ParallelEvolution",
    "PixelVoter",
    "PlatformEvolutionResult",
    "ProcessingMode",
    "TmrSelfHealing",
    "TwoLevelMutationEvolution",
    "EvolutionTimingModel",
    "__version__",
]
