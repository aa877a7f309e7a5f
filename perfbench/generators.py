"""Seed -> workload inputs.  The program receives only what these build.

Every generator is a pure function of ``seed``: plain RunSpecs for the
in-process workloads, plain JSON bodies for the HTTP one.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any, Dict, Iterator, List, Tuple

from repro.campaign import rare_events_campaign, validation_campaign
from repro.campaign.definitions import CampaignDefinition
from repro.spec import ClusterSpec, ProtocolSpec, RunSpec, ScenarioSpec

#: The seed the reference digests in ``reference.json`` were taken at.
DEFAULT_SEED = 0

ORACLE_NODES = 64
#: An oracle repetition runs a fresh cluster for one segment (cold),
#: then the same cluster for a second segment (warm).
ORACLE_SEGMENT = 20

#: Sec. 8 validation repetitions: 18 classes x 20 = 360 short tasks.
POOL_REPS = 20

MC_NODES = 16
#: Replicates per Gilbert-Elliott rate (3 rates).
MC_REPLICATES = 200
#: Rounds per replicate: long enough that the kernel, not the commit
#: fsyncs, sets the cold time (the rare-events campaign itself runs 20).
MC_ROUNDS = 60

SERVICE_NODES = 4
SERVICE_ROUNDS = 20
#: Preloaded submissions: rare-events repetitions, specs per spec file.
WARM_REPS = 2
WARM_SPECS = 3
SERVICE_CLIENTS = 2
#: Seeded operation mix: warm re-POST / GET result / fresh job.
SERVICE_MIX = (0.6, 0.2, 0.2)
RESULT_FORMATS = ("json", "md", "html", "csv")


def _ge_scenario(p_gb: float, stream: str) -> ScenarioSpec:
    return ScenarioSpec("GilbertElliottChannel", {
        "p_gb": p_gb, "p_bg": 0.5, "error_good": 0.0, "error_bad": 1.0,
        "rng_stream": stream})


def oracle_spec(seed: int) -> RunSpec:
    """N=64 behind a bursty channel (about 17% bad slots), no isolation."""
    return RunSpec(
        protocol=ProtocolSpec(n_nodes=ORACLE_NODES,
                              penalty_threshold=10 ** 6,
                              reward_threshold=10 ** 6,
                              criticalities=(1,) * ORACLE_NODES),
        cluster=ClusterSpec(seed=seed, trace_level=0),
        scenarios=(_ge_scenario(0.1, "bench-ge"),),
        n_rounds=2 * ORACLE_SEGMENT,
    )


def _shift_seed(spec: RunSpec, offset: int) -> RunSpec:
    return spec.with_updates(
        cluster=replace(spec.cluster, seed=spec.cluster.seed + offset))


def pool_campaign(seed: int) -> Tuple[CampaignDefinition,
                                      List[Tuple[str, RunSpec]]]:
    """The Sec. 8 validation campaign with seeds shifted by ``seed``."""
    definition = validation_campaign(repetitions=POOL_REPS)
    labeled = [(label, _shift_seed(spec, seed * POOL_REPS))
               for label, spec in definition.labeled_specs]
    return replace(definition, labeled_specs=labeled), labeled


def montecarlo_campaign(seed: int) -> Tuple[CampaignDefinition,
                                            List[Tuple[str, RunSpec]]]:
    """The rare-events campaign at N=16 on the vectorized backend."""
    definition = rare_events_campaign(replicates=MC_REPLICATES,
                                      n_nodes=MC_NODES,
                                      seed=seed * MC_REPLICATES)
    labeled = [(label, spec.with_updates(backend="vectorized",
                                         n_rounds=MC_ROUNDS))
               for label, spec in definition.labeled_specs]
    return replace(definition, labeled_specs=labeled), labeled


def _service_spec(seed: int, p_gb: float) -> Dict[str, Any]:
    n = SERVICE_NODES
    return RunSpec(
        protocol=ProtocolSpec(n_nodes=n, penalty_threshold=3,
                              reward_threshold=10, criticalities=(1,) * n),
        cluster=ClusterSpec(seed=seed, trace_level=1),
        scenarios=(_ge_scenario(p_gb, "svc-ge"),),
        n_rounds=SERVICE_ROUNDS,
    ).to_dict()


def service_warm_set(seed: int) -> List[Dict[str, Any]]:
    """Submissions preloaded before the window and re-POSTed in it."""
    rng = random.Random(f"perfbench-warm-{seed}")
    bodies: List[Dict[str, Any]] = []
    for j in range(4):
        bodies.append({"campaign": "rare-events", "reps": WARM_REPS,
                       "nodes": SERVICE_NODES,
                       "seed": seed * 100 + 10 * j})
    for j in range(4):
        bodies.append({"specs": [
            _service_spec(rng.randrange(10 ** 6), rng.choice((0.05, 0.1)))
            for _ in range(WARM_SPECS)]})
    return bodies


def service_ops(seed: int, client: int,
                n_warm: int) -> Iterator[Tuple[str, Any]]:
    """One client's endless seeded operation stream.

    Yields ``("warm", warm_index)``, ``("result", (warm_index, fmt))``
    or ``("fresh", body)``; fresh bodies never repeat within a stream,
    and the two clients' seeds are disjoint.
    """
    rng = random.Random(f"perfbench-ops-{seed}-{client}")
    formats = 0
    fresh = 0
    p_warm, p_result, _p_fresh = SERVICE_MIX
    while True:
        draw = rng.random()
        if draw < p_warm:
            yield "warm", rng.randrange(n_warm)
        elif draw < p_warm + p_result:
            fmt = RESULT_FORMATS[formats % len(RESULT_FORMATS)]
            formats += 1
            yield "result", (rng.randrange(n_warm), fmt)
        else:
            fresh += 1
            spec_seed = 10 ** 7 + seed * 10 ** 5 + client * 10 ** 4 + fresh
            yield "fresh", {"spec": _service_spec(spec_seed,
                                                  rng.choice((0.05, 0.1)))}
