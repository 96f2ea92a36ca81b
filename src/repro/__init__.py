"""Gossip-based peer sampling service.

A faithful, fully-featured reproduction of

    Jelasity, Guerraoui, Kermarrec, van Steen:
    "The Peer Sampling Service: Experimental Evaluation of Unstructured
    Gossip-Based Implementations", Middleware 2004 (LNCS 3231, pp. 79-98).

The package provides:

- :mod:`repro.core` -- the generic gossip protocol skeleton (paper Fig. 1),
  its three policy dimensions (peer selection, view selection, view
  propagation) and the two-method peer sampling API (``init`` / ``get_peer``).
- :mod:`repro.simulation` -- cycle-driven, event-driven and array-backed
  fast simulation engines, network models, churn injection and the paper's
  three bootstrap scenarios.
- :mod:`repro.graph` -- graph snapshots of the overlay and the metrics the
  paper evaluates (degree distribution, clustering coefficient, average path
  length, connectivity).
- :mod:`repro.stats` -- time-series statistics (autocorrelation, summaries).
- :mod:`repro.baselines` -- the ideal uniform random sampler and the random
  view topology the paper compares against.
- :mod:`repro.extensions` -- protocols from the paper's related/future work
  (Cyclon shuffling, PeerSwap, the Brahms defended sampler, combined
  second-view services).
- :mod:`repro.experiments` -- one module per paper table/figure, regenerating
  the reported rows and series.
- :mod:`repro.net` -- the deployment layer: asyncio UDP daemons running the
  service as real networked processes (``repro-node`` CLI, local-cluster
  harness, deterministic loopback transport, the ``live`` engine).
- :mod:`repro.workloads` -- the declarative workload API: serializable
  :class:`~repro.workloads.spec.ScenarioSpec` /
  :class:`~repro.workloads.plan.ExperimentPlan` documents compiled onto
  any engine (``repro-experiments run-spec``), the layer every artefact
  module builds its runs through.

Quickstart::

    from repro import CycleEngine, newscast
    from repro.simulation.scenarios import random_bootstrap

    engine = CycleEngine(newscast(view_size=30), seed=42)
    random_bootstrap(engine, n_nodes=1000)
    engine.run(cycles=50)
    service = engine.service(engine.addresses()[0])
    print(service.get_peer())

or declaratively, on any engine of the registry::

    from repro import ScenarioSpec, newscast, prepare_run

    runtime = prepare_run(
        ScenarioSpec(bootstrap="random", cycles=50),
        newscast(view_size=30), n_nodes=1000, seed=42, engine="fast",
    )
    runtime.run_to_end()
"""

from repro.core.config import (
    ALL_PROTOCOLS,
    STUDIED_PROTOCOLS,
    ProtocolConfig,
    lpbcast,
    newscast,
)
from repro.core.descriptor import NodeDescriptor
from repro.core.policies import PeerSelection, Propagation, ViewSelection
from repro.core.protocol import GossipNode
from repro.core.service import PeerSamplingService
from repro.core.view import PartialView
from repro.simulation.engine import CycleEngine
from repro.simulation.event_engine import EventEngine
from repro.simulation.fast import FastCycleEngine
from repro.simulation.fast_event import FastEventEngine
from repro.simulation.sharded import ShardedCycleEngine
from repro.workloads import (
    ExperimentPlan,
    ScenarioSpec,
    prepare_run,
    run_plan,
    run_plans,
)

__version__ = "1.9.0"

__all__ = [
    "ALL_PROTOCOLS",
    "STUDIED_PROTOCOLS",
    "CycleEngine",
    "EventEngine",
    "ExperimentPlan",
    "FastCycleEngine",
    "FastEventEngine",
    "GossipNode",
    "NodeDescriptor",
    "PartialView",
    "PeerSamplingService",
    "PeerSelection",
    "Propagation",
    "ProtocolConfig",
    "ScenarioSpec",
    "ShardedCycleEngine",
    "lpbcast",
    "newscast",
    "prepare_run",
    "run_plan",
    "run_plans",
    "ViewSelection",
    "__version__",
]
