"""repro — a simulation-based reproduction of "Dynamic Platforms for
Uncertainty Management in Future Automotive E/E Architectures" (DAC 2017).

Subpackages, bottom-up:

* :mod:`repro.errors`, :mod:`repro.obs` — exceptions and observability,
  importable from every layer
* :mod:`repro.sim` — discrete-event simulation kernel
* :mod:`repro.hw` — ECU and topology models
* :mod:`repro.jobs` — the job protocol between producers and the executor
* :mod:`repro.network` — CAN / FlexRay / Ethernet / TSN bus simulators
* :mod:`repro.osal` — schedulers, schedulability analysis, memory model
* :mod:`repro.middleware` — service-oriented communication (event/RPC/stream)
* :mod:`repro.model` — system-modeling DSLs and the verification engine
* :mod:`repro.security` — signed packages, update masters, auth, analysis
* :mod:`repro.core` — **the dynamic platform** (the paper's contribution)
* :mod:`repro.exec` — deterministic parallel execution and the campaign
  spine (checkpoints, resume)
* :mod:`repro.dse` — design space exploration
* :mod:`repro.faults` — seeded fault injection and chaos campaigns
* :mod:`repro.fleet` — sharded fleet campaigns and campaign sweeps
* :mod:`repro.xil` — MiL/SiL closed-loop testing
* :mod:`repro.workloads` — synthetic and realistic automotive workloads
* :mod:`repro.baselines` — the static federated architecture
* :mod:`repro.analysis` — static determinism, pickle, layering and race
  checks over the source tree

Importing :mod:`repro` imports every campaign module, so every campaign
kind is registered with :func:`repro.exec.resume_campaign` in any
process.
"""

__version__ = "1.0.0"

from . import (  # noqa: F401
    baselines,
    core,
    dse,
    errors,
    exec,
    faults,
    fleet,
    hw,
    middleware,
    model,
    network,
    osal,
    security,
    sim,
    workloads,
    xil,
)

__all__ = [
    "__version__",
    "baselines",
    "core",
    "dse",
    "errors",
    "exec",
    "faults",
    "fleet",
    "hw",
    "middleware",
    "model",
    "network",
    "osal",
    "security",
    "sim",
    "workloads",
    "xil",
]
