"""Seeded input generators for the three workloads.

Every generator takes the seed as its only source of randomness, so one
seed gives byte-identical inputs (see :func:`inputs_digest`) and the
program under test receives nothing but what is generated here.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass

#: Processor ids of the simulated ring (n = 5) and the live cluster (n = 3).
SIM_PROCS: tuple[int, ...] = (1, 2, 3, 4, 5)
LIVE_PROCS: tuple[str, ...] = ("p1", "p2", "p3")

#: Simulated ring timing, ``RingConfig(delta, pi, mu)``, in virtual time.
DELTA = 1.0
PI = 10.0
MU = 50.0
#: Simulator load: one bcast every SIM_INTERVAL δ, the first at SIM_START;
#: then SETTLE δ for the last values to be delivered.
SIM_INTERVAL = 1.2
SIM_START = 10.0
SETTLE = 300.0
#: ``live-paced`` offered load, bcast per second.
PACED_RATE = 200


def _value(rng: random.Random, tag: str, index: int) -> str:
    """A client value: unique by index, with a seeded payload tail."""
    return f"{tag}{index}-{rng.getrandbits(48):012x}"


@dataclass(frozen=True)
class Split:
    """One partition of the churn cycle: ``groups`` hold from ``cut`` to
    ``heal``; processors in no group are bad; ``restart`` members are
    crash-restarted at the heal."""

    cut: float
    heal: float
    groups: tuple[tuple[int, ...], ...]
    restart: tuple[int, ...] = ()


@dataclass(frozen=True)
class SimInputs:
    """Open-loop virtual-time load on the simulated n = 5 ring: one
    bcast every :data:`SIM_INTERVAL` δ from :data:`SIM_START`,
    round-robin over the members."""

    seed: int
    episode: int
    #: seeds the simulator's per-packet delays
    ring_seed: int
    sends: tuple[tuple[float, int, str], ...]
    splits: tuple[Split, ...] = ()

    @property
    def first_due(self) -> float:
        return self.sends[0][0]

    @property
    def last_due(self) -> float:
        return self.sends[-1][0]

    @property
    def horizon(self) -> float:
        return self.last_due + SETTLE


#: The churn cycle's three splits, rotated in this order: (groups, the
#: processors left out of every group and therefore bad).
CHURN_SPLITS: tuple[tuple[tuple[int, ...], ...], ...] = (
    ((1, 2, 3), (4, 5)),
    ((1, 2), (3, 4, 5)),
    ((1, 2, 3, 4),),
)


def sim_inputs(
    seed: int,
    episode: int = 0,
    *,
    sends: int = 3200,
    churn: bool = False,
    period: float = 150.0,
    outage: float = 75.0,
) -> SimInputs:
    """The ``sim-steady`` input, or with ``churn`` the ``sim-churn`` one:
    a partition every ``period`` δ, held for ``outage`` δ, rotating over
    :data:`CHURN_SPLITS`; a processor cut off as bad is crash-restarted
    at the heal that follows.  Each ``episode`` of one seed gets its
    own values and packet delays."""
    rng = random.Random(f"sim:{seed}:{episode}")
    n = len(SIM_PROCS)
    schedule = tuple(
        (SIM_START + SIM_INTERVAL * i, SIM_PROCS[i % n], _value(rng, "v", i))
        for i in range(sends)
    )
    splits: list[Split] = []
    if churn:
        last = schedule[-1][0]
        cut = SIM_START + period / 2
        k = 0
        while cut + outage < last:
            groups = CHURN_SPLITS[k % len(CHURN_SPLITS)]
            covered = {p for g in groups for p in g}
            splits.append(
                Split(
                    cut=cut,
                    heal=cut + outage,
                    groups=groups,
                    restart=tuple(p for p in SIM_PROCS if p not in covered),
                )
            )
            cut += period
            k += 1
    return SimInputs(
        seed=seed,
        episode=episode,
        ring_seed=rng.getrandbits(32),
        sends=schedule,
        splits=tuple(splits),
    )


@dataclass(frozen=True)
class PacedInputs:
    """Open-loop Poisson load on the live cluster: ``sends`` holds
    ``(due offset in seconds, origin, value)``, round-robin origins."""

    seed: int
    sends: tuple[tuple[float, str, str], ...]


def paced_inputs(seed: int, duration: int) -> PacedInputs:
    """Poisson arrivals at :data:`PACED_RATE` bcast/s for ``duration``
    whole seconds, conditioned on exactly that many arrivals in each
    second (uniform within it), so every run offers the same load."""
    rng = random.Random(f"paced:{seed}")
    due = sorted(
        second + rng.random() for second in range(duration) for _ in range(PACED_RATE)
    )
    n = len(LIVE_PROCS)
    sends = tuple(
        (t, LIVE_PROCS[i % n], _value(rng, "a", i)) for i, t in enumerate(due)
    )
    return PacedInputs(seed=seed, sends=sends)


def inputs_digest(inputs: SimInputs | PacedInputs) -> str:
    """SHA-256 of a canonical encoding of generated inputs."""
    doc = asdict(inputs)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
