"""Seeded open-loop arrival processes for the sort service.

An *open-loop* workload submits jobs on its own clock, independent of
how fast the cluster drains them -- the regime where queueing delay,
backpressure and load shedding actually matter (a closed loop can never
over-drive the service past its knee).  Every process here is a
deterministic function of its seed: the same seed always yields the
byte-identical :class:`JobSpec` stream, which is what makes the service
benchmarks and the percentile reports reproducible (pinned by the
two-process ``PYTHONHASHSEED`` test in ``tests/test_service.py``).

Three processes cover the paper-to-production spectrum:

* :class:`PoissonArrivals` -- memoryless arrivals at a fixed offered
  rate (jobs per simulated second), the M/G/k baseline.
* :class:`BurstyArrivals` -- a non-homogeneous Poisson process whose
  rate is modulated by a diurnal sinusoid, realised by Lewis-Shedler
  thinning (candidates drawn at the peak rate, kept with probability
  ``rate(t)/peak``).  Same-seed streams are byte-identical; the bursts
  are what exercises load shedding and deadline misses.
* :class:`TraceArrivals` -- replay of an explicit spec list or a JSONL
  trace file (one ``{"t": ...}`` object per line), for replaying
  captured production traffic.

Job heterogeneity (record counts, tenants, systems, relative deadlines)
is drawn inside the stream from the same seeded RNG, so one seed pins
the *entire* workload, not just its timing.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError

#: Default record count per job when no size mix is given.
DEFAULT_RECORDS = 5_000


@dataclass(frozen=True)
class JobSpec:
    """One job in an arrival stream: everything needed to submit it.

    ``arrival_time`` is absolute simulated seconds from the start of the
    stream; ``deadline`` is *relative* seconds from arrival (None means
    no deadline).  ``seed`` seeds the job's dataset so two jobs never
    sort identical bytes unless the stream says so.
    """

    index: int
    arrival_time: float
    name: str
    tenant: str
    system: str
    records: int
    seed: int
    deadline: Optional[float] = None

    def __post_init__(self):
        if self.records < 1:
            raise ConfigError(f"job {self.name!r} needs at least one record")
        if not 0 <= self.arrival_time < math.inf:
            raise ConfigError(
                f"job {self.name!r} arrives at {self.arrival_time!r}, "
                f"not at a finite t >= 0"
            )
        if self.deadline is not None and not 0 < self.deadline < math.inf:
            raise ConfigError(
                f"job {self.name!r} deadline must be a finite number > 0 s"
            )

    def as_line(self) -> str:
        """Canonical one-line serialization (byte-identity tests)."""
        return (
            f"{self.index} {self.arrival_time!r} {self.name} {self.tenant} "
            f"{self.system} {self.records} {self.seed} {self.deadline!r}"
        )


#: ``size_mix`` entry: (records, relative weight).
SizeMix = Sequence[Tuple[int, float]]


class ArrivalProcess:
    """Base class: an iterable of :class:`JobSpec` in arrival order.

    ``finite`` distinguishes bounded replays from generative processes;
    the service requires a ``horizon`` or ``max_jobs`` bound for the
    infinite ones.
    """

    #: Whether iteration terminates on its own.
    finite = False

    def stream(self) -> Iterator[JobSpec]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[JobSpec]:
        return self.stream()

    def take(self, n: int) -> List[JobSpec]:
        """The first ``n`` specs (fresh stream each call)."""
        return list(itertools.islice(self.stream(), n))


class _GenerativeArrivals(ArrivalProcess):
    """Shared job-mixing machinery for the seeded generative processes."""

    def __init__(
        self,
        seed: int = 0,
        records: int = DEFAULT_RECORDS,
        size_mix: Optional[SizeMix] = None,
        tenants: int = 2,
        systems: Sequence[str] = ("wiscsort",),
        deadline: Optional[float] = None,
        name_prefix: str = "job",
    ):
        if tenants < 1:
            raise ConfigError("arrivals need at least one tenant")
        if not systems:
            raise ConfigError("arrivals need at least one system name")
        if records < 1:
            raise ConfigError("records per job must be >= 1")
        if size_mix is not None:
            if not size_mix:
                raise ConfigError("size_mix must not be empty")
            for recs, weight in size_mix:
                if recs < 1 or weight <= 0:
                    raise ConfigError(
                        "size_mix entries must be (records >= 1, weight > 0)"
                    )
        self.seed = seed
        self.records = records
        self.size_mix = tuple(size_mix) if size_mix is not None else None
        self.tenants = tenants
        #: One string per tenant, shared by all of its jobs' specs.
        self._tenant_names = tuple(f"tenant{i}" for i in range(tenants))
        self.systems = tuple(systems)
        self.deadline = deadline
        self.name_prefix = name_prefix

    def _spec(self, rng: random.Random, index: int, t: float) -> JobSpec:
        if self.size_mix is not None:
            sizes = [recs for recs, _w in self.size_mix]
            weights = [w for _recs, w in self.size_mix]
            records = rng.choices(sizes, weights=weights)[0]
        else:
            records = self.records
        return JobSpec(
            index=index,
            arrival_time=t,
            name=f"{self.name_prefix}{index:05d}",
            tenant=self._tenant_names[index % self.tenants],
            system=self.systems[index % len(self.systems)],
            records=records,
            seed=self.seed + index,
            deadline=self.deadline,
        )


class PoissonArrivals(_GenerativeArrivals):
    """Open-loop Poisson arrivals at ``rate`` jobs per simulated second."""

    def __init__(self, rate: float, seed: int = 0, **job_kwargs):
        if not 0 < rate < math.inf:
            raise ConfigError("arrival rate must be a finite number > 0 jobs/s")
        super().__init__(seed=seed, **job_kwargs)
        self.rate = rate

    def stream(self) -> Iterator[JobSpec]:
        rng = random.Random(self.seed)
        t = 0.0
        index = 0
        while True:
            t += rng.expovariate(self.rate)
            yield self._spec(rng, index, t)
            index += 1


class BurstyArrivals(_GenerativeArrivals):
    """Diurnally modulated Poisson arrivals via Lewis-Shedler thinning.

    The instantaneous rate is
    ``base_rate * (1 + amplitude * sin(2*pi*t / period))`` -- a "day"
    of ``period`` simulated seconds with peaks ``(1+amplitude)x`` and
    troughs ``(1-amplitude)x`` the base rate.  Candidates are drawn at
    the peak rate and kept with probability ``rate(t)/peak``; both draws
    come from the one seeded RNG, so the accepted stream is a pure
    function of the seed.
    """

    def __init__(
        self,
        base_rate: float,
        seed: int = 0,
        period: float = 1.0,
        amplitude: float = 0.8,
        **job_kwargs,
    ):
        if not 0 < base_rate < math.inf:
            raise ConfigError(
                "base arrival rate must be a finite number > 0 jobs/s"
            )
        if not 0 < period < math.inf:
            raise ConfigError("diurnal period must be a finite number > 0 s")
        if not 0.0 <= amplitude < 1.0:
            raise ConfigError("amplitude must be in [0, 1)")
        super().__init__(seed=seed, **job_kwargs)
        self.base_rate = base_rate
        self.period = period
        self.amplitude = amplitude

    def _rate_at(self, t: float) -> float:
        return self.base_rate * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.period)
        )

    def stream(self) -> Iterator[JobSpec]:
        rng = random.Random(self.seed)
        peak = self.base_rate * (1.0 + self.amplitude)
        t = 0.0
        index = 0
        while True:
            t += rng.expovariate(peak)
            if rng.random() >= self._rate_at(t) / peak:
                continue  # thinned candidate: off-peak instant
            yield self._spec(rng, index, t)
            index += 1


class TraceArrivals(ArrivalProcess):
    """Replay an explicit list of specs (or a JSONL trace file).

    Each trace entry needs an arrival time ``t``; everything else takes
    the constructor defaults.  Entries must be sorted by ``t``.
    """

    finite = True

    def __init__(
        self,
        entries: Iterable[Union[JobSpec, dict]],
        records: int = DEFAULT_RECORDS,
        system: str = "wiscsort",
        seed: int = 0,
        name_prefix: str = "job",
    ):
        self._specs: List[JobSpec] = []
        last_t = 0.0
        for index, entry in enumerate(entries):
            if isinstance(entry, JobSpec):
                spec = entry
            elif isinstance(entry, dict):
                unknown = set(entry) - {
                    "t", "records", "tenant", "system", "seed", "deadline"
                }
                if unknown:
                    raise ConfigError(
                        f"trace entry {index} has unknown fields "
                        f"{sorted(unknown)}"
                    )
                if "t" not in entry:
                    raise ConfigError(f"trace entry {index} is missing 't'")
                spec = JobSpec(
                    index=index,
                    arrival_time=float(entry["t"]),
                    name=f"{name_prefix}{index:05d}",
                    tenant=str(entry.get("tenant", "tenant0")),
                    system=str(entry.get("system", system)),
                    records=int(entry.get("records", records)),
                    seed=int(entry.get("seed", seed + index)),
                    deadline=(
                        float(entry["deadline"])
                        if entry.get("deadline") is not None
                        else None
                    ),
                )
            else:
                raise ConfigError(
                    f"trace entry {index} must be a JobSpec or a dict, "
                    f"not {type(entry).__name__}"
                )
            if spec.arrival_time < last_t:
                raise ConfigError(
                    f"trace entry {index} arrives at {spec.arrival_time!r} "
                    f"before its predecessor at {last_t!r}; sort the trace"
                )
            last_t = spec.arrival_time
            self._specs.append(spec)

    @classmethod
    def from_file(cls, path: str, **kwargs) -> "TraceArrivals":
        """Load a JSONL trace: one ``{"t": ..., ...}`` object per line."""
        entries: List[dict] = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ConfigError(
                        f"{path}:{lineno}: not valid JSON: {exc}"
                    ) from None
                if not isinstance(obj, dict):
                    raise ConfigError(
                        f"{path}:{lineno}: each trace line must be an object"
                    )
                entries.append(obj)
        return cls(entries, **kwargs)

    def stream(self) -> Iterator[JobSpec]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)


def stream_fingerprint(specs: Iterable[JobSpec]) -> str:
    """SHA-256 over the canonical serialization of a spec stream.

    Two same-seed streams must fingerprint identically;
    ``tests/test_arrivals.py`` (``test_same_seed_byte_identical``)
    compares exactly this.
    """
    import hashlib

    digest = hashlib.sha256()
    for spec in specs:
        digest.update(spec.as_line().encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()
