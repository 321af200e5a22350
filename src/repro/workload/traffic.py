"""Traffic generation: arrival processes over the workload format.

The workload engine's session runner replays a handful of scripted
clients; production traffic is tens of thousands of short sessions
arriving under a stochastic process.  :func:`make_traffic` builds that
traffic deterministically (seeded) over a stored map:

* **open-loop** arrivals (``poisson``) — sessions arrive whether or
  not earlier ones finished, the regime where queues actually build,
  with independent exponential inter-arrival gaps at a fixed mean rate;

* **closed-loop** arrivals (``closed``) — a fixed population of clients
  that each run several operations separated by think time; load is
  self-limiting (a slow system slows its own arrival stream down).

Each :class:`TrafficSession` carries ordinary workload operation tuples
(the :data:`repro.workload.engine.OP_KINDS` format), sampled from
seeded query pools: interactive sessions issue point queries and small
windows, analytics sessions large windows.  Session names encode the
class (``int-``/``ana-`` prefixes) so admission policies can classify
generated clients by name (:func:`class_of_session`,
``PriorityAdmission(classifier=...)``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.data.workload import point_workload, window_workload
from repro.errors import ConfigurationError
from repro.geometry.feature import SpatialObject
from repro.iosched.admission import ADMISSION_CLASSES

__all__ = [
    "ARRIVALS",
    "TrafficSession",
    "class_of_session",
    "make_traffic",
]

ARRIVALS = ("poisson", "closed")
"""Valid arrival-process names for every ``arrival=`` knob."""

# The classes a generated session belongs to, as admission names them.
INTERACTIVE, ANALYTICS = ADMISSION_CLASSES

# The generated query pools: _POOL_SIZE small windows (their centers
# are the point pool) of _WINDOW_AREA, and an eighth as many analytics
# windows of _ANALYTICS_AREA, both as fractions of the data space.  An
# analytics session is 1 to _ANALYTICS_OPS back-to-back large windows:
# bulk scans, the shape a per-client token bucket can actually pace (a
# one-operation session is over before its post-debit matters).
_POOL_SIZE = 512
_WINDOW_AREA = 1e-3
_ANALYTICS_AREA = 2e-2
_ANALYTICS_OPS = 8


@dataclass(slots=True)
class TrafficSession:
    """One arriving client session.

    ``arrival_ms`` is the virtual time the session enters the system;
    ``operations`` its scripted operation tuples; ``think_ms`` the idle
    gap between an operation's completion and the next operation's
    readiness (0 for open-loop one-shot sessions)."""

    name: str
    klass: str
    arrival_ms: float
    operations: list[tuple] = field(default_factory=list)
    think_ms: float = 0.0


def class_of_session(name: str) -> str:
    """Traffic class encoded in a generated session name (``ana-``
    prefix marks analytics; everything else is interactive) — the
    default classifier for admission over generated traffic."""
    return ANALYTICS if name.startswith("ana-") else INTERACTIVE


def _arrival_times(
    arrival: str, n_sessions: int, rate_per_s: float, rng: random.Random
) -> list[float]:
    """Arrival instants in virtual ms, non-decreasing, seeded."""
    if arrival == "closed":
        return [0.0] * n_sessions
    times: list[float] = []
    t_ms = 0.0
    for _ in range(n_sessions):
        t_ms += rng.expovariate(rate_per_s) * 1000.0
        times.append(t_ms)
    return times


def make_traffic(
    objects: Sequence[SpatialObject],
    n_sessions: int,
    *,
    arrival: str = "poisson",
    rate_per_s: float = 200.0,
    seed: int = 1994,
    analytics_fraction: float = 0.05,
    ops_per_session: int = 1,
    think_ms: float = 50.0,
    data_space: float | None = None,
) -> list[TrafficSession]:
    """Generate ``n_sessions`` seeded sessions under an arrival process.

    Query geometry is sampled from pre-generated pools (small windows
    and their center points, plus a pool of large windows), so
    generating 10^5 sessions costs
    list-indexing, not 10^5 workload constructions.  ``rate_per_s`` is
    the mean arrival rate in sessions per *virtual* second (ignored by
    the closed-loop process, whose population all starts at 0 and paces
    itself with ``think_ms``).  Interactive sessions issue 1 to
    ``ops_per_session`` small operations; analytics sessions 1 to 8
    back-to-back large windows.
    Deterministic for a fixed seed and parameter set.
    """
    if n_sessions < 0:
        raise ConfigurationError(f"n_sessions must be >= 0, got {n_sessions}")
    if arrival not in ARRIVALS:
        raise ConfigurationError(
            f"unknown arrival process '{arrival}'; valid: {ARRIVALS}"
        )
    if rate_per_s <= 0.0:
        raise ConfigurationError(f"rate_per_s must be > 0, got {rate_per_s}")
    if ops_per_session < 1:
        raise ConfigurationError(
            f"ops_per_session must be >= 1, got {ops_per_session}"
        )
    if think_ms < 0.0:
        raise ConfigurationError(f"think_ms must be >= 0, got {think_ms}")
    if not (0.0 <= analytics_fraction <= 1.0):
        raise ConfigurationError(
            f"analytics_fraction must be in [0, 1], got {analytics_fraction}"
        )
    if n_sessions == 0:
        return []
    extra = {"data_space": data_space} if data_space is not None else {}
    windows = window_workload(
        list(objects), _WINDOW_AREA, n_queries=_POOL_SIZE, seed=seed, **extra
    )
    points = point_workload(windows)
    analytics_windows = window_workload(
        list(objects), _ANALYTICS_AREA, n_queries=_POOL_SIZE // 8, seed=seed + 1, **extra
    )
    rng = random.Random(seed)
    times = _arrival_times(arrival, n_sessions, rate_per_s, rng)
    closed = arrival == "closed"
    sessions: list[TrafficSession] = []
    for i, at in enumerate(times):
        analytics = rng.random() < analytics_fraction
        if analytics:
            name = f"ana-{i:06d}"
            n_ops = rng.randint(1, _ANALYTICS_OPS)
            ops = [
                ("window", analytics_windows[rng.randrange(len(analytics_windows))])
                for _ in range(n_ops)
            ]
        else:
            name = f"int-{i:06d}"
            n_ops = rng.randint(1, ops_per_session)
            ops = []
            for _ in range(n_ops):
                if rng.random() < 0.5:
                    ops.append(
                        ("window", windows[rng.randrange(len(windows))])
                    )
                else:
                    x, y = points[rng.randrange(len(points))]
                    ops.append(("point", x, y))
        sessions.append(
            TrafficSession(
                name=name,
                klass=ANALYTICS if analytics else INTERACTIVE,
                arrival_ms=at,
                operations=ops,
                think_ms=think_ms if closed else 0.0,
            )
        )
    return sessions
