"""Every clock placement of a served run, pinned by digest.

The committed goldens print rounded latencies and totals, so a single
request placed a microsecond later on another arm can leave them
unchanged.  This test digests what the overlap scheduler decided, to
the bit: every ``VirtualClock`` reservation ``(disk, begin, end)``, the
per-disk ``DiskStats`` and the pool's hits, misses and evictions, on
five 4-disk runs that take the served path's different turns:

* ``lru``: read-only traffic under LRU, answered ahead and priced;
* ``clock`` and ``lru-k``: the same traffic under the other victim
  rules;
* ``prefetch``: the same traffic with sequential read-ahead, whose
  non-blocking plans and wasted pages go through the eviction hook;
* ``mixed``: sessions that insert and delete beside their reads under
  a small pool, so dirty victims are written back from the hook while
  a request is being served.

The digests were computed on the tree before the served path priced a
request in one pass; a change that moves one reservation changes them.
Each configuration runs twice in one process and must give the same
digest both times.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.data.series import scaled, spec_for
from repro.data.tiger import generate_map
from repro.database import SpatialDatabase
from repro.iosched.scheduler import VirtualClock
from repro.workload.streams import mixed_stream
from repro.workload.traffic import make_traffic

DIGESTS = {
    "lru": "0e8cf9869a56ac80",
    "clock": "2bacfbed43bd4388",
    "lru-k": "b472cced7b2b29c3",
    "prefetch": "7dde074278ee6d76",
    "mixed": "e473b4c176c47170",
}


class RecordingClock(VirtualClock):
    """A virtual clock that keeps every reservation it places."""

    __slots__ = ("placed",)

    def __init__(self):
        super().__init__()
        self.placed: list[tuple[int, float, float]] = []

    def reserve(self, disk: int, at: float, work: float) -> float:
        begin = super().reserve(disk, at, work)
        self.placed.append((disk, begin, begin + work))
        return begin


def _objects():
    spec = scaled(spec_for("A-1"), 0.005)
    return spec, generate_map(spec, seed=1994)


def _written_pages(db) -> float:
    return sum(
        value
        for name, value in db.metrics.snapshot().items()
        if name.startswith("write.pages")
    )


def placement_digest(config: str) -> tuple[str, dict]:
    """Run ``config`` on a fresh 4-disk ``overlap`` database; returns
    the digest and the facts it covers beside it (for the asserts that
    the run took the turn it is named for)."""
    spec, objects = _objects()
    db = SpatialDatabase(
        avg_object_size=spec.avg_object_size,
        n_disks=4,
        placement="spatial",
        scheduler="overlap",
        prefetch="sequential" if config == "prefetch" else None,
    )
    stored = objects[:-12] if config == "mixed" else objects
    db.build(stored)
    clock = db.scheduler.clock = RecordingClock()
    policy = config if config in ("clock", "lru-k") else "lru"
    engine = db._engine(16, policy)
    written = _written_pages(db)
    if config == "mixed":
        sessions = {
            f"c{i}": mixed_stream(
                stored,
                n_windows=10,
                n_points=8,
                inserts=objects[-12:][i::3],
                deletes=[obj.oid for obj in stored[20 * i : 20 * i + 5]],
                seed=60 + i,
            )
            for i in range(3)
        }
        report = engine.run_sessions(sessions)
    else:
        report = engine.run_traffic(make_traffic(objects, 40, rate_per_s=10.0, seed=7))
    pool = engine.pool
    facts = {
        "reservations": len(clock.placed),
        "hits": pool.hits,
        "misses": pool.misses,
        "evictions": pool.evictions,
        "prefetch": report.prefetch,
        "flush_pages": report.phase("flush").io.pages_transferred
        if report.phase("flush") is not None
        else 0,
        "written_pages": _written_pages(db) - written,
    }
    text = repr(
        (
            clock.placed,
            db.disk.per_disk_stats(),
            (pool.hits, pool.misses, pool.evictions),
            clock.makespan,
        )
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16], facts


@pytest.mark.parametrize("config", list(DIGESTS))
def test_every_placement_is_pinned(config):
    digest, facts = placement_digest(config)
    again, _ = placement_digest(config)
    assert again == digest, "the same run placed its requests differently"
    assert facts["reservations"] > 100 and facts["evictions"] > facts["misses"] // 2
    if config == "prefetch":
        assert facts["prefetch"]["issued"] > 0 and facts["prefetch"]["wasted"] > 0
    if config == "mixed":
        # Dirty victims were written back while serving, not only by
        # the final flush.
        assert facts["written_pages"] > facts["flush_pages"]
    assert digest == DIGESTS[config]


if __name__ == "__main__":  # pragma: no cover - prints the digests to pin
    for name in DIGESTS:
        print(name, *placement_digest(name))
