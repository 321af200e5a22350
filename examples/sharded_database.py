"""A spatial database over a sharded multi-disk page store.

The Section 7 outlook — parallel cluster organizations over several
disks — switched on for the *whole* database:
``SpatialDatabase(n_disks=..., placement="spatial")`` puts a
:class:`~repro.pagestore.store.ShardedPageStore` behind the buffer
pool, so construction, window queries, point queries and the workload
engine all run declustered — and every measurement separates the
device time consumed from the response time observed.

Run with::

    python examples/sharded_database.py [scale]
"""

from __future__ import annotations

import sys

from repro import SpatialDatabase, mixed_stream
from repro.data import generate_map, scaled, spec_for, window_workload
from repro.eval.report import format_table


def main(scale: float = 0.02) -> None:
    spec = scaled(spec_for("A-1"), scale)
    objects = generate_map(spec, seed=1994)
    windows = window_workload(objects, 1e-2, n_queries=40, seed=11)

    rows = []
    for n_disks in (1, 2, 4, 8):
        db = SpatialDatabase(
            smax_bytes=spec.smax_bytes, n_disks=n_disks, placement="spatial"
        )
        print(f"building on {n_disks} disk(s) ...")
        db.build(objects)
        # One measure() per query: each query is a parallel batch, the
        # queries themselves arrive serially (the same model the
        # `repro.eval pagestore` subcommand and the benchmarks use).
        device = response = 0.0
        for window in windows:
            with db.disk.measure() as cost:
                db.storage.window_query(window)
            device += cost.total_ms
            response += cost.response_ms
        rows.append((n_disks, device, response, device / response))

    print()
    print(
        format_table(
            ["disks", "device ms", "response ms", "parallelism"],
            rows,
            title="1% window queries, whole stack behind the sharded store",
        )
    )

    # The workload engine reports the same split per phase.
    db = SpatialDatabase(
        smax_bytes=spec.smax_bytes, n_disks=4, placement="spatial"
    )
    db.build(objects)
    stream = mixed_stream(objects, n_windows=20, n_points=20, seed=7)
    print()
    print(db.run_workload(stream, buffer_pages=400).format())


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.02)
