"""A living image database: insertions and deletions between rebuilds.

Run with::

    python examples/dynamic_database.py

Real multimedia databases grow continuously, but Mogul's index (like most
graph indexes) is precomputed.  :class:`repro.LiveEngine` bridges the gap
the way write-buffered indexes do: new images land in a pending buffer
and are ranked with the generalized Manifold Ranking estimate of their
in-database neighbours (the same mechanism the paper's §4.6.2 uses for
out-of-sample queries), deletions are tombstoned, and the buffer is
folded into a fresh index, built in the background, once it outgrows a
fraction of the database.

The demo streams new photos into a database while querying it, then
checks that the buffered answers agree with a full rebuild.
"""

from __future__ import annotations

import time

import numpy as np

from repro import LiveEngine
from repro.datasets import make_pubfig


def main() -> None:
    dataset = make_pubfig(n_identities=30, images_per_identity=30, seed=5)
    initial, incoming, incoming_labels = dataset.holdout_split(150, seed=1)
    database = LiveEngine(
        initial.features, alpha=0.99, auto_rebuild_fraction=0.15
    )
    print(
        f"initial database: {database.n_indexed} images; "
        f"{incoming.shape[0]} images will stream in"
    )

    rng = np.random.default_rng(0)
    query_clock = insert_clock = 0.0
    inserted_ids = []
    for step, feature in enumerate(incoming):
        started = time.perf_counter()
        inserted_ids.append(database.add(feature))
        insert_clock += time.perf_counter() - started
        if step % 25 == 24:
            query = int(rng.integers(database.n_indexed))
            started = time.perf_counter()
            result = database.top_k(query, 10)
            query_clock += time.perf_counter() - started
            fresh = sum(1 for i in result.indices if int(i) in set(inserted_ids))
            print(
                f"after {step + 1:3d} inserts (pending={database.n_pending:2d}, "
                f"rebuilds={database.rebuild_count}): top-10 for node {query} "
                f"includes {fresh} just-inserted image(s)"
            )

    print(
        f"\ninsert throughput: {incoming.shape[0] / max(insert_clock, 1e-9):,.0f} "
        f"inserts/s (rebuilds run in the background)"
    )

    # Deletions: retire one identity's images and verify they vanish.
    victim_ids = [int(i) for i in inserted_ids[:5]]
    for node in victim_ids:
        database.remove(node)
    probe = database.top_k_out_of_sample(incoming[0], 20)
    assert not set(victim_ids) & set(probe.indices.tolist())
    print(f"tombstoned {len(victim_ids)} images; none appear in answers")

    # Buffered answers vs a full rebuild.
    query = int(rng.integers(database.n_indexed))
    before = database.top_k(query, 10)
    while database.n_pending:  # the first call may join an automatic rebuild
        database.rebuild()
    after = database.top_k(query, 10)
    overlap = len(set(before.indices.tolist()) & set(after.indices.tolist()))
    print(
        f"top-10 overlap between buffered and fully rebuilt index: {overlap}/10 "
        f"({database.rebuild_count} rebuilds in total)"
    )
    database.close()


if __name__ == "__main__":
    main()
