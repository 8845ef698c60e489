"""Event-rate benchmark for the vectorized simulation core.

Drives a million-query saturated Poisson stream (200 GB corpus, 8
shards, full batches of 16) through ``VectorizedScheduler.run_arrays``
and the same workload's leading slice through the scalar event loop
(``PoolLoop`` pinned to the fleet), and reports simulated events per
wall-second for both.  A second, light-load row runs the plain
``repro serve`` shape (60k Poisson arrivals at 600 qps on the same
fleet), where the scan spends its time in per-batch scalar steps
rather than in the saturated bulk path.  The CI gate
(``check_bench_regression.py --suite simcore``) holds:

* ``*_events_per_s`` within 10% of the committed baseline (relative,
  like the throughput metrics -- but exempt from the bit-identical
  replay check, because wall clocks are measured, not simulated);
* ``queries_speedup_x`` above an absolute floor of 100 (the headline:
  the vectorized core simulates >= 100x more queries per wall-second);
* the simulated shape (batch count, event count, horizon) and the
  ``bit_identical`` flag -- computed by running ``run_arrays`` on the
  scalar slice and comparing its columns with the scalar
  ``ScheduleResult`` shard by shard (each shard's batches, every
  request's resolution time, busy seconds) -- bit-for-bit.

Timings are best-of-n to shed scheduler noise and cold-start page
faults; the scalar engine runs a 1/32 slice (31,250 queries) so the
gate stays under a minute, and rates are compared per-query so the
slice size cancels out.  The light-load row checks bit-identity on its
leading 7,500 queries.
"""

import argparse
import json
import time

import pytest

from repro.rag.corpus import PAPER_CORPORA
from repro.serve import BatchPolicy, PoolLoop, SliceCostModel, \
    poisson_arrival_times, shard_chunk_counts
from repro.simcore import VectorizedScheduler

N_VECTORIZED = 1_000_000
N_SCALAR = 31_250  # 1/32 slice: same stream, tractable scalar wall time
OFFERED_QPS = 20_000.0  # far above capacity -> saturated full batches
N_SHARDS = 8
SEED = 0
N_VEC_RUNS = 5
N_SCALAR_RUNS = 3
SPEEDUP_FLOOR = 100.0
#: Light load: the e2e ``static_steady`` stream, mostly under-full batches.
N_LIGHT = 60_000
N_LIGHT_SCALAR = 7_500
LIGHT_QPS = 600.0

_POLICY = BatchPolicy(max_batch=16, max_wait_s=2e-3)


def _service_model():
    """The anchored 200 GB / 8-shard batch-service model: each shard's
    slice priced by the ``SliceCostModel`` that ``ServeConfig``
    deployments use -- not a synthetic stand-in."""
    spec = PAPER_CORPORA["200GB"]
    model = SliceCostModel(spec, k=5)
    counts = shard_chunk_counts(spec.n_chunks, N_SHARDS)
    return lambda shard, size: model.service_seconds(counts[shard], size)


def _scalar_run(service, arrival_s):
    """One run of the scalar event loop (a fresh loop: each is
    single-use) over a sorted arrival array."""
    return PoolLoop(N_SHARDS, _POLICY, service).run(arrival_s)


def _best_wall_s(fn, n):
    """Best-of-n wall clock: the least noise-contaminated sample."""
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _columns_match(arrays, result) -> bool:
    """The columnar schedule equals the scalar ``ScheduleResult`` shard
    by shard: each shard's batches in dispatch order (dispatch, service,
    request ids, head arrival), every request's resolution time by id,
    and busy seconds.  The columns carry no cross-shard order, so that
    order is not compared."""
    ids = arrays.req_ids.tolist()
    arrival = arrays.arrival_s.tolist()
    columns = [
        (shard, dispatch, service, tuple(ids[start:start + size]),
         arrival[start])
        for shard, dispatch, service, start, size in zip(
            arrays.batch_shard.tolist(), arrays.batch_dispatch_s.tolist(),
            arrays.batch_service_s.tolist(), arrays.batch_start.tolist(),
            arrays.batch_size.tolist())]
    # A stable sort by shard keeps each shard's dispatch order.
    scalar = sorted(
        ((b.shard_id, b.dispatch_s, b.service_s, b.request_ids,
          b.head_enqueue_s) for b in result.batches),
        key=lambda row: row[0])
    done = {r.req_id: r.retrieval_done_s for r in result.records}
    return (columns == scalar
            and dict(zip(ids, arrays.retrieval_done_s.tolist())) == done
            and tuple(arrays.busy_seconds.tolist()) == result.busy_seconds)


def _measure():
    service = _service_model()
    arrivals = poisson_arrival_times(OFFERED_QPS, N_VECTORIZED, SEED)
    vectorized = VectorizedScheduler(N_SHARDS, _POLICY, service)

    arrays = vectorized.run_arrays(arrivals)  # shape + warm-up run
    vec_wall_s = _best_wall_s(
        lambda: vectorized.run_arrays(arrivals), N_VEC_RUNS)

    scalar_arrivals = poisson_arrival_times(OFFERED_QPS, N_SCALAR, SEED)
    scalar_result = _scalar_run(service, scalar_arrivals).result()
    scalar_wall_s = _best_wall_s(
        lambda: _scalar_run(service, scalar_arrivals), N_SCALAR_RUNS)
    scalar_events = N_SCALAR * N_SHARDS + 2 * len(scalar_result.batches)

    # Bit-identity on the scalar slice (also what the differential
    # suite proves exhaustively; here it guards the benchmark's own
    # workload).
    slice_arrays = VectorizedScheduler(N_SHARDS, _POLICY, service) \
        .run_arrays(scalar_arrivals)
    return {
        "arrays": arrays,
        "vec_wall_s": vec_wall_s,
        "scalar_wall_s": scalar_wall_s,
        "scalar_events": scalar_events,
        "bit_identical": int(_columns_match(slice_arrays, scalar_result)),
    }


def _measure_light():
    service = _service_model()
    arrivals = poisson_arrival_times(LIGHT_QPS, N_LIGHT, SEED)
    vectorized = VectorizedScheduler(N_SHARDS, _POLICY, service)
    arrays = vectorized.run_arrays(arrivals)  # shape + warm-up run
    vec_wall_s = _best_wall_s(
        lambda: vectorized.run_arrays(arrivals), N_VEC_RUNS)
    light_slice = poisson_arrival_times(LIGHT_QPS, N_LIGHT_SCALAR, SEED)
    scalar_result = _scalar_run(service, light_slice).result()
    slice_arrays = VectorizedScheduler(N_SHARDS, _POLICY, service) \
        .run_arrays(light_slice)
    return {
        "arrays": arrays,
        "vec_wall_s": vec_wall_s,
        "bit_identical": int(_columns_match(slice_arrays, scalar_result)),
    }


def collect_metrics():
    """Deterministic scalar metrics keyed for the CI regression gate."""
    m = _measure()
    light = _measure_light()
    arrays = m["arrays"]
    vec_qps = N_VECTORIZED / m["vec_wall_s"]
    scalar_qps = N_SCALAR / m["scalar_wall_s"]
    return {"simcore_events": {"light_load": {
        "vectorized_events_per_s":
            light["arrays"].n_events / light["vec_wall_s"],
        "n_batches": light["arrays"].n_batches,
        "bit_identical": light["bit_identical"],
    }, "million_query": {
        "vectorized_events_per_s": arrays.n_events / m["vec_wall_s"],
        "scalar_events_per_s": m["scalar_events"] / m["scalar_wall_s"],
        "queries_speedup_x": vec_qps / scalar_qps,
        "vectorized_wall_ms": m["vec_wall_s"] * 1e3,
        "scalar_wall_ms": m["scalar_wall_s"] * 1e3,
        "n_batches": arrays.n_batches,
        "n_events": arrays.n_events,
        "horizon_s": arrays.horizon_s,
        "bit_identical": m["bit_identical"],
    }}}


@pytest.mark.simcore
def test_simcore_event_rate(benchmark, report):
    m = benchmark(_measure)
    arrays = m["arrays"]
    vec_qps = N_VECTORIZED / m["vec_wall_s"]
    scalar_qps = N_SCALAR / m["scalar_wall_s"]
    speedup = vec_qps / scalar_qps

    report(f"simcore event rate: {N_VECTORIZED:,} queries, "
           f"{N_SHARDS} shards, saturated at {OFFERED_QPS:g} qps offered")
    report(f"  vectorized {arrays.n_events / m['vec_wall_s']:14,.0f} "
           f"events/s ({vec_qps:,.0f} queries/s, "
           f"{m['vec_wall_s'] * 1e3:.1f} ms)")
    report(f"  scalar     {m['scalar_events'] / m['scalar_wall_s']:14,.0f} "
           f"events/s ({scalar_qps:,.0f} queries/s on the "
           f"{N_SCALAR:,}-query slice)")
    report(f"  speedup    {speedup:.1f}x queries per wall-second")

    assert m["bit_identical"] == 1
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized core is only {speedup:.1f}x faster than scalar "
        f"(floor {SPEEDUP_FLOOR:g}x)")


@pytest.mark.simcore
def test_simcore_light_load_event_rate(benchmark, report):
    m = benchmark(_measure_light)
    arrays = m["arrays"]
    report(f"simcore light load: {N_LIGHT:,} queries, {N_SHARDS} shards, "
           f"{LIGHT_QPS:g} qps offered, {arrays.n_batches:,} batches")
    report(f"  vectorized {arrays.n_events / m['vec_wall_s']:14,.0f} "
           f"events/s ({m['vec_wall_s'] * 1e3:.1f} ms)")
    assert m["bit_identical"] == 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true",
                        help="emit metrics as JSON on stdout")
    args = parser.parse_args(argv)
    metrics = collect_metrics()
    if args.json:
        print(json.dumps(metrics, indent=2, sort_keys=True))
    else:
        for row, values in metrics["simcore_events"].items():
            for key, value in values.items():
                print(f"  {row}/{key}: {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
