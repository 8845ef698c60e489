"""Protection-tier design-space sweep: escapes vs charged ECC cost.

Three layers of evidence behind the "which code do I buy" table:

* **Escape capability** -- exhaustive burst classification per tier:
  every (start bit, word offset) placement of a 1..4-bit burst inside
  a 64-bit codeword is decoded and tallied as corrected / detected /
  miscorrected.  A *silent escape* is a miscorrection (or, with no
  code at all, any upset).  SEC-DED must show zero escapes for single
  bits and doubles, BCH t must show zero up to ``t``-bit bursts, and
  the unprotected arm is nonzero everywhere.
* **Functional confirmation** -- the real retrieval kernel under a
  seeded single-bit upset stream with the codec attached to the
  injector: protected answers stay bit-identical to the fault-free
  baseline while the unprotected arm measurably corrupts.
* **Serving tax** -- the golden ECC deployment re-run per tier:
  sustained qps, TTI p99, and the ``n/k`` storage inflation, all
  charged through the latency model; plus a
  :class:`~repro.core.dse.DesignSpaceExplorer` clock sweep of the
  per-batch cost showing how the decode tax scales with the device
  clock.

The recommendation table picks, per burst width, the cheapest tier
with zero silent escapes and the cheapest that fully *corrects* (no
data loss, no retries).

Dual entry points like the other serving benchmarks: a pytest test
(marked ``ecc``, slow CI job) and ``python benchmarks/bench_ecc_dse.py
--json`` feeding the ``BENCH_ecc.json`` regression gate.
"""

import argparse
import dataclasses
import json

import pytest

from repro.apu.device import APUDevice
from repro.core.dse import DesignSpaceExplorer
from repro.core.params import DEFAULT_PARAMS
from repro.ecc import (
    ECCConfig,
    ECCCostModel,
    VERDICT_CORRECTED,
    VERDICT_DETECTED,
    make_codec,
)
from repro.integrity import MemoryFaultInjector
from repro.rag.corpus import MiniCorpus
from repro.rag.retrieval import APURetriever
from repro.serve import ServingSimulator, golden_ecc_config

#: Protection tiers, weakest to strongest; None is the unprotected arm.
TIERS = (
    ("none", None),
    ("secded", ECCConfig(enabled=True, tier="secded")),
    ("bch_t2", ECCConfig(enabled=True, tier="bch", t=2)),
    ("bch_t3", ECCConfig(enabled=True, tier="bch", t=3)),
)
BURST_WIDTHS = (1, 2, 3, 4)
#: Functional single-bit upset rates (per VR write / DMA payload).
UPSET_RATES = (0.0, 1e-2, 4e-2)
N_QUERIES = 4
CORPUS_CHUNKS = 32768
CORPUS_DIM = 8
CORPUS_SEED = 7
K = 5
CLOCK_SWEEP_HZ = (1e9, 2e9, 4e9)


def _burst_patterns(width):
    """Every placement of a ``width``-bit burst in a 64-bit codeword,
    as data-bit index sets (bursts stay inside one 16-bit word, the
    DMA beat geometry the injector models)."""
    for word in range(4):
        for start in range(0, 16 - width + 1):
            yield {word * 16 + start + i for i in range(width)}


def _run_capability_grid():
    """{tier: {width: verdict tallies}} by exhaustive classification."""
    grid = {}
    for name, cfg in TIERS:
        codec = make_codec(cfg) if cfg is not None else None
        grid[name] = {}
        for width in BURST_WIDTHS:
            tally = {"corrected": 0, "detected": 0, "escapes": 0}
            for pattern in _burst_patterns(width):
                if codec is None:
                    tally["escapes"] += 1  # raw damage always ships
                    continue
                verdict = codec.classify(pattern)
                if verdict == VERDICT_CORRECTED:
                    tally["corrected"] += 1
                elif verdict == VERDICT_DETECTED:
                    tally["detected"] += 1
                else:
                    tally["escapes"] += 1
            grid[name][width] = tally
    return grid


def _run_functional_sweep():
    """Real retrieval under seeded single-bit upsets, per tier."""
    corpus = MiniCorpus(n_chunks=CORPUS_CHUNKS, dim=CORPUS_DIM,
                        seed=CORPUS_SEED)
    queries = [corpus.sample_query() for _ in range(N_QUERIES)]
    plain = APURetriever(optimized=True)
    baselines = [plain.retrieve_with_scores(corpus, q, K) for q in queries]

    rows = {}
    for name, cfg in TIERS:
        rows[name] = {}
        for rate in UPSET_RATES:
            row = {"injected": 0, "corrected": 0, "flagged": 0,
                   "mismatches": 0}
            for q, (query, baseline) in enumerate(zip(queries, baselines)):
                device = APUDevice()
                injector = MemoryFaultInjector(
                    upset_rate=rate, seed=1000 * q + 1, ecc=cfg)
                device.attach_sdc(injector)
                result = plain.retrieve_with_scores(corpus, query, K,
                                                    device)
                row["injected"] += injector.n_corruptions
                row["corrected"] += injector.n_ecc_corrected
                row["flagged"] += injector.n_ecc_detected
                if result != baseline:
                    row["mismatches"] += 1
            rows[name][rate] = row
    return rows


def _run_serve_grid():
    """Golden ECC deployment per tier: throughput and charged costs."""
    base = golden_ecc_config()
    grid = {}
    for name, cfg in TIERS:
        config = dataclasses.replace(
            base, ecc=cfg if cfg is not None else ECCConfig())
        report = ServingSimulator(config).run()
        row = {
            "qps": report.throughput_qps,
            "tti_p99_ms": report.tti.p99_s * 1e3,
            "sdc_escapes": report.n_sdc_escapes,
            "storage_factor": 1.0,
        }
        if cfg is not None:
            costs = ECCCostModel(make_codec(cfg), DEFAULT_PARAMS.clock_hz)
            row["storage_factor"] = costs.storage_factor
            row["corrected"] = report.n_ecc_corrected
            row["detected"] = report.n_ecc_detected
            row["miscorrected"] = report.n_ecc_miscorrections
        grid[name] = row
    return grid


def _run_clock_dse():
    """Per-tier DSE: batch cost vs device clock (decode tax scaling)."""
    from repro.serve.sharding import shard_chunk_counts
    from repro.serve.simulator import SliceCostModel

    base = golden_ecc_config()
    shard0 = shard_chunk_counts(base.spec.n_chunks, base.n_shards)[0]
    sweeps = {}
    for name, cfg in TIERS:
        def batch_latency_us(params, cfg=cfg):
            model = SliceCostModel(base.spec, k=base.k, params=params,
                                   ecc=cfg)
            return model.service_seconds(shard0,
                                         base.batch.max_batch) * 1e6

        explorer = DesignSpaceExplorer(batch_latency_us, DEFAULT_PARAMS)
        result = explorer.sweep("clock_hz", CLOCK_SWEEP_HZ)
        sweeps[name] = {
            "baseline_us": result.baseline_latency_us,
            "best_clock_hz": result.best.value,
            "best_us": result.best.latency_us,
            "sensitivity": result.sensitivity(),
        }
    return sweeps


def _recommend(capability):
    """Cheapest tier (tier order = cost order) per burst width."""
    table = {}
    for width in BURST_WIDTHS:
        zero_escape = next(
            (name for name, _ in TIERS
             if capability[name][width]["escapes"] == 0), None)
        full_correct = next(
            (name for name, _ in TIERS
             if capability[name][width]["escapes"] == 0
             and capability[name][width]["detected"] == 0), None)
        table[width] = {"zero_escape": zero_escape,
                        "full_correction": full_correct}
    return table


def collect_metrics():
    """Deterministic scalar metrics keyed for the CI regression gate."""
    capability = _run_capability_grid()
    metrics = {}
    for name, widths in capability.items():
        metrics[f"capability_{name}"] = {
            f"w{width}_{kind}": count
            for width, tally in widths.items()
            for kind, count in tally.items()
        }
    for name, rates in _run_functional_sweep().items():
        metrics[f"functional_{name}"] = {
            f"rate{rate:g}_{kind}": count
            for rate, row in rates.items()
            for kind, count in row.items()
        }
    for name, row in _run_serve_grid().items():
        renamed = {"throughput_qps": row.pop("qps"),
                   "tti_p99_ms": row.pop("tti_p99_ms")}
        renamed.update(row)
        metrics[f"serve_{name}"] = renamed
    for name, sweep in _run_clock_dse().items():
        metrics[f"dse_{name}"] = dict(sweep)
    return {"ecc_dse": metrics}


@pytest.mark.ecc
def test_ecc_protection_dse(benchmark, report):
    capability = benchmark(_run_capability_grid)
    functional = _run_functional_sweep()
    serve = _run_serve_grid()
    dse = _run_clock_dse()
    recommendation = _recommend(capability)

    report("ECC capability grid: verdicts over every burst placement "
           "in a 64-bit codeword")
    report(f"  {'tier':>8s} " + " ".join(
        f"{'w' + str(w) + ' c/d/e':>14s}" for w in BURST_WIDTHS))
    for name, _ in TIERS:
        cells = []
        for width in BURST_WIDTHS:
            tally = capability[name][width]
            cells.append(f"{tally['corrected']:4d}/{tally['detected']:4d}"
                         f"/{tally['escapes']:4d}")
        report(f"  {name:>8s} " + " ".join(cells))
    report("  serving tax on the golden ECC deployment:")
    for name, row in serve.items():
        report(f"    {name:>8s}: {row['qps']:6.1f} qps, "
               f"tti p99 {row['tti_p99_ms']:8.2f} ms, "
               f"storage x{row['storage_factor']:.3f}")
    report("  recommendation (cheapest tier per burst width):")
    for width, rec in recommendation.items():
        report(f"    {width}-bit bursts: zero-escape={rec['zero_escape']}"
               f", full-correction={rec['full_correction']}")

    # The unprotected arm ships every upset, at every width.
    for width in BURST_WIDTHS:
        assert capability["none"][width]["escapes"] > 0
    # SEC-DED: zero escapes for singles (all corrected) and doubles
    # (all detected); beyond capability it demonstrably miscorrects.
    assert capability["secded"][1] == {
        "corrected": 64, "detected": 0, "escapes": 0}
    assert capability["secded"][2]["escapes"] == 0
    assert capability["secded"][2]["corrected"] == 0
    assert capability["secded"][3]["escapes"] > 0
    # BCH t: zero escapes up to t-bit bursts, all fully corrected.
    for t, name in ((2, "bch_t2"), (3, "bch_t3")):
        for width in BURST_WIDTHS:
            if width <= t:
                assert capability[name][width]["escapes"] == 0
                assert capability[name][width]["detected"] == 0
    # Functional confirmation under real injection: protected answers
    # never drift from the baseline; unprotected ones do.
    top = max(UPSET_RATES)
    assert functional["none"][top]["mismatches"] > 0
    for name in ("secded", "bch_t2", "bch_t3"):
        for rate in UPSET_RATES:
            row = functional[name][rate]
            assert row["mismatches"] == 0, (name, rate, row)
            if row["injected"]:
                assert row["corrected"] >= 1, (name, rate, row)
    # The protection is charged: stronger codes cost strictly more per
    # batch (the DSE baseline isolates the modeled cost from the run
    # dynamics, where a SEC-DED shard death reshapes throughput) and
    # strictly more storage.
    order = [name for name, _ in TIERS]
    costs = [dse[name]["baseline_us"] for name in order]
    assert costs == sorted(costs) and len(set(costs)) == len(costs)
    factors = [serve[name]["storage_factor"] for name in order]
    assert factors == sorted(factors) and len(set(factors)) == len(factors)
    # ...and it pays for itself: the unprotected golden run ships SDC
    # escapes that BCH t=3 eliminates entirely.
    assert serve["none"]["sdc_escapes"] > 0
    assert serve["bch_t3"]["sdc_escapes"] == 0
    # The recommendation table is the headline: SEC-DED suffices for
    # singles and doubles, burst tolerance requires BCH.
    assert recommendation[1] == {"zero_escape": "secded",
                                 "full_correction": "secded"}
    assert recommendation[2]["zero_escape"] == "secded"
    assert recommendation[2]["full_correction"] == "bch_t2"
    assert recommendation[3]["full_correction"] == "bch_t3"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true",
                        help="emit metrics as JSON on stdout")
    args = parser.parse_args(argv)
    metrics = collect_metrics()
    if args.json:
        print(json.dumps(metrics, indent=2, sort_keys=True))
    else:
        for group, rows in metrics.items():
            print(group)
            for key, row in rows.items():
                print(f"  {key}: {row}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
