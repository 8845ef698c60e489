"""Sharded multi-APU serving simulation (beyond-the-paper extension).

The paper measures one device answering one offline query at a time;
``repro.serve`` models the production deployment the ROADMAP targets:
the corpus sharded across ``N`` simulated APU devices
(:mod:`~repro.serve.sharding`), a request stream admitted by a
deterministic discrete-event loop with per-shard dynamic batching
(:mod:`~repro.serve.scheduler`), exact scatter-gather top-k merge
(:class:`~repro.serve.retriever.ShardedAPURetriever`), and tail-latency
/ SLO reporting (:mod:`~repro.serve.metrics`,
:class:`~repro.serve.simulator.ServingSimulator`).
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "degraded": (
        "chunk_owners", "measured_degraded_recall", "oracle_live_recall"),
    "metrics": (
        "LatencyStats", "nearest_rank_percentile", "slo_attainment",
        "utilization"),
    "retriever": ("ShardedAPURetriever",),
    "scheduler": (
        "OUTCOME_CORRUPTED", "BatchPolicy", "ExecutedBatch", "PoolLoop",
        "RequestRecord", "RetryPolicy", "ScheduleResult"),
    "sharding": (
        "SHARD_POLICIES", "CorpusShard", "merge_cycles", "merge_seconds",
        "merge_topk", "shard_chunk_counts", "shard_corpus",
        "shard_global_indices", "shard_specs"),
    "simulator": (
        "FAILOVER_POLICIES", "ServeConfig", "ServeReport", "ServingSimulator",
        "SliceCostModel", "counts_for", "golden_ecc_config",
        "golden_fault_config", "golden_integrity_config",
        "golden_serve_config"),
    "workload": (
        "ClosedLoopConfig", "Request", "ThinkTimeError", "WorkloadConfigError",
        "bursty_arrival_times", "diurnal_arrival_times",
        "poisson_arrival_times", "poisson_arrivals", "request_columns",
        "spike_arrival_times", "trace_arrivals"),
})
