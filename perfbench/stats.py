"""Arithmetic of the CECI benchmark: percentiles, ratios and the metrics
each workload reports. Pure functions over the driver's raw samples, so
perfbench/test_stats.py can check them without building anything."""

import math
import statistics


def nearest_rank(samples, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it. Raises ValueError on no samples."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def failed_frac(failed, attempted):
    """Share of attempted operations that failed. A run that attempted
    nothing did not do its work, so it counts as failing entirely."""
    if attempted <= 0:
        return 1.0
    return failed / attempted


def ratio(part, base):
    """part / base, 0 when the base is empty (the layer did no work)."""
    return part / base if base else 0.0


def remainder(total, parts):
    """What a total leaves after its named parts: the unattributed time."""
    return total - sum(parts)


def spread(values):
    """(q1, median, q3, (q3 - q1) / median) with quartiles as
    statistics.quantiles(values, n=4) gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else math.inf


def replay_medians(raw):
    """Every operation of the run, each counted at the median wall time of
    all runs of its query on its graph. A stall that hits one run of a
    query, such as the host pausing a vCPU, then moves no percentile."""
    out = []
    for g in raw["graphs"]:
        runs = {}
        for k, ms in zip(g["query"], g["latency_ms"]):
            runs.setdefault(k, []).append(ms)
        for times in runs.values():
            out += [statistics.median(times)] * len(times)
    return out


def end_to_end(raw):
    """The user-visible metrics of one untraced run, in their units. A run
    spans several seeded graphs and replays each graph's queries several
    times. Percentiles pool the replay medians of every operation of the
    run; throughput is all operations over the summed loop time; set-up is
    the median over the graphs."""
    typical = replay_medians(raw)
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "query_p50_ms": nearest_rank(typical, 50),
        "query_p99_ms": nearest_rank(typical, 99),
        "queries_per_s": ratio(len(typical),
                               sum(g["elapsed_s"] for g in raw["graphs"])),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def _common_layers(raw, traced, untraced):
    """Set-up layers, and trace.overhead_ms: query_p50_ms of the traced
    executions in `traced` minus that of `untraced`, an untraced run on the
    same seed. Both are taken over replay medians, so a run with fewer
    replays compares like for like."""
    return {
        "graphio.load_s": statistics.median(raw["load_s"]),
        "nlc.build_s": statistics.median(raw["nlc_s"]),
        "trace.overhead_ms": nearest_rank(replay_medians(traced), 50)
        - nearest_rank(replay_medians(untraced), 50),
    }


def adhoc_layers(raw, untraced):
    """Per-query means of the staged pipeline. adhoc.other_ms is the mean
    Match wall minus the mean traced stages, so stages + other = wall. The
    traced execution of a query is its staged replay."""
    t = raw["trace"]
    n = t["queries"]
    stages = [t[k] / n for k in ("preprocess_ms", "build_ms", "refine_ms",
                                 "freeze_flat_ms", "enumerate_ms")]
    out = _common_layers(raw, {"graphs": t["staged"]}, untraced)
    out.update({
        "preprocess.ms": stages[0],
        "build.ms": stages[1],
        "build.neighbors_scanned": t["neighbors_scanned"] / n,
        "build.kept_ratio": ratio(t["candidate_edges_unrefined"],
                                  t["neighbors_scanned"]),
        "refine.ms": stages[2],
        "refine.pruned_edge_ratio": ratio(t["pruned_edges"],
                                          t["candidate_edges_unrefined"]),
        "freeze_flat.ms": stages[3],
        "index.arena_bytes": t["arena_bytes"] / n,
        "enumerate.ms": stages[4],
        "adhoc.other_ms": remainder(t["match_ms"] / n, stages),
        "enumerate.recursive_calls": t["recursive_calls"] / n,
        "intersect.elements_in": t["elements_in"] / n,
        "intersect.out_in_ratio": ratio(t["elements_out"], t["elements_in"]),
        "intersect.ns_per_element": ratio(t["enumerate_cpu_ms"] * 1e6,
                                          t["elements_in"]),
    })
    return out


def serve_layers(raw, untraced):
    """Wire phase split of every request, /varz cache deltas, and the
    single-threaded in-process replay weighted per request."""
    t = raw["trace"]
    n = t["replay_requests"]
    out = _common_layers(raw, raw, untraced)
    out.update({
        "serve.net_us_p50": nearest_rank(t["net_us"], 50),
        "serve.queue_us_p50": nearest_rank(t["queue_us"], 50),
        "serve.exec_us_p50": nearest_rank(t["exec_us"], 50),
        "cache.hit_ratio": ratio(t["cache_hits"],
                                 t["cache_hits"] + t["cache_misses"]),
        "enumerate.recursive_calls": ratio(t["recursive_calls"], n),
        "intersect.elements_in": ratio(t["elements_in"], n),
        "intersect.out_in_ratio": ratio(t["elements_out"], t["elements_in"]),
        "intersect.ns_per_element": ratio(t["enumerate_cpu_ms"] * 1e6,
                                          t["elements_in"]),
    })
    return out


def dist_layers(raw, untraced):
    """Per-query means of the DistRunReport split. dist.residual_ms is the
    mean wall minus preprocess, slowest build and slowest enumeration."""
    t = raw["trace"]
    n = t["queries"]
    preprocess = t["preprocess_ms"] / n
    build_max = t["partition_build_max_ms"] / n
    enum_max = t["worker_enum_max_ms"] / n
    out = _common_layers(raw, raw, untraced)
    out.update({
        "dist.preprocess_ms": preprocess,
        "dist.partition_build_ms_max": build_max,
        "dist.worker_enum_ms_max": enum_max,
        "dist.worker_enum_imbalance": ratio(t["worker_enum_max_ms"],
                                            t["worker_enum_mean_ms"]),
        "dist.bytes_to_workers": t["bytes_to_workers"] / n,
        "dist.residual_ms": remainder(t["wall_ms"] / n,
                                      [preprocess, build_max, enum_max]),
    })
    return out


LAYERS = {
    "adhoc-labeled": adhoc_layers,
    "dashboard-serve": serve_layers,
    "dist-batch": dist_layers,
}


def per_layer(raw, names, untraced):
    """Every per-layer metric named in `names` from a traced run, given
    the untraced run on the same seed; a layer the workload bypasses
    reads 0."""
    measured = LAYERS[raw["workload"]](raw, untraced)
    return {name: measured.get(name, 0.0) for name in names}
