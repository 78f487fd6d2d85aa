#include "ceci/stats_json.h"

#include "ceci/profiler.h"
#include "util/json_writer.h"
#include "util/metrics_registry.h"
#include "util/trace.h"

namespace ceci {

void AppendMatchStatsJson(const MatchStats& stats, JsonWriter* w) {
  w->BeginObject();

  w->Key("phases");
  w->BeginObject();
  w->KV("preprocess_seconds", stats.preprocess_seconds);
  w->KV("build_seconds", stats.build_seconds);
  w->KV("refine_seconds", stats.refine_seconds);
  w->KV("freeze_seconds", stats.freeze_seconds);
  w->KV("plan_seconds", stats.plan_seconds);
  w->KV("enumerate_seconds", stats.enumerate_seconds);
  w->KV("total_seconds", stats.total_seconds);
  w->EndObject();

  w->Key("index");
  w->BeginObject();
  w->KV("ceci_bytes", static_cast<std::uint64_t>(stats.ceci_bytes));
  w->KV("ceci_bytes_unrefined",
        static_cast<std::uint64_t>(stats.ceci_bytes_unrefined));
  w->KV("theoretical_bytes",
        static_cast<std::uint64_t>(stats.theoretical_bytes));
  w->KV("candidate_edges", static_cast<std::uint64_t>(stats.candidate_edges));
  w->KV("candidate_edges_unrefined",
        static_cast<std::uint64_t>(stats.candidate_edges_unrefined));
  w->KV("flat_bytes", static_cast<std::uint64_t>(stats.flat_bytes));
  w->KV("flat_array_entries",
        static_cast<std::uint64_t>(stats.flat_array_entries));
  w->KV("flat_bitmap_entries",
        static_cast<std::uint64_t>(stats.flat_bitmap_entries));
  w->EndObject();

  w->Key("clusters");
  w->BeginObject();
  w->KV("embedding_clusters",
        static_cast<std::uint64_t>(stats.embedding_clusters));
  w->KV("total_cardinality",
        static_cast<std::uint64_t>(stats.total_cardinality));
  w->KV("extreme_clusters",
        static_cast<std::uint64_t>(stats.decomposition.extreme_clusters));
  w->KV("work_units", static_cast<std::uint64_t>(stats.decomposition.work_units));
  w->KV("threshold", static_cast<std::uint64_t>(stats.decomposition.threshold));
  w->KV("decompose_seconds", stats.decomposition.seconds);
  w->EndObject();

  w->Key("build");
  w->BeginObject();
  w->KV("rejected_label", stats.build.rejected_label);
  w->KV("rejected_degree", stats.build.rejected_degree);
  w->KV("rejected_nlc", stats.build.rejected_nlc);
  w->KV("cascade_removals", stats.build.cascade_removals);
  w->KV("nte_cascade_removals", stats.build.nte_cascade_removals);
  w->KV("frontier_expansions", stats.build.frontier_expansions);
  w->KV("neighbors_scanned", stats.build.neighbors_scanned);
  w->EndObject();

  w->Key("refine");
  w->BeginObject();
  w->KV("pruned_candidates", stats.refine.pruned_candidates);
  w->KV("pruned_edges", stats.refine.pruned_edges);
  w->EndObject();

  w->Key("enumeration");
  w->BeginObject();
  w->KV("recursive_calls", stats.enumeration.recursive_calls);
  w->KV("intersections", stats.enumeration.intersections);
  w->KV("intersection_elements_in",
        stats.enumeration.intersection_elements_in);
  w->KV("intersection_elements_out",
        stats.enumeration.intersection_elements_out);
  w->KV("edge_verifications", stats.enumeration.edge_verifications);
  w->KV("embeddings", stats.enumeration.embeddings);
  w->EndObject();

  w->Key("symmetry");
  w->BeginObject();
  w->KV("automorphisms_broken",
        static_cast<std::uint64_t>(stats.automorphisms_broken));
  w->KV("mirrored", stats.restrictions_mirrored);
  w->KV("estimate_min", stats.restriction_estimate.min_set);
  w->KV("estimate_max", stats.restriction_estimate.max_set);
  w->EndObject();

  w->Key("workers");
  w->BeginObject();
  w->KV("count", static_cast<std::uint64_t>(stats.worker_seconds.size()));
  double makespan = 0.0;
  double total_work = 0.0;
  for (double s : stats.worker_seconds) {
    makespan = s > makespan ? s : makespan;
    total_work += s;
  }
  w->KV("makespan_seconds", makespan);
  w->KV("total_work_seconds", total_work);
  w->Key("busy_seconds");
  w->BeginArray();
  for (double s : stats.worker_seconds) w->Double(s);
  w->EndArray();
  w->Key("embeddings");
  w->BeginArray();
  for (std::uint64_t e : stats.worker_embeddings) w->Uint(e);
  w->EndArray();
  w->EndObject();

  w->Key("budget");
  w->BeginObject();
  w->KV("active", stats.budget.active);
  w->KV("deadline_seconds", stats.budget.deadline_seconds);
  w->KV("memory_budget_bytes",
        static_cast<std::uint64_t>(stats.budget.memory_budget_bytes));
  w->KV("charged_bytes", static_cast<std::uint64_t>(stats.budget.charged_bytes));
  w->KV("polls", stats.budget.polls);
  w->KV("deadline_exceeded", stats.budget.deadline_exceeded);
  w->KV("memory_exceeded", stats.budget.memory_exceeded);
  w->KV("cancelled", stats.budget.cancelled);
  w->EndObject();

  w->EndObject();
}

std::string MetricsReportJson(const MatchResult& result,
                              const MetricsReportOptions& options) {
  JsonWriter w;
  w.BeginObject();
  w.KV("schema_version", static_cast<std::uint64_t>(kMetricsSchemaVersion));
  w.KV("embeddings", result.embedding_count);
  w.KV("termination", TerminationReasonName(result.termination));
  w.Key("stats");
  AppendMatchStatsJson(result.stats, &w);

  if (result.profile.has_value()) {
    w.Key("profile");
    AppendQueryProfileJson(*result.profile, &w);
  }

  if (options.include_registry) {
    const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    w.Key("registry");
    w.BeginObject();
    w.Key("counters");
    w.BeginObject();
    for (const auto& [name, value] : snap.counters) w.KV(name, value);
    w.EndObject();
    w.Key("gauges");
    w.BeginObject();
    for (const auto& [name, value] : snap.gauges) w.KV(name, value);
    w.EndObject();
    w.Key("histograms");
    w.BeginObject();
    for (const auto& [name, h] : snap.histograms) {
      w.Key(name);
      w.BeginObject();
      w.KV("count", h.count);
      w.KV("sum", h.sum);
      w.KV("min", h.min);
      w.KV("max", h.max);
      w.KV("mean", h.Mean());
      w.KV("p50", h.Percentile(50));
      w.KV("p90", h.Percentile(90));
      w.KV("p99", h.Percentile(99));
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
  }

  if (options.include_trace && !Tracer::Global().Events().empty()) {
    w.Key("trace");
    Tracer::Global().AppendJson(&w);
  }

  w.EndObject();
  return std::move(w).Take();
}

}  // namespace ceci
