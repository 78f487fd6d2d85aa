#include "ceci/profiler.h"

#include <algorithm>
#include <cstdio>

#include "ceci/stats.h"
#include "util/json_writer.h"

namespace ceci {
namespace {

std::string FmtCount(std::uint64_t v) {
  char buf[32];
  if (v >= 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(v) * 1e-6);
  } else if (v >= 10'000) {
    std::snprintf(buf, sizeof(buf), "%.1fK", static_cast<double>(v) * 1e-3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
  }
  return buf;
}

std::string FmtBytes(std::size_t bytes) {
  char buf[32];
  if (bytes < (std::size_t{1} << 10)) {
    std::snprintf(buf, sizeof(buf), "%zuB", bytes);
  } else if (bytes < (std::size_t{1} << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fKB", static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fMB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
  }
  return buf;
}

std::string FmtSeconds(double s) {
  char buf[32];
  if (s < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", s);
  }
  return buf;
}

void AppendSkewJson(const SkewSummary& s, JsonWriter* w) {
  w->BeginObject();
  w->KV("count", static_cast<std::uint64_t>(s.count));
  w->KV("total", static_cast<std::uint64_t>(s.total));
  w->KV("max", static_cast<std::uint64_t>(s.max));
  w->KV("mean", s.mean);
  w->KV("max_over_mean", s.max_over_mean);
  w->KV("gini", s.gini);
  w->EndObject();
}

}  // namespace

SkewSummary SkewSummary::Of(std::span<const Cardinality> values) {
  SkewSummary s;
  s.count = values.size();
  if (values.empty()) return s;
  for (Cardinality v : values) {
    s.total = SaturatingAdd(s.total, v);
    s.max = std::max(s.max, v);
  }
  s.mean = static_cast<double>(s.total) / static_cast<double>(s.count);
  s.max_over_mean =
      s.mean > 0.0 ? static_cast<double>(s.max) / s.mean : 0.0;
  if (s.total > 0 && s.count > 1) {
    // Gini over the sorted distribution: G = 2·Σ i·x_i / (n·Σx) − (n+1)/n
    // with 1-based ranks over ascending values.
    std::vector<Cardinality> sorted(values.begin(), values.end());
    std::sort(sorted.begin(), sorted.end());
    double weighted = 0.0;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      weighted += static_cast<double>(i + 1) * static_cast<double>(sorted[i]);
    }
    const double n = static_cast<double>(s.count);
    s.gini = 2.0 * weighted / (n * static_cast<double>(s.total)) -
             (n + 1.0) / n;
    s.gini = std::clamp(s.gini, 0.0, 1.0);
  }
  return s;
}

double QueryProfile::Occupancy() const {
  if (workers.empty() || enumerate_wall_seconds <= 0.0) return 0.0;
  double busy = 0.0;
  for (const WorkerProfile& w : workers) busy += w.busy_seconds;
  const double capacity =
      enumerate_wall_seconds * static_cast<double>(workers.size());
  return capacity > 0.0 ? std::min(busy / capacity, 1.0) : 0.0;
}

void AppendQueryProfileJson(const QueryProfile& p, JsonWriter* w) {
  w->BeginObject();

  w->Key("vertices");
  w->BeginArray();
  for (const VertexProfile& v : p.vertices) {
    w->BeginObject();
    w->KV("u", static_cast<std::uint64_t>(v.u));
    w->KV("position", static_cast<std::uint64_t>(v.order_position));
    w->KV("candidates_filtered",
          static_cast<std::uint64_t>(v.candidates_filtered));
    w->KV("candidates_built", static_cast<std::uint64_t>(v.candidates_built));
    w->KV("candidates_refined",
          static_cast<std::uint64_t>(v.candidates_refined));
    w->KV("rejected_label", v.rejected_label);
    w->KV("rejected_degree", v.rejected_degree);
    w->KV("rejected_nlc", v.rejected_nlc);
    w->KV("refine_pruned", v.refine_pruned);
    w->KV("refine_survival", v.RefineSurvival());
    w->KV("te_keys", static_cast<std::uint64_t>(v.te_keys));
    w->KV("te_edges", static_cast<std::uint64_t>(v.te_edges));
    w->KV("te_bytes", static_cast<std::uint64_t>(v.te_bytes));
    w->KV("nte_lists", static_cast<std::uint64_t>(v.nte_lists));
    w->KV("nte_edges", static_cast<std::uint64_t>(v.nte_edges));
    w->KV("nte_bytes", static_cast<std::uint64_t>(v.nte_bytes));
    w->KV("candidate_bytes", static_cast<std::uint64_t>(v.candidate_bytes));
    w->KV("recursive_calls", v.recursive_calls);
    w->EndObject();
  }
  w->EndArray();

  w->Key("index");
  w->BeginObject();
  w->KV("bytes", static_cast<std::uint64_t>(p.index_bytes));
  w->KV("te_bytes", static_cast<std::uint64_t>(p.te_bytes));
  w->KV("nte_bytes", static_cast<std::uint64_t>(p.nte_bytes));
  w->KV("candidate_bytes", static_cast<std::uint64_t>(p.candidate_bytes));
  w->EndObject();

  w->Key("clusters");
  AppendSkewJson(p.clusters, w);
  w->Key("work_units");
  AppendSkewJson(p.work_units, w);

  w->Key("workers");
  w->BeginObject();
  w->KV("count", static_cast<std::uint64_t>(p.workers.size()));
  w->KV("wall_seconds", p.enumerate_wall_seconds);
  w->KV("occupancy", p.Occupancy());
  w->Key("per_worker");
  w->BeginArray();
  for (const WorkerProfile& wp : p.workers) {
    w->BeginObject();
    w->KV("worker", static_cast<std::uint64_t>(wp.worker));
    w->KV("busy_seconds", wp.busy_seconds);
    w->KV("units", wp.units);
    w->KV("occupancy",
          p.enumerate_wall_seconds > 0.0
              ? std::min(wp.busy_seconds / p.enumerate_wall_seconds, 1.0)
              : 0.0);
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();

  w->EndObject();
}

std::string FormatExplain(const QueryProfile& p, const MatchStats& stats) {
  std::string out;
  char line[256];
  auto emit = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof(line), fmt, args...);
    out += line;
  };

  out += "EXPLAIN  (per query vertex, matching order)\n";
  out +=
      " pos  u     filtered    built  refined  keep%      LF      DF    NLCF"
      "  te_edges  nte_edges     bytes     calls\n";
  for (const VertexProfile& v : p.vertices) {
    const std::size_t vertex_bytes =
        v.te_bytes + v.nte_bytes + v.candidate_bytes;
    emit(" %3zu  u%-3u %9s %8s %8s %5.1f%% %7s %7s %7s %9s %10s %9s %9s\n",
         v.order_position, v.u, FmtCount(v.candidates_filtered).c_str(),
         FmtCount(v.candidates_built).c_str(),
         FmtCount(v.candidates_refined).c_str(), v.RefineSurvival() * 100.0,
         FmtCount(v.rejected_label).c_str(),
         FmtCount(v.rejected_degree).c_str(),
         FmtCount(v.rejected_nlc).c_str(), FmtCount(v.te_edges).c_str(),
         FmtCount(v.nte_edges).c_str(), FmtBytes(vertex_bytes).c_str(),
         FmtCount(v.recursive_calls).c_str());
  }

  emit("index: %s measured (TE %s, NTE %s, candidates %s); theoretical "
       "bound %s\n",
       FmtBytes(p.index_bytes).c_str(), FmtBytes(p.te_bytes).c_str(),
       FmtBytes(p.nte_bytes).c_str(), FmtBytes(p.candidate_bytes).c_str(),
       FmtBytes(stats.theoretical_bytes).c_str());
  if (stats.theoretical_bytes > 0) {
    emit("       %.1f%% of the theoretical |E_q|x2|E_g| bound\n",
         100.0 * static_cast<double>(p.index_bytes) /
             static_cast<double>(stats.theoretical_bytes));
  }

  emit("clusters: %zu, cardinality total %llu, max %llu "
       "(max/mean %.2f, gini %.3f)\n",
       p.clusters.count,
       static_cast<unsigned long long>(p.clusters.total),
       static_cast<unsigned long long>(p.clusters.max),
       p.clusters.max_over_mean, p.clusters.gini);
  emit("work units: %zu after decomposition (%zu extreme clusters split, "
       "threshold %llu), max/mean %.2f, gini %.3f\n",
       p.work_units.count, stats.decomposition.extreme_clusters,
       static_cast<unsigned long long>(stats.decomposition.threshold),
       p.work_units.max_over_mean, p.work_units.gini);

  emit("symmetry: %zu automorphisms, %s restriction set (estimates min %s, "
       "max %s)\n",
       stats.automorphisms_broken,
       stats.restrictions_mirrored ? "max" : "min",
       FmtCount(stats.restriction_estimate.min_set).c_str(),
       FmtCount(stats.restriction_estimate.max_set).c_str());
  emit("phases: preprocess %s, build %s, refine %s, freeze %s, plan %s, "
       "enumerate %s; total %s\n",
       FmtSeconds(stats.preprocess_seconds).c_str(),
       FmtSeconds(stats.build_seconds).c_str(),
       FmtSeconds(stats.refine_seconds).c_str(),
       FmtSeconds(stats.freeze_seconds).c_str(),
       FmtSeconds(stats.plan_seconds).c_str(),
       FmtSeconds(stats.enumerate_seconds).c_str(),
       FmtSeconds(stats.total_seconds).c_str());
  emit("workers: %zu, occupancy %.1f%% over %s enumeration wall\n",
       p.workers.size(), p.Occupancy() * 100.0,
       FmtSeconds(p.enumerate_wall_seconds).c_str());
  for (const WorkerProfile& wp : p.workers) {
    const double occ = p.enumerate_wall_seconds > 0.0
                           ? std::min(wp.busy_seconds /
                                          p.enumerate_wall_seconds, 1.0)
                           : 0.0;
    emit("  worker%zu: busy %s (%.1f%%), %llu units\n", wp.worker,
         FmtSeconds(wp.busy_seconds).c_str(), occ * 100.0,
         static_cast<unsigned long long>(wp.units));
  }
  if (stats.budget.active) {
    emit("budget: %llu polls, %s charged",
         static_cast<unsigned long long>(stats.budget.polls),
         FmtBytes(stats.budget.charged_bytes).c_str());
    if (stats.budget.memory_budget_bytes > 0) {
      emit(" of %s cap", FmtBytes(stats.budget.memory_budget_bytes).c_str());
    }
    if (stats.budget.deadline_seconds > 0.0) {
      emit(", deadline %s", FmtSeconds(stats.budget.deadline_seconds).c_str());
    }
    out += "\n";
  }
  return out;
}

}  // namespace ceci
