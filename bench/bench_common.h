// Shared infrastructure for the paper-reproduction benches.
//
// Dataset registry: laptop-scale generator analogs of the paper's Table 1
// graphs (substitution rationale in DESIGN.md §1.4). Sizes are chosen so
// that every full-enumeration experiment finishes in seconds while
// preserving the structural property that drives each figure (degree skew
// for workload balancing, label selectivity for filtering, density for
// scalability).
#ifndef CECI_BENCH_BENCH_COMMON_H_
#define CECI_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "ceci/matcher.h"
#include "ceci/preprocess.h"
#include "ceci/profiler.h"
#include "ceci/stats_json.h"
#include "gen/kronecker.h"
#include "gen/labels.h"
#include "gen/paper_queries.h"
#include "gen/random_graphs.h"
#include "graph/graph_builder.h"
#include "graph/graph.h"
#include "util/json_writer.h"

namespace ceci::bench {

struct Dataset {
  std::string abbr;
  std::string paper_name;
  std::string analog;  // how the stand-in is generated
  Graph graph;
};

/// Builds, refines and freezes the CECI of `query` from `pre`'s pivots
/// and filter table, as CeciMatcher::Prepare does; the build consumes the
/// table.
inline FlatCeciIndex BuildPreprocessed(const Graph& data, const NlcIndex& nlc,
                                       const Graph& query, Preprocessed* pre) {
  BuildOptions options;
  options.root_candidates = &pre->root_candidates;
  options.filter_table = &pre->filter;
  MatchStats stats;
  return BuildRefineFreeze(data, nlc, query, pre->tree, options, &stats);
}

/// Builds one Table-1 analog by abbreviation. Abbreviations follow the
/// paper: CP, FS, HU, LJ, OK, WG, WT, YH, YT, RD.
inline Dataset MakeDataset(const std::string& abbr) {
  auto ds = [&](std::string paper, std::string analog, Graph g) {
    return Dataset{abbr, std::move(paper), std::move(analog), std::move(g)};
  };
  if (abbr == "CP") {
    return ds("citPatent", "social n=20K a<=8",
              GenerateSocialGraph(20000, 8, 101));
  }
  if (abbr == "FS") {
    return ds("Friendster", "social n=30K a<=12",
              GenerateSocialGraph(30000, 12, 102));
  }
  if (abbr == "HU") {
    // Human: 4.6K vertices, dense, 90 labels with multi-labeling (§6.2).
    return ds("Human", "ER n=4.6K m=230K, 90 multi-labels",
              AssignMultiLabels(GenerateErdosRenyi(4600, 230000, 103), 90, 3,
                                1003));
  }
  if (abbr == "LJ") {
    return ds("live-journal", "social n=25K a<=10",
              GenerateSocialGraph(25000, 10, 104));
  }
  if (abbr == "OK") {
    return ds("Orkut", "social n=12K a<=16",
              GenerateSocialGraph(12000, 16, 105));
  }
  if (abbr == "WG") {
    return ds("Webgoogle", "social n=25K a<=9",
              GenerateSocialGraph(25000, 9, 106));
  }
  if (abbr == "WT") {
    return ds("wiki-talk", "social n=25K a<=3 (extreme skew)",
              GenerateSocialGraph(25000, 3, 107));
  }
  if (abbr == "WTH") {
    // wiki-talk's signature is one enormous hub (an admin talk page):
    // overlay a celebrity vertex adjacent to a tenth of the graph. The
    // resulting embedding cluster dominates total work, which is what the
    // workload-balancing experiments (Figs. 11/12) discriminate on; the
    // plain WT analog is used everywhere else to keep runtimes bounded.
    Graph base = GenerateSocialGraph(25000, 3, 107);
    GraphBuilder overlay;
    overlay.ReserveVertices(base.num_vertices());
    for (VertexId v = 0; v < base.num_vertices(); ++v) {
      for (VertexId w : base.neighbors(v)) {
        if (v < w) overlay.AddEdge(v, w);
      }
      if (v != 0 && v % 10 == 0) overlay.AddEdge(0, v);
    }
    auto g = overlay.Build();
    return ds("wiki-talk+hub", "social n=25K a<=3 + celebrity hub",
              std::move(g).value());
  }
  if (abbr == "YH") {
    return ds("Yahoo", "social n=40K a<=10",
              GenerateSocialGraph(40000, 10, 108));
  }
  if (abbr == "YT") {
    return ds("Youtube", "social n=20K a<=6",
              GenerateSocialGraph(20000, 6, 109));
  }
  if (abbr == "RD") {
    // rand_500k: Graph500 Kronecker, injected with 100 random labels for
    // the Fig. 9 experiment (§6.2).
    KroneckerOptions k;
    k.scale = 16;
    k.edge_factor = 10;
    k.seed = 110;
    return ds("rand_500k", "Kronecker scale=16 ef=10, 100 labels",
              AssignRandomLabels(GenerateKronecker(k), 100, 1010));
  }
  std::fprintf(stderr, "unknown dataset %s\n", abbr.c_str());
  std::abort();
}

/// Formats seconds in engineering style.
inline std::string FmtSeconds(double s) {
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

inline std::string FmtBytes(std::size_t bytes) {
  char buf[32];
  if (bytes < (1u << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fKB", bytes / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fMB", bytes / (1024.0 * 1024.0));
  }
  return buf;
}

/// Prints the standard bench banner.
inline void Banner(const char* experiment, const char* paper_ref,
                   const char* note) {
  std::printf("==============================================================\n");
  std::printf("%s  (paper: %s)\n", experiment, paper_ref);
  std::printf("%s\n", note);
  std::printf("==============================================================\n");
}

/// Appends one measurement as a JSON line to `BENCH_<bench>.json` under
/// $CECI_BENCH_METRICS_DIR (no-op when the variable is unset), making bench
/// trajectories self-describing: each record carries the same MatchStats
/// schema as `ceci_query --metrics-json` plus the bench's own labels.
///
///   WriteMetricsSidecar("fig19_breakdown", result,
///                       {{"dataset", "WT"}, {"query", "QG3"}});
inline void WriteMetricsSidecar(
    const std::string& bench, const MatchResult& result,
    const std::vector<std::pair<std::string, std::string>>& labels = {}) {
  const char* dir = std::getenv("CECI_BENCH_METRICS_DIR");
  if (dir == nullptr || *dir == '\0') return;
  JsonWriter w;
  w.BeginObject();
  w.KV("schema_version", static_cast<std::uint64_t>(kMetricsSchemaVersion));
  w.KV("bench", bench);
  for (const auto& [key, value] : labels) w.KV(key, value);
  w.KV("embeddings", result.embedding_count);
  w.Key("stats");
  AppendMatchStatsJson(result.stats, &w);
  if (result.profile.has_value()) {
    w.Key("profile");
    AppendQueryProfileJson(*result.profile, &w);
  }
  w.EndObject();
  const std::string path =
      std::string(dir) + "/BENCH_" + bench + ".json";
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "metrics sidecar: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "%s\n", w.str().c_str());
  std::fclose(f);
}

}  // namespace ceci::bench

#endif  // CECI_BENCH_BENCH_COMMON_H_
