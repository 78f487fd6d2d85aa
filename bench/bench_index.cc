// Index-layout benchmark: the arena-backed FlatCeciIndex enumeration reads
// against the mutable pointer-rich CeciIndex that build and refinement
// work in, the evidence behind docs/index_layout.md.
//
// For QG1-QG5 on the Table-2 dataset analogs the pipeline is timed over
// `--reps` full matches (single-threaded) and the best run is kept. Bytes
// are *measured* for both forms on the same refined index:
// malloc_usable_size over every allocation of the mutable index (read
// through MatchOptions::index_inspector) vs the exact arena size. One JSON
// line per (dataset, query) goes to --out; scripts/bench_index.sh wraps
// the lines into BENCH_index.json and validates the byte claims.
//
//   bench_index --out runs.jsonl [--reps 3] [--limit 500000]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "ceci/matcher.h"
#include "util/json_writer.h"
#include "util/timer.h"

namespace {

struct Run {
  double build_seconds = 0;      // BFS build (best rep)
  double refine_seconds = 0;     // reverse-BFS refine (best rep)
  double freeze_seconds = 0;     // arena freeze (best rep)
  double enumerate_seconds = 0;  // enumeration (best rep)
  double total_seconds = 0;      // whole Match() wall clock (best rep)
  std::uint64_t embeddings = 0;
  std::size_t bytes_estimate = 0;  // mutable payload estimate (ceci_bytes)
  std::size_t candidate_edges = 0;
  std::size_t array_entries = 0;
  std::size_t bitmap_entries = 0;
};

// The two candidate-storage figures per (dataset, query), measured on the
// same refined index: the mutable index as a malloc_usable_size sum, the
// arena exact by construction.
struct BytesReport {
  std::size_t mutable_measured = 0;
  std::size_t flat_exact = 0;
};

BytesReport MeasureBytes(const ceci::Graph& data, const ceci::Graph& query) {
  using namespace ceci;
  BytesReport r;
  MatchOptions options;
  options.index_inspector = [&](const QueryTree&, const CeciIndex& index,
                                bool refined) {
    if (refined) r.mutable_measured = index.MeasuredHeapBytes();
  };
  auto prepared = CeciMatcher(data).Prepare(query, options);
  if (prepared.ok()) r.flat_exact = prepared->flat.ArenaBytes();
  return r;
}

Run TimeMatch(const ceci::Graph& data, const ceci::Graph& query, int reps,
              std::uint64_t limit) {
  using namespace ceci;
  Run best;
  best.total_seconds = -1.0;
  for (int rep = 0; rep < reps; ++rep) {
    CeciMatcher matcher(data);
    MatchOptions options;
    options.threads = 1;
    options.limit = limit;
    Timer wall;
    auto result = matcher.Match(query, options);
    const double total = wall.Seconds();
    const auto& s = result->stats;
    if (best.total_seconds < 0 || total < best.total_seconds) {
      best.total_seconds = total;
      best.build_seconds = s.build_seconds;
      best.refine_seconds = s.refine_seconds;
      best.freeze_seconds = s.freeze_seconds;
      best.enumerate_seconds = s.enumerate_seconds;
      best.embeddings = result->embedding_count;
      best.bytes_estimate = s.ceci_bytes;
      best.candidate_edges = s.candidate_edges;
      best.array_entries = s.flat_array_entries;
      best.bitmap_entries = s.flat_bitmap_entries;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ceci;
  using namespace ceci::bench;
  std::string out;
  int reps = 3;
  std::uint64_t limit = 500000;
  std::string only_dataset, only_query;  // profiling aids, not for BENCH runs
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--limit") == 0 && i + 1 < argc) {
      limit = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--dataset") == 0 && i + 1 < argc) {
      only_dataset = argv[++i];
    } else if (std::strcmp(argv[i], "--query") == 0 && i + 1 < argc) {
      only_query = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_index --out PATH [--reps N] [--limit N] "
                   "[--dataset ABBR] [--query QGn]\n");
      return 2;
    }
  }
  if (out.empty()) {
    std::fprintf(stderr, "bench_index: --out is required\n");
    return 2;
  }
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_index: cannot open %s\n", out.c_str());
    return 1;
  }

  Banner("Index layout - mutable index vs flat arena", "docs/index_layout.md",
         "measured bytes and single-thread latency, per query x dataset");

  const char* datasets[] = {"FS", "LJ", "OK", "WT", "YT"};
  std::printf("%-9s %-5s %12s %12s %8s %12s %12s\n", "dataset", "query",
              "mut bytes", "flat bytes", "mut x", "enumerate", "total");
  for (const char* abbr : datasets) {
    if (!only_dataset.empty() && only_dataset != abbr) continue;
    Dataset d = MakeDataset(abbr);
    for (PaperQuery pq : kAllPaperQueries) {
      if (!only_query.empty() && only_query != PaperQueryName(pq)) continue;
      Graph query = MakePaperQuery(pq);
      const BytesReport bytes = MeasureBytes(d.graph, query);
      const Run run = TimeMatch(d.graph, query, reps, limit);
      JsonWriter w;
      w.BeginObject();
      // std::string_view() wrapper: a bare const char* would bind to the
      // bool overload of KV.
      w.KV("bench", std::string_view("index"));
      w.KV("dataset", d.abbr);
      w.KV("query", PaperQueryName(pq));
      w.KV("embeddings", run.embeddings);
      w.KV("build_seconds", run.build_seconds);
      w.KV("refine_seconds", run.refine_seconds);
      w.KV("freeze_seconds", run.freeze_seconds);
      w.KV("enumerate_seconds", run.enumerate_seconds);
      w.KV("total_seconds", run.total_seconds);
      w.KV("bytes_estimate", static_cast<std::uint64_t>(run.bytes_estimate));
      w.KV("bytes_mutable_measured",
           static_cast<std::uint64_t>(bytes.mutable_measured));
      w.KV("bytes_flat_exact", static_cast<std::uint64_t>(bytes.flat_exact));
      w.KV("candidate_edges", static_cast<std::uint64_t>(run.candidate_edges));
      w.KV("array_entries", static_cast<std::uint64_t>(run.array_entries));
      w.KV("bitmap_entries", static_cast<std::uint64_t>(run.bitmap_entries));
      w.EndObject();
      std::fprintf(f, "%s\n", w.str().c_str());
      const double flat_div =
          static_cast<double>(std::max<std::size_t>(bytes.flat_exact, 1));
      std::printf("%-9s %-5s %12s %12s %7.2fx %12s %12s\n", abbr,
                  PaperQueryName(pq).c_str(),
                  FmtBytes(bytes.mutable_measured).c_str(),
                  FmtBytes(bytes.flat_exact).c_str(),
                  static_cast<double>(bytes.mutable_measured) / flat_div,
                  FmtSeconds(run.enumerate_seconds).c_str(),
                  FmtSeconds(run.total_seconds).c_str());
    }
  }
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
