// Figure 18: reduction of recursive calls by CECI over PsgL (§6.6).
//
// The number of backtracking/expansion calls approximates the search
// space [33]; the paper reports up to 44% reduction, growing with query
// complexity. CECI's calls come from its enumerator counter, PsgL's from
// its per-partial-embedding expansion counter.
#include <cstdio>

#include "baselines/psgl.h"
#include "bench/bench_common.h"
#include "ceci/matcher.h"

int main() {
  using namespace ceci;
  using namespace ceci::bench;
  Banner("Figure 18 - recursive-call reduction over PsgL", "Fig. 18",
         "reduction = 1 - CECI calls / PsgL expansions");

  std::printf("%-4s %-4s %14s %14s %11s\n", "DS", "QG", "CECI-calls",
              "PsgL-expns", "reduction");
  for (const char* abbr : {"WT", "LJ", "OK"}) {
    Dataset d = MakeDataset(abbr);
    CeciMatcher matcher(d.graph);
    // Paper accounting: BFS order and one call per last-level candidate,
    // as in the baselines the counts are compared with.
    MatchOptions options;
    options.order = OrderStrategy::kBfs;
    options.leaf_count_shortcut = false;
    for (PaperQuery pq : kAllPaperQueries) {
      Graph query = MakePaperQuery(pq);
      auto ceci = matcher.Match(query, options);
      WriteMetricsSidecar("fig18_recursive_calls", *ceci,
                          {{"dataset", abbr}, {"query", PaperQueryName(pq)}});
      PsglResult psgl = PsglCount(d.graph, query, PsglOptions{});
      if (psgl.overflowed) {
        // The paper reports exactly this: PsgL's exponential intermediate
        // results exhaust memory on the bigger inputs (§6.4).
        std::printf("%-4s %-4s %14llu %14s %11s\n", abbr,
                    PaperQueryName(pq).c_str(),
                    static_cast<unsigned long long>(
                        ceci->stats.enumeration.recursive_calls),
                    "DNF (memory)", ">0%");
        std::fflush(stdout);
        continue;
      }
      if (ceci->embedding_count != psgl.embeddings) {
        std::printf("COUNT MISMATCH on %s %s\n", abbr,
                    PaperQueryName(pq).c_str());
        return 1;
      }
      const double reduction =
          100.0 * (1.0 - static_cast<double>(
                             ceci->stats.enumeration.recursive_calls) /
                             static_cast<double>(psgl.expansions));
      std::printf("%-4s %-4s %14llu %14llu %10.1f%%\n", abbr,
                  PaperQueryName(pq).c_str(),
                  static_cast<unsigned long long>(
                      ceci->stats.enumeration.recursive_calls),
                  static_cast<unsigned long long>(psgl.expansions),
                  reduction);
      std::fflush(stdout);
    }
  }
  return 0;
}
