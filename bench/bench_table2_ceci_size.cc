// Table 2: CECI size for different query and data graph combinations.
//
// For QG1-QG5 on the social-graph analogs each cell reports the flat arena
// size (exact — enumeration reads exactly those bytes) next to the paper's
// §3.4 accounting of the same refined index (MatchStats::ceci_bytes). A
// footer row gives the paper's theoretical |E_q| x 2|E_g| bound and the %
// of it the flat index saves; the paper reports 31%-88% savings and the
// same order of magnitude should appear here.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "ceci/matcher.h"

int main() {
  using namespace ceci;
  using namespace ceci::bench;
  Banner("Table 2 - CECI size, flat arena vs the paper's accounting",
         "Table 2", "flat exact / paper estimate, per query x dataset");

  const char* datasets[] = {"FS", "LJ", "OK", "WT", "YT"};
  std::printf("%-5s", "");
  for (const char* abbr : datasets) std::printf(" %26s", abbr);
  std::printf("\n");

  std::vector<Dataset> loaded;
  for (const char* abbr : datasets) loaded.push_back(MakeDataset(abbr));

  // Footer accumulators: per dataset, the flat bytes and theoretical bound
  // of the last query row (the bound only depends on |E_q|, so we report
  // the savings range across queries instead).
  std::vector<double> best_saved(loaded.size(), 0.0);
  std::vector<double> worst_saved(loaded.size(), 100.0);

  for (PaperQuery pq : kAllPaperQueries) {
    Graph query = MakePaperQuery(pq);
    std::printf("%-5s", PaperQueryName(pq).c_str());
    for (std::size_t di = 0; di < loaded.size(); ++di) {
      Dataset& d = loaded[di];
      CeciMatcher matcher(d.graph);
      MatchOptions options;
      options.limit = 1;  // index statistics only; skip full enumeration
      auto result = matcher.Match(query, options);
      const auto& s = result->stats;
      WriteMetricsSidecar("table2_ceci_size", *result,
                          {{"dataset", d.abbr}, {"query", PaperQueryName(pq)}});
      const double saved =
          100.0 * (1.0 - static_cast<double>(s.flat_bytes) /
                             static_cast<double>(s.theoretical_bytes));
      best_saved[di] = std::max(best_saved[di], saved);
      worst_saved[di] = std::min(worst_saved[di], saved);
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%s/%s",
                    FmtBytes(s.flat_bytes).c_str(),
                    FmtBytes(s.ceci_bytes).c_str());
      std::printf(" %26s", cell);
    }
    std::printf("\n");
  }

  std::printf("%-5s", "vs O");
  for (std::size_t di = 0; di < loaded.size(); ++di) {
    char cell[64];
    std::snprintf(cell, sizeof(cell), "saves %.0f%%-%.0f%% of bound",
                  worst_saved[di], best_saved[di]);
    std::printf(" %26s", cell);
  }
  std::printf("\n");
  return 0;
}
