// Ablation: counting fast path (leaf shortcut).
//
// When only counts are needed, the final matching-order position can add
// |candidates| instead of recursing per candidate. This is an extension
// beyond the paper (its experiments materialize or count one embedding per
// recursive call); the bench quantifies what the shortcut is worth per
// query shape — the win grows with the fraction of search-tree nodes that
// sit at the last level.
#include <cstdio>

#include "bench/bench_common.h"
#include "ceci/matcher.h"
#include "util/timer.h"

int main() {
  using namespace ceci;
  using namespace ceci::bench;
  Banner("Ablation - counting fast path (leaf shortcut)", "extension",
         "full counts on OK; enumerate vs count-only last level");

  Dataset d = MakeDataset("OK");
  CeciMatcher matcher(d.graph);
  std::printf("%-4s %12s %12s %12s %9s %14s\n", "QG", "embeddings",
              "enumerate", "shortcut", "speedup", "calls saved");
  for (PaperQuery pq : kAllPaperQueries) {
    Graph query = MakePaperQuery(pq);
    MatchOptions plain;
    plain.leaf_count_shortcut = false;
    Timer t;
    auto a = matcher.Match(query, plain);
    double plain_s = t.Seconds();

    MatchOptions fast;
    fast.leaf_count_shortcut = true;
    t.Reset();
    auto b = matcher.Match(query, fast);
    double fast_s = t.Seconds();

    if (a->embedding_count != b->embedding_count) {
      std::printf("COUNT MISMATCH on %s\n", PaperQueryName(pq).c_str());
      return 1;
    }
    std::printf("%-4s %12llu %12s %12s %8.2fx %14llu\n",
                PaperQueryName(pq).c_str(),
                static_cast<unsigned long long>(a->embedding_count),
                FmtSeconds(plain_s).c_str(), FmtSeconds(fast_s).c_str(),
                plain_s / fast_s,
                static_cast<unsigned long long>(
                    a->stats.enumeration.recursive_calls -
                    b->stats.enumeration.recursive_calls));
    std::fflush(stdout);
  }
  return 0;
}
