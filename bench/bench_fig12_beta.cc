// Figure 12: effect of the extreme-cluster threshold β (§6.3).
//
// The paper sweeps β for QG3 on Friendster; at laptop scale the analog
// whose largest cluster actually dominates is the hub-skewed WT graph
// with QG5 (see DESIGN.md §1.4), so the sweep runs there. The sweep is
// extended above 1 because the dominant cluster is already fully split at
// β=1 at this scale — large β values recreate the paper's "high skew at
// the end" regime where the threshold never triggers.
//
// Smaller β decomposes harder: per-worker finish times tighten (less
// end-of-run skew) while the one-time scheduling overhead grows — the
// paper reports 14.76s / 16.53s / 23.96s of scheduling for β = 1 / 0.2 /
// 0.1 on FS. Expected shape here: max/min worker-time ratio shrinks as β
// drops; decomposition time and unit count rise.
#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "ceci/preprocess.h"
#include "ceci/scheduler.h"

int main() {
  using namespace ceci;
  using namespace ceci::bench;
  Banner("Figure 12 - effect of beta on worker finish times", "Fig. 12",
         "QG5 on the hub-skewed WT analog, 8 workers, FGD");

  Dataset d = MakeDataset("WTH");
  NlcIndex nlc(d.graph);
  Graph query = MakePaperQuery(PaperQuery::kQG5);
  auto pre = Preprocess(d.graph, nlc, query, PreprocessOptions{});
  const FlatCeciIndex flat =
      BuildPreprocessed(d.graph, nlc, query, &pre.value());
  SymmetryConstraints symmetry = SymmetryConstraints::Compute(query);

  std::printf("%6s %9s %10s %10s %10s %9s %12s\n", "beta", "units",
              "min-wkr", "max-wkr", "skew", "sched", "embeddings");
  for (double beta : {16.0, 8.0, 4.0, 1.0, 0.2, 0.05}) {
    ScheduleOptions options;
    options.threads = 8;
    options.distribution = Distribution::kFineDynamic;
    options.beta = beta;
    options.enumeration.symmetry = &symmetry;
    auto result =
        RunParallelEnumeration(d.graph, pre->tree, flat, options, nullptr);
    double min_w = 1e300;
    double max_w = 0.0;
    for (double w : result.worker_seconds) {
      min_w = std::min(min_w, w);
      max_w = std::max(max_w, w);
    }
    std::printf("%6.2f %9zu %10s %10s %9.2fx %9s %12llu\n", beta,
                result.decomposition.work_units, FmtSeconds(min_w).c_str(),
                FmtSeconds(max_w).c_str(), max_w / std::max(min_w, 1e-9),
                FmtSeconds(result.decomposition.seconds).c_str(),
                static_cast<unsigned long long>(result.embeddings));
    std::fflush(stdout);
  }
  return 0;
}
