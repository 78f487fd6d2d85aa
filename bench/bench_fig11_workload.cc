// Figure 11: speedup of CGD and FGD workload distribution over ST (§6.3).
//
// β is fixed to 0.2 as in the paper. The container exposes one core, so
// parallel completion time is *simulated* from per-worker CPU time
// (makespan = slowest worker); this is exactly the balance quality the
// figure measures. Expected shape: FGD >= CGD >> ST on skewed graphs;
// FGD can fall slightly below CGD where no ExtremeCluster exists (the
// paper notes this on WT/QG3).
#include <cstdio>

#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "ceci/preprocess.h"
#include "ceci/scheduler.h"

int main() {
  using namespace ceci;
  using namespace ceci::bench;
  Banner("Figure 11 - ST vs CGD vs FGD workload distribution", "Fig. 11",
         "8 workers, beta=0.2; makespan = max worker CPU time (simulated)");
  std::printf("%-4s %-4s %10s %10s %10s %9s %9s\n", "DS", "QG", "ST", "CGD",
              "FGD", "CGD/ST", "FGD/ST");

  constexpr std::size_t kThreads = 8;
  // Combinations whose total work is a few milliseconds sit below
  // scheduling noise on this container and are skipped; WT (hub-dominated)
  // runs all three depths, the flatter graphs run the heavy QG5.
  const std::pair<const char*, std::vector<PaperQuery>> plan[] = {
      {"WTH", {PaperQuery::kQG1, PaperQuery::kQG3, PaperQuery::kQG5}},
      {"OK", {PaperQuery::kQG5}},
      {"FS", {PaperQuery::kQG5}},
  };
  for (const auto& [abbr, queries] : plan) {
    Dataset d = MakeDataset(abbr);
    NlcIndex nlc(d.graph);
    for (PaperQuery pq : queries) {
      Graph query = MakePaperQuery(pq);
      auto pre = Preprocess(d.graph, nlc, query, PreprocessOptions{});
      const FlatCeciIndex flat =
          BuildPreprocessed(d.graph, nlc, query, &pre.value());
      SymmetryConstraints symmetry = SymmetryConstraints::Compute(query);

      double makespans[3] = {0, 0, 0};
      const Distribution dists[3] = {Distribution::kStatic,
                                     Distribution::kCoarseDynamic,
                                     Distribution::kFineDynamic};
      std::uint64_t counts[3] = {0, 0, 0};
      for (int i = 0; i < 3; ++i) {
        ScheduleOptions options;
        options.threads = kThreads;
        options.distribution = dists[i];
        options.beta = 0.2;
        options.enumeration.symmetry = &symmetry;
        auto result = RunParallelEnumeration(d.graph, pre->tree, flat,
                                             options, nullptr);
        makespans[i] = result.SimulatedMakespan() +
                       result.decomposition.seconds;
        counts[i] = result.embeddings;
      }
      if (counts[0] != counts[1] || counts[0] != counts[2]) {
        std::printf("COUNT MISMATCH on %s %s\n", abbr,
                    PaperQueryName(pq).c_str());
        return 1;
      }
      std::printf("%-4s %-4s %10s %10s %10s %8.2fx %8.2fx\n", abbr,
                  PaperQueryName(pq).c_str(), FmtSeconds(makespans[0]).c_str(),
                  FmtSeconds(makespans[1]).c_str(),
                  FmtSeconds(makespans[2]).c_str(),
                  makespans[0] / makespans[1], makespans[0] / makespans[2]);
      std::fflush(stdout);
    }
  }
  return 0;
}
