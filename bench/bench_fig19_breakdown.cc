// Figure 19: breakdown of the speedup over the bare-graph baseline into
// CECI's individual techniques (§6.6).
//
// Four cumulative configurations:
//   1. bare      — backtracking on the raw graph, no index;
//   2. +CECI     — filtered/refined index, NTE edges verified on the graph;
//   3. +intersect— NTE candidate intersection replaces edge verification;
//   4. +FGD      — extreme-cluster decomposition + dynamic balance
//                  (simulated 8-worker makespan).
// The paper reports up to two orders of magnitude end-to-end. On the mild
// laptop-scale analogs expect clear monotone gains (largest step from the
// index itself).
#include <cstdio>

#include "baselines/bare_enumerator.h"
#include "bench/bench_common.h"
#include "ceci/ceci_builder.h"
#include "ceci/preprocess.h"
#include "ceci/refinement.h"
#include "ceci/scheduler.h"
#include "util/timer.h"

int main() {
  using namespace ceci;
  using namespace ceci::bench;
  Banner("Figure 19 - speedup breakdown over the bare-graph baseline",
         "Fig. 19", "cumulative: bare -> +CECI -> +intersection -> +FGD");
  std::printf("%-4s %-4s %10s %10s %10s %10s %9s\n", "DS", "QG", "bare",
              "+CECI", "+intersect", "+FGD(8w)", "total");

  for (const char* abbr : {"WT", "LJ"}) {
    Dataset d = MakeDataset(abbr);
    NlcIndex nlc(d.graph);
    for (PaperQuery pq : {PaperQuery::kQG3, PaperQuery::kQG5}) {
      Graph query = MakePaperQuery(pq);

      // 1: bare baseline (single worker).
      BareResult bare = BareCount(d.graph, query, BareOptions{});

      // Build the index once (its cost is charged to configs 2-4).
      Timer build_timer;
      auto pre = Preprocess(d.graph, nlc, query, PreprocessOptions{});
      BuildOptions build_options;
      build_options.root_candidates = &pre->root_candidates;
      build_options.filter_table = &pre->filter;
      CeciBuilder builder(d.graph, nlc);
      CeciIndex index =
          builder.Build(query, pre->tree, build_options, nullptr);
      pre->ReleaseBuildInputs();
      RefineCeci(pre->tree, d.graph.num_vertices(), &index, nullptr);
      double build_s = build_timer.Seconds();
      SymmetryConstraints symmetry = SymmetryConstraints::Compute(query);

      auto run = [&](bool intersect, std::size_t threads,
                     Distribution dist) {
        ScheduleOptions options;
        options.threads = threads;
        options.distribution = dist;
        options.enumeration.symmetry = &symmetry;
        options.enumeration.nte_intersection = intersect;
        auto result = RunParallelEnumeration(d.graph, pre->tree, index,
                                             options, nullptr);
        if (result.embeddings != bare.embeddings) {
          std::printf("COUNT MISMATCH on %s %s\n", abbr,
                      PaperQueryName(pq).c_str());
          std::exit(1);
        }
        return build_s + result.decomposition.seconds +
               result.SimulatedMakespan();
      };

      // 2: index + edge verification, 1 worker.
      double with_index = run(false, 1, Distribution::kCoarseDynamic);
      // 3: index + intersection, 1 worker.
      double with_intersect = run(true, 1, Distribution::kCoarseDynamic);
      // 4: index + intersection + FGD across 8 workers.
      double with_fgd = run(true, 8, Distribution::kFineDynamic);

      std::printf("%-4s %-4s %10s %10s %10s %10s %8.1fx\n", abbr,
                  PaperQueryName(pq).c_str(), FmtSeconds(bare.seconds).c_str(),
                  FmtSeconds(with_index).c_str(),
                  FmtSeconds(with_intersect).c_str(),
                  FmtSeconds(with_fgd).c_str(), bare.seconds / with_fgd);
      std::fflush(stdout);
    }
  }
  return 0;
}
