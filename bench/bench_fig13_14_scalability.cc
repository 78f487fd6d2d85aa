// Figures 13 and 14: thread scalability of CECI vs PsgL, QG1 and QG4 on
// FS and OK (§6.5).
//
// The paper shows near-linear CECI speedup to 16 workers (flattening
// beyond for lack of workload) and consistently weaker PsgL scaling due
// to its exhaustive redistribution. One core is exposed here, so speedup
// is simulated: speedup(T) = single-worker work / max per-worker CPU time
// with T workers — the balance-limited speedup a T-core machine would
// observe. Expected shape: CECI close to ideal, PsgL below it.
#include <algorithm>
#include <cstdio>

#include "baselines/psgl.h"
#include "bench/bench_common.h"
#include "ceci/preprocess.h"
#include "ceci/scheduler.h"

namespace {

using namespace ceci;
using namespace ceci::bench;

double CeciMakespan(const Graph& data, const NlcIndex& nlc,
                    const Graph& query, std::size_t threads,
                    std::uint64_t* count) {
  auto pre = Preprocess(data, nlc, query, PreprocessOptions{});
  const FlatCeciIndex flat = BuildPreprocessed(data, nlc, query, &pre.value());
  SymmetryConstraints symmetry = SymmetryConstraints::Compute(query);
  ScheduleOptions options;
  options.threads = threads;
  options.distribution = Distribution::kFineDynamic;
  options.enumeration.symmetry = &symmetry;
  auto result = RunParallelEnumeration(data, pre->tree, flat, options,
                                       nullptr);
  *count = result.embeddings;
  return result.SimulatedMakespan();
}

double PsglMakespan(const Graph& data, const Graph& query,
                    std::size_t threads, std::uint64_t* count) {
  PsglOptions options;
  options.threads = threads;
  PsglResult result = PsglCount(data, query, options);
  *count = result.embeddings;
  double makespan = 0.0;
  for (double w : result.worker_seconds) makespan = std::max(makespan, w);
  return makespan;
}

}  // namespace

int main() {
  Banner("Figures 13/14 - thread scalability, CECI vs PsgL", "Figs. 13-14",
         "simulated speedup = 1-worker work / max worker CPU at T workers");
  const std::size_t kThreadCounts[] = {1, 2, 4, 8, 16};

  for (const char* abbr : {"FS", "OK"}) {
    Dataset d = MakeDataset(abbr);
    NlcIndex nlc(d.graph);
    for (PaperQuery pq : {PaperQuery::kQG1, PaperQuery::kQG4}) {
      Graph query = MakePaperQuery(pq);
      std::printf("-- %s %s\n", abbr, PaperQueryName(pq).c_str());
      std::printf("%8s %14s %14s\n", "threads", "CECI-speedup",
                  "PsgL-speedup");
      std::uint64_t base_count = 0;
      double ceci_base = CeciMakespan(d.graph, nlc, query, 1, &base_count);
      std::uint64_t psgl_count = 0;
      double psgl_base = PsglMakespan(d.graph, query, 1, &psgl_count);
      if (base_count != psgl_count) {
        std::printf("COUNT MISMATCH (%llu vs %llu)\n",
                    static_cast<unsigned long long>(base_count),
                    static_cast<unsigned long long>(psgl_count));
        return 1;
      }
      for (std::size_t threads : kThreadCounts) {
        std::uint64_t count_c = 0;
        std::uint64_t count_p = 0;
        double ceci_t = CeciMakespan(d.graph, nlc, query, threads, &count_c);
        double psgl_t = PsglMakespan(d.graph, query, threads, &count_p);
        std::printf("%8zu %13.2fx %13.2fx\n", threads, ceci_base / ceci_t,
                    psgl_base / psgl_t);
        std::fflush(stdout);
      }
    }
  }
  return 0;
}
