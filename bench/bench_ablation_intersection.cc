// Ablation (§4.1, Lemma 2): intersection-based enumeration vs per-edge
// verification, plus the raw sorted-set intersection kernels.
//
// The paper reports 13%-170% runtime improvement from intersection,
// growing with the number of non-tree edges — hence QG2 (1 NTE) through
// QG4 (3 NTEs) are swept here.
#include <benchmark/benchmark.h>

#include <random>

#include "bench/bench_common.h"
#include "ceci/preprocess.h"
#include "ceci/scheduler.h"
#include "util/intersection.h"

namespace {

using namespace ceci;
using namespace ceci::bench;

std::vector<std::uint32_t> MakeSorted(std::size_t n, std::uint32_t max,
                                      std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint32_t> v(n);
  std::uniform_int_distribution<std::uint32_t> pick(0, max);
  for (auto& x : v) x = pick(rng);
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

void BM_IntersectBalanced(benchmark::State& state) {
  auto a = MakeSorted(state.range(0), 1 << 22, 1);
  auto b = MakeSorted(state.range(0), 1 << 22, 2);
  std::vector<std::uint32_t> out;
  for (auto _ : state) {
    IntersectSorted(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * (a.size() + b.size()));
}
BENCHMARK(BM_IntersectBalanced)->Range(64, 1 << 16);

void BM_IntersectSkewed(benchmark::State& state) {
  auto a = MakeSorted(64, 1 << 22, 3);                 // small side
  auto b = MakeSorted(state.range(0), 1 << 22, 4);     // large side
  std::vector<std::uint32_t> out;
  for (auto _ : state) {
    IntersectSorted(a, b, &out);  // galloping path
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * b.size());
}
BENCHMARK(BM_IntersectSkewed)->Range(1 << 12, 1 << 20);

struct EnumFixture {
  EnumFixture() : dataset(MakeDataset("OK")), nlc(dataset.graph) {}

  double Run(PaperQuery pq, bool intersect) {
    Graph query = MakePaperQuery(pq);
    auto pre = Preprocess(dataset.graph, nlc, query, PreprocessOptions{});
    const FlatCeciIndex flat =
        BuildPreprocessed(dataset.graph, nlc, query, &pre.value());
    SymmetryConstraints symmetry = SymmetryConstraints::Compute(query);
    ScheduleOptions options;
    options.enumeration.symmetry = &symmetry;
    options.enumeration.nte_intersection = intersect;
    auto result = RunParallelEnumeration(dataset.graph, pre->tree, flat,
                                         options, nullptr);
    return result.SimulatedMakespan();
  }

  Dataset dataset;
  NlcIndex nlc;
};

EnumFixture& Fixture() {
  static EnumFixture* fixture = new EnumFixture();
  return *fixture;
}

void BM_EnumerateIntersection(benchmark::State& state) {
  auto pq = static_cast<PaperQuery>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fixture().Run(pq, true));
  }
  state.SetLabel(PaperQueryName(pq) + " intersection");
}
BENCHMARK(BM_EnumerateIntersection)
    ->Arg(static_cast<int>(PaperQuery::kQG2))
    ->Arg(static_cast<int>(PaperQuery::kQG3))
    ->Arg(static_cast<int>(PaperQuery::kQG4))
    ->Unit(benchmark::kMillisecond);

void BM_EnumerateEdgeVerification(benchmark::State& state) {
  auto pq = static_cast<PaperQuery>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fixture().Run(pq, false));
  }
  state.SetLabel(PaperQueryName(pq) + " edge-verification");
}
BENCHMARK(BM_EnumerateEdgeVerification)
    ->Arg(static_cast<int>(PaperQuery::kQG2))
    ->Arg(static_cast<int>(PaperQuery::kQG3))
    ->Arg(static_cast<int>(PaperQuery::kQG4))
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
