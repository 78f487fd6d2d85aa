// Persistent CECI index workflow (paper §6.4's non-volatile storage plan).
//
// When one query shape is matched repeatedly against a static data graph
// (monitoring dashboards, scheduled pattern scans), construction and
// refinement can be paid once: prepare the query (build, refine, freeze),
// persist the frozen index, and reload it for later enumerations. This example measures the build-once/reuse-many
// saving end to end.
#include <cstdio>

#include <filesystem>

#include "ceci/enumerator.h"
#include "ceci/index_io.h"
#include "ceci/matcher.h"
#include "gen/labels.h"
#include "gen/random_graphs.h"
#include "graphio/pattern_parser.h"
#include "util/logging.h"
#include "util/timer.h"

int main() {
  using namespace ceci;
  const std::string index_path =
      (std::filesystem::temp_directory_path() / "ceci_demo.idx").string();

  Graph data = AssignRandomLabels(GenerateSocialGraph(25000, 10, 33), 8, 34);
  auto query = ParsePattern("(a:1)-(b:2)-(c:3); (a)-(c); (c)-(d:4)");
  CECI_CHECK(query.ok());
  std::printf("data:  %s\nquery: %s\n\n", data.Summary().c_str(),
              FormatPattern(*query).c_str());

  // --- Build once: CeciMatcher::Prepare stops at the frozen arena ---
  Timer build_timer;
  CeciMatcher matcher(data);
  auto prepared = matcher.Prepare(*query, MatchOptions{});
  CECI_CHECK(prepared.ok());
  double build_s = build_timer.Seconds();
  const QueryTree& tree = prepared->tree;

  Status st = WriteFlatIndex(prepared->flat, tree, prepared->symmetry, "",
                             index_path);
  CECI_CHECK(st.ok()) << st.ToString();
  std::printf("built + refined + frozen in %.1fms; persisted %zu candidate "
              "edges to %s\n",
              build_s * 1e3, prepared->flat.TotalCandidateEdges(),
              index_path.c_str());

  // --- Reuse many times ---
  EnumOptions eo;
  eo.symmetry = &prepared->symmetry;
  double load_s = 0.0;
  double enum_s = 0.0;
  std::uint64_t count = 0;
  constexpr int kRuns = 5;
  for (int run = 0; run < kRuns; ++run) {
    Timer t;
    auto loaded = ReadFlatIndex(tree, index_path);
    CECI_CHECK(loaded.ok()) << loaded.status().ToString();
    load_s += t.Seconds();
    t.Reset();
    Enumerator e(data, tree, *loaded, eo);
    count = e.EnumerateAll(nullptr);
    enum_s += t.Seconds();
  }
  std::printf("%d reuse runs: avg load %.1fms + enumerate %.1fms "
              "(vs %.1fms rebuild) -> %llu embeddings each\n",
              kRuns, load_s / kRuns * 1e3, enum_s / kRuns * 1e3,
              build_s * 1e3, static_cast<unsigned long long>(count));

  // --- Or skip the copy entirely: enumerate from the mmap'd arena ---
  // (docs/index_layout.md). This is the `ceci_serve --index` path: the
  // image stays in the page cache and every process mapping it shares
  // one physical copy.
  IndexLoadOptions mmap_opts;
  mmap_opts.use_mmap = true;
  Timer t;
  auto flat = ReadFlatIndex(tree, index_path, mmap_opts);
  CECI_CHECK(flat.ok()) << flat.status().ToString();
  CECI_CHECK(flat->mapped());
  double map_s = t.Seconds();
  t.Reset();
  Enumerator flat_enum(data, tree, *flat, eo);
  std::uint64_t flat_count = flat_enum.EnumerateAll(nullptr);
  CECI_CHECK(flat_count == count);
  std::printf("mmap'd arena (%zu bytes): map %.1fms + enumerate %.1fms "
              "-> %llu embeddings, zero heap copies\n",
              flat->ArenaBytes(), map_s * 1e3, t.Seconds() * 1e3,
              static_cast<unsigned long long>(flat_count));

  std::filesystem::remove(index_path);
  return 0;
}
