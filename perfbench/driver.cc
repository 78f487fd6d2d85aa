// ceci_perfbench — the workload driver behind perfbench/run.py.
//
//   ceci_perfbench gen --seed S --n N --attach K --labels L --out PATH
//   ceci_perfbench run --workload W --seed S --data PATH [--data PATH]...
//                      --ops N [--trace] [workload flags, see kRequiredFlags]
//
// `gen` writes one seeded social graph in the labeled v/e format, in a
// process of its own so generation never counts toward the run's peak
// RSS. `run` takes several such graphs, sets each up (set-up time is
// their median), replays an equal share of the run's fixed work on each
// in a closed loop, checks every answer, and prints one JSON object of
// raw samples as its last stdout line. Spreading a run over several
// independently seeded graphs keeps its totals from hinging on the few
// hubs of one power-law graph. run.py turns the samples into metrics; all
// percentile and ratio arithmetic lives there (perfbench/stats.py).
//
// Every layer is measured from outside, by timing calls into its public
// functions; nothing here adds tracing inside src/.
#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baselines/vf2.h"
#include "ceci/ceci_builder.h"
#include "ceci/flat_index.h"
#include "ceci/matcher.h"
#include "ceci/preprocess.h"
#include "ceci/refinement.h"
#include "ceci/scheduler.h"
#include "ceci/symmetry.h"
#include "dist/supervisor.h"
#include "gen/query_gen.h"
#include "gen/random_graphs.h"
#include "graph/graph_builder.h"
#include "graphio/edge_list.h"
#include "graphio/pattern_parser.h"
#include "serve/protocol.h"
#include "serve/workload.h"
#include "util/check.h"
#include "util/json_parser.h"
#include "util/json_writer.h"
#include "util/thread_pool.h"

extern char** environ;

namespace {

using namespace ceci;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double SecondsSince(Clock::time_point start) { return MsSince(start) / 1e3; }

/// Every value comes from the command line, which run.py builds from
/// perfbench/workloads.json; the driver has no workload values of its own.
/// kRequiredFlags lists the flags each mode or workload must be given.
struct Args {
  std::string mode;
  std::string workload;
  bool trace = false;
  std::set<std::string> given;
  std::uint64_t seed = 0;
  std::vector<std::string> data;
  std::string out;
  std::string bin_dir;
  std::string work_dir;
  // Generator parameters (gen).
  std::size_t n = 0;
  std::size_t attach = 0;
  std::size_t labels = 0;
  // Fixed work per run: operations (queries or requests), split evenly
  // over the graphs.
  std::size_t ops = 0;
  // adhoc-labeled: distinct queries per graph, and their sizes.
  std::size_t pool = 0;
  std::size_t min_size = 0;
  std::size_t max_size = 0;
  // Threads per Match (adhoc) or per server query (serve); dist workers.
  std::size_t threads = 0;
  std::size_t workers = 0;
  // Embedding limit per query, 0 = all.
  std::uint64_t limit = 0;
  // dashboard-serve client and server shape.
  std::size_t connections = 0;
  double zipf = 0;
  std::size_t pool_threads = 0;
  std::size_t max_concurrent = 0;
};

const std::map<std::string, std::vector<std::string>> kRequiredFlags = {
    {"gen", {"seed", "n", "attach", "labels", "out"}},
    {"adhoc-labeled",
     {"seed", "data", "ops", "pool", "min-size", "max-size", "threads",
      "limit"}},
    {"dashboard-serve",
     {"seed", "data", "ops", "bin-dir", "connections", "zipf", "limit",
      "pool-threads", "threads", "max-concurrent"}},
    {"dist-batch", {"seed", "data", "ops", "bin-dir", "work-dir", "workers"}},
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      args->trace = true;
      continue;
    }
    if (i + 1 >= argc || flag.rfind("--", 0) != 0) return false;
    args->given.insert(flag.substr(2));
    const std::string v = argv[++i];
    auto num = [&] { return std::strtoull(v.c_str(), nullptr, 10); };
    if (flag == "--workload") args->workload = v;
    else if (flag == "--seed") args->seed = num();
    else if (flag == "--data") args->data.push_back(v);
    else if (flag == "--out") args->out = v;
    else if (flag == "--bin-dir") args->bin_dir = v;
    else if (flag == "--work-dir") args->work_dir = v;
    else if (flag == "--n") args->n = num();
    else if (flag == "--attach") args->attach = num();
    else if (flag == "--labels") args->labels = num();
    else if (flag == "--ops") args->ops = num();
    else if (flag == "--pool") args->pool = num();
    else if (flag == "--min-size") args->min_size = num();
    else if (flag == "--max-size") args->max_size = num();
    else if (flag == "--threads") args->threads = num();
    else if (flag == "--workers") args->workers = num();
    else if (flag == "--limit") args->limit = num();
    else if (flag == "--connections") args->connections = num();
    else if (flag == "--zipf") args->zipf = std::strtod(v.c_str(), nullptr);
    else if (flag == "--pool-threads") args->pool_threads = num();
    else if (flag == "--max-concurrent") args->max_concurrent = num();
    else return false;
  }
  if (args->mode != "gen" && args->mode != "run") return false;
  const auto required =
      kRequiredFlags.find(args->mode == "gen" ? "gen" : args->workload);
  if (required == kRequiredFlags.end()) return false;
  for (const std::string& flag : required->second) {
    if (args->given.count(flag) == 0) {
      std::fprintf(stderr, "missing --%s\n", flag.c_str());
      return false;
    }
  }
  return args->mode == "gen" ||
         (args->ops > 0 && args->min_size <= args->max_size);
}

/// Relabels `g` in degree order: vertices sorted by degree (ties by id)
/// are dealt in blocks of `labels`, each block a seeded permutation of the
/// labels. Every label then holds the same share of the hubs, so a
/// workload's cost does not hinge on which labels the few largest hubs of
/// a power-law graph happen to draw.
Result<Graph> DegreeStratifiedLabels(const Graph& g, std::size_t labels,
                                     std::uint64_t seed) {
  std::vector<VertexId> order(g.num_vertices());
  for (VertexId v = 0; v < order.size(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return g.degree(a) > g.degree(b);
  });
  std::mt19937_64 rng(seed);
  std::vector<Label> block(labels);
  GraphBuilder builder;
  builder.ReserveVertices(g.num_vertices());
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i % labels == 0) {
      for (std::size_t l = 0; l < labels; ++l) block[l] = static_cast<Label>(l);
      std::shuffle(block.begin(), block.end(), rng);
    }
    builder.AddLabel(order[i], block[i % labels]);
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId w : g.neighbors(v)) {
      if (v < w) builder.AddEdge(v, w);
    }
  }
  return builder.Build();
}

int Gen(const Args& args) {
  Graph g = GenerateSocialGraph(args.n, args.attach, args.seed);
  if (args.labels > 1) {
    auto labeled = DegreeStratifiedLabels(g, args.labels, args.seed + 1);
    if (!labeled.ok()) {
      std::fprintf(stderr, "gen: %s\n", labeled.status().ToString().c_str());
      return 1;
    }
    g = std::move(labeled).value();
  }
  Status st = WriteLabeledGraph(g, args.out);
  if (!st.ok()) {
    std::fprintf(stderr, "gen: %s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "gen: %s\n", g.Summary().c_str());
  return 0;
}

/// VmHWM (peak resident set) of `pid`, in KiB; 0 when unreadable.
std::uint64_t PeakRssKb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

/// The timed loop on one graph: each operation's wall time and the query
/// it ran (an index into the graph's query pool or shape list), and the
/// loop's wall time.
struct GraphRun {
  std::vector<double> latency_ms;
  std::vector<std::uint64_t> query;
  double elapsed_s = 0.0;

  void Add(double ms, std::size_t k) {
    latency_ms.push_back(ms);
    query.push_back(k);
  }
};

/// What every workload reports, plus the per-layer block of a traced run.
struct RunReport {
  std::vector<double> setup_s;
  std::vector<double> load_s;
  std::vector<double> nlc_s;
  std::vector<GraphRun> graphs;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::uint64_t peak_rss_kb = 0;

  void Fail(std::uint64_t n, const std::string& why) {
    failed += n;
    if (errors.size() < 8) errors.push_back(why);
  }
};

void WriteDoubles(JsonWriter* w, std::string_view key,
                  const std::vector<double>& values) {
  w->Key(key);
  w->BeginArray();
  for (double v : values) w->Double(v);
  w->EndArray();
}

void WriteGraphRuns(JsonWriter* w, std::string_view key,
                    const std::vector<GraphRun>& runs) {
  w->Key(key);
  w->BeginArray();
  for (const GraphRun& run : runs) {
    w->BeginObject();
    WriteDoubles(w, "latency_ms", run.latency_ms);
    w->Key("query");
    w->BeginArray();
    for (std::uint64_t k : run.query) w->Uint(k);
    w->EndArray();
    w->KV("elapsed_s", run.elapsed_s);
    w->EndObject();
  }
  w->EndArray();
}

/// A data graph and the matcher holding its NLC index.
struct LoadedGraph {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<CeciMatcher> matcher;
};

/// Loads `path` and builds the NLC index, timing the two separately for
/// graphio.load_s and nlc.build_s.
Result<LoadedGraph> LoadTimed(const std::string& path, RunReport* report) {
  const auto start = Clock::now();
  auto g = ReadLabeledGraph(path);
  if (!g.ok()) return g.status();
  const double load = SecondsSince(start);
  LoadedGraph loaded;
  loaded.graph = std::make_unique<Graph>(std::move(g).value());
  const auto nlc_start = Clock::now();
  loaded.matcher = std::make_unique<CeciMatcher>(*loaded.graph);
  report->load_s.push_back(load);
  report->nlc_s.push_back(SecondsSince(nlc_start));
  return loaded;
}

/// Operations graph `g` of the run carries.
std::size_t OpsOnGraph(const Args& args, std::size_t g) {
  const std::size_t k = args.data.size();
  return args.ops / k + (g < args.ops % k ? 1 : 0);
}

/// Seed of everything drawn for graph `g` (queries, orders, sequences).
std::uint64_t GraphSeed(const Args& args, std::size_t g) {
  return args.seed * 1000 + g;
}

/// A seeded pool of distinct labeled DFS-extracted queries, sizes cycling
/// through [min_size, max_size].
std::vector<Graph> QueryPool(const Graph& data, const Args& args,
                             std::uint64_t seed) {
  std::vector<Graph> pool;
  std::set<std::string> seen;
  const std::size_t span = args.max_size - args.min_size + 1;
  for (std::uint64_t attempt = 0;
       pool.size() < args.pool && attempt < 100 * args.pool; ++attempt) {
    QueryGenOptions gen;
    gen.num_vertices = args.min_size + pool.size() % span;
    gen.seed = seed * 1000003 + attempt;
    std::optional<Graph> q = GenerateQuery(data, gen);
    if (!q.has_value()) continue;
    if (!seen.insert(FormatPattern(*q)).second) continue;
    pool.push_back(std::move(*q));
  }
  return pool;
}

/// The connected 4-vertex shapes with a cycle, all vertices label 0: paw,
/// cycle, diamond, clique. The path and the star are left out: their
/// counts grow with the largest hub degree, which varies widely between
/// seeds, while these four cost about the same on every seeded graph.
///
/// Each is written exactly as FormatPattern prints it. The dist supervisor
/// ships FormatPattern(query) to its workers, which parse it again; a query
/// whose numbering does not survive that round trip gets wrong totals
/// there (see perfbench/README.md).
std::vector<Graph> CyclicFourVertexShapes() {
  const char* kShapes[] = {
      "(v0)-(v1); (v0)-(v2); (v0)-(v3); (v1)-(v2)",
      "(v0)-(v1); (v0)-(v2); (v1)-(v3); (v2)-(v3)",
      "(v0)-(v1); (v0)-(v2); (v0)-(v3); (v1)-(v3); (v2)-(v3)",
      "(v0)-(v1); (v0)-(v2); (v0)-(v3); (v1)-(v2); (v1)-(v3); (v2)-(v3)"};
  std::vector<Graph> shapes;
  for (const char* s : kShapes) {
    auto parsed = ParsePattern(s);
    CECI_CHECK(parsed.ok() && FormatPattern(*parsed) == s);
    shapes.push_back(std::move(parsed).value());
  }
  return shapes;
}

/// Replay order over a pool of `n` queries: whole seeded permutations, at
/// least `ops` operations, so every query runs equally often.
std::vector<std::size_t> ReplayOrder(std::size_t n, std::size_t ops,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> order;
  std::vector<std::size_t> round(n);
  while (order.size() < ops) {
    for (std::size_t k = 0; k < n; ++k) round[k] = k;
    std::shuffle(round.begin(), round.end(), rng);
    order.insert(order.end(), round.begin(), round.end());
  }
  return order;
}

/// Checks that every run of one query returns the count of its first.
class CountLedger {
 public:
  explicit CountLedger(std::size_t n) : counts_(n), runs_(n, 0) {}

  void Record(std::size_t k, std::uint64_t got, RunReport* report) {
    ++runs_[k];
    if (!counts_[k].has_value()) counts_[k] = got;
    if (*counts_[k] != got) {
      report->Fail(1, "replay count changed: " + std::to_string(*counts_[k]) +
                          " then " + std::to_string(got));
    }
  }

  const std::optional<std::uint64_t>& count(std::size_t k) const {
    return counts_[k];
  }
  std::uint64_t runs(std::size_t k) const { return runs_[k]; }

 private:
  std::vector<std::optional<std::uint64_t>> counts_;
  std::vector<std::uint64_t> runs_;
};

// ---------------------------------------------------------------------
// adhoc-labeled: CeciMatcher::Match on fresh queries.

/// Sums of the pipeline run through the public stage functions, in the
/// order CeciMatcher::Match calls them.
struct StageTotals {
  double preprocess_ms = 0, build_ms = 0, refine_ms = 0, freeze_flat_ms = 0,
         enumerate_ms = 0, enumerate_cpu_ms = 0;
  std::uint64_t neighbors_scanned = 0, candidate_edges_unrefined = 0,
                pruned_edges = 0, arena_bytes = 0, recursive_calls = 0,
                elements_in = 0, elements_out = 0;
};

/// Runs the pipeline stage by stage; returns the embedding count.
std::uint64_t StagedMatch(const Graph& data, const NlcIndex& nlc,
                          const Graph& query, const MatchOptions& options,
                          StageTotals* totals) {
  auto start = Clock::now();
  auto pre = Preprocess(data, nlc, query, PreprocessOptions{});
  if (!pre.ok()) return 0;
  SymmetryConstraints symmetry = SymmetryConstraints::Compute(query);
  totals->preprocess_ms += MsSince(start);
  if (pre->infeasible) return 0;

  start = Clock::now();
  std::unique_ptr<ThreadPool> pool;
  if (options.threads > 1) {
    pool = std::make_unique<ThreadPool>(options.threads);
  }
  BuildOptions build_options;
  build_options.pool = pool.get();
  BuildStats build_stats;
  CeciIndex index = CeciBuilder(data, nlc).Build(query, pre->tree,
                                                 build_options, &build_stats);
  totals->build_ms += MsSince(start);
  totals->neighbors_scanned += build_stats.neighbors_scanned;
  totals->candidate_edges_unrefined += index.TotalCandidateEdges();

  // Timed as MatchStats::refine_seconds is: refinement plus the CSR freeze.
  start = Clock::now();
  RefineStats refine_stats;
  RefineCeci(pre->tree, data.num_vertices(), &index, &refine_stats);
  index.Freeze();
  totals->refine_ms += MsSince(start);
  totals->pruned_edges += refine_stats.pruned_edges;

  start = Clock::now();
  FlatCeciIndex flat = FlatCeciIndex::Build(index, pre->tree);
  totals->freeze_flat_ms += MsSince(start);
  totals->arena_bytes += flat.ArenaBytes();

  start = Clock::now();
  ScheduleOptions schedule;
  schedule.threads = options.threads;
  schedule.limit = options.limit;
  schedule.enumeration.symmetry = &symmetry;
  ScheduleResult sched = RunParallelEnumeration(data, pre->tree,
                                                IndexView(flat), schedule,
                                                nullptr);
  totals->enumerate_ms += MsSince(start);
  totals->enumerate_cpu_ms += sched.TotalWork() * 1e3;
  totals->recursive_calls += sched.stats.recursive_calls;
  totals->elements_in += sched.stats.intersection_elements_in;
  totals->elements_out += sched.stats.intersection_elements_out;
  return sched.embeddings;
}

void WriteStageTotals(JsonWriter* w, const StageTotals& t) {
  w->KV("preprocess_ms", t.preprocess_ms);
  w->KV("build_ms", t.build_ms);
  w->KV("refine_ms", t.refine_ms);
  w->KV("freeze_flat_ms", t.freeze_flat_ms);
  w->KV("enumerate_ms", t.enumerate_ms);
  w->KV("enumerate_cpu_ms", t.enumerate_cpu_ms);
  w->KV("neighbors_scanned", t.neighbors_scanned);
  w->KV("candidate_edges_unrefined", t.candidate_edges_unrefined);
  w->KV("pruned_edges", t.pruned_edges);
  w->KV("arena_bytes", t.arena_bytes);
  w->KV("recursive_calls", t.recursive_calls);
  w->KV("elements_in", t.elements_in);
  w->KV("elements_out", t.elements_out);
}

/// One graph's distinct queries and the count each returned.
struct AdhocGraph {
  std::vector<Graph> pool;
  CountLedger ledger{0};
};

/// Checks every graph's counts against Vf2Count under `limit`. The graphs
/// are loaded again, all at once, so the slowest check of one graph
/// overlaps the others' on four threads.
Status CheckAgainstVf2(const Args& args,
                       const std::vector<AdhocGraph>& graphs,
                       RunReport* report) {
  std::vector<std::unique_ptr<Graph>> data;
  std::vector<std::pair<std::size_t, std::size_t>> work;  // (graph, query)
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    auto loaded = ReadLabeledGraph(args.data[g]);
    if (!loaded.ok()) return loaded.status();
    data.push_back(std::make_unique<Graph>(std::move(loaded).value()));
    for (std::size_t k = 0; k < graphs[g].pool.size(); ++k) {
      if (graphs[g].ledger.count(k).has_value()) work.emplace_back(g, k);
    }
  }
  Vf2Options vf2;
  vf2.limit = args.limit;
  std::vector<std::uint64_t> oracle(work.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < work.size();) {
        const auto [g, k] = work[i];
        oracle[i] = Vf2Count(*data[g], graphs[g].pool[k], vf2).embeddings;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < work.size(); ++i) {
    const auto [g, k] = work[i];
    const CountLedger& ledger = graphs[g].ledger;
    if (oracle[i] != *ledger.count(k)) {
      report->Fail(ledger.runs(k), "count differs from VF2 for " +
                                       FormatPattern(graphs[g].pool[k]));
    }
  }
  return Status::Ok();
}

Status RunAdhoc(const Args& args, RunReport* report, JsonWriter* trace) {
  MatchOptions options;
  options.threads = args.threads;
  options.limit = args.limit;
  StageTotals stages;
  // Traced runs: the Match walls' sum, and each staged replay's wall.
  double match_ms = 0;
  std::vector<GraphRun> staged_runs(args.data.size());
  std::vector<AdhocGraph> graphs(args.data.size());
  for (std::size_t g = 0; g < args.data.size(); ++g) {
    auto loaded = LoadTimed(args.data[g], report);
    if (!loaded.ok()) return loaded.status();
    report->setup_s.push_back(report->load_s.back() + report->nlc_s.back());
    const Graph& data = *loaded->graph;
    const CeciMatcher& matcher = *loaded->matcher;
    std::vector<Graph>& pool = graphs[g].pool;
    pool = QueryPool(data, args, GraphSeed(args, g));
    if (pool.size() < args.pool) {
      return Status::InvalidArgument("could only extract " +
                                     std::to_string(pool.size()) +
                                     " queries");
    }

    CountLedger& ledger = graphs[g].ledger = CountLedger(pool.size());
    const std::vector<std::size_t> order =
        ReplayOrder(pool.size(), OpsOnGraph(args, g), GraphSeed(args, g));
    GraphRun& run = report->graphs.emplace_back();
    const auto loop_start = Clock::now();
    for (std::size_t k : order) {
      ++report->attempted;
      auto start = Clock::now();
      auto result = matcher.Match(pool[k], options);
      const double ms = MsSince(start);
      run.Add(ms, k);
      if (!result.ok()) {
        report->Fail(1, result.status().ToString());
        continue;
      }
      ledger.Record(k, result->embedding_count, report);
      if (!args.trace) continue;
      // Traced: the same query again through the stage functions.
      match_ms += ms;
      start = Clock::now();
      const std::uint64_t staged =
          StagedMatch(data, matcher.nlc_index(), pool[k], options, &stages);
      staged_runs[g].Add(MsSince(start), k);
      if (staged != result->embedding_count) {
        report->Fail(1, "staged pipeline count differs from Match");
      }
    }
    run.elapsed_s = SecondsSince(loop_start);
    // Free the graph and hand its heap back to the OS, so leftovers of one
    // graph do not pile up under the next and the lifetime peak below is
    // that of the largest single graph.
    loaded->matcher.reset();
    loaded->graph.reset();
    ::malloc_trim(0);
  }
  // VmHWM is a lifetime peak: read it once, before the oracle runs.
  report->peak_rss_kb = PeakRssKb(::getpid());
  // The oracle: each distinct query once, after every timed loop.
  CECI_RETURN_IF_ERROR(CheckAgainstVf2(args, graphs, report));
  if (trace != nullptr) {
    std::uint64_t queries = 0;
    for (const GraphRun& run : staged_runs) queries += run.latency_ms.size();
    trace->KV("queries", queries);
    trace->KV("match_ms", match_ms);
    WriteGraphRuns(trace, "staged", staged_runs);
    WriteStageTotals(trace, stages);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------
// dist-batch: dist::RunDistributed per query over real worker processes.

Status RunDist(const Args& args, RunReport* report, JsonWriter* trace) {
  const std::vector<Graph> shapes = CyclicFourVertexShapes();
  dist::DistProcessOptions options;
  options.num_workers = args.workers;
  options.worker_binary = args.bin_dir + "/ceci_worker";
  options.scratch_dir = args.work_dir;
  double wall_ms = 0, preprocess_ms = 0, build_max_ms = 0, enum_max_ms = 0,
         enum_mean_ms = 0;
  std::uint64_t traced = 0, bytes_to_workers = 0;
  std::vector<CountLedger> ledgers;

  for (std::size_t g = 0; g < args.data.size(); ++g) {
    auto loaded = LoadTimed(args.data[g], report);
    if (!loaded.ok()) return loaded.status();
    report->setup_s.push_back(report->load_s.back() + report->nlc_s.back());
    const Graph& data = *loaded->graph;

    CountLedger& ledger = ledgers.emplace_back(shapes.size());
    const std::vector<std::size_t> order =
        ReplayOrder(shapes.size(), OpsOnGraph(args, g), GraphSeed(args, g));
    GraphRun& graph_run = report->graphs.emplace_back();
    const auto loop_start = Clock::now();
    for (std::size_t k : order) {
      ++report->attempted;
      const auto start = Clock::now();
      auto run = dist::RunDistributed(data, shapes[k], options);
      const double ms = MsSince(start);
      graph_run.Add(ms, k);
      if (!run.ok()) {
        report->Fail(1, run.status().ToString());
        continue;
      }
      if (!run->audit_ok) report->Fail(1, "audit: " + run->audit_summary);
      ledger.Record(k, run->embeddings, report);
      if (!args.trace) continue;
      // Traced: read the report's phase split.
      ++traced;
      wall_ms += ms;
      preprocess_ms += run->preprocess_seconds * 1e3;
      build_max_ms += run->build_seconds * 1e3;
      double max_enum = 0, sum_enum = 0;
      for (const dist::WorkerReport& wr : run->workers) {
        max_enum = std::max(max_enum, wr.enum_seconds * 1e3);
        sum_enum += wr.enum_seconds * 1e3;
        bytes_to_workers += wr.bytes_to_worker;
      }
      enum_max_ms += max_enum;
      if (!run->workers.empty()) {
        enum_mean_ms += sum_enum / static_cast<double>(run->workers.size());
      }
    }
    graph_run.elapsed_s = SecondsSince(loop_start);
  }
  // VmHWM is a lifetime peak: read it once, before the checks run.
  report->peak_rss_kb = PeakRssKb(::getpid());

  // Totals must equal the in-process pipeline on the whole graph.
  MatchOptions in_process;
  in_process.threads = 2;
  for (std::size_t g = 0; g < args.data.size(); ++g) {
    auto loaded = ReadLabeledGraph(args.data[g]);
    if (!loaded.ok()) return loaded.status();
    const CeciMatcher matcher(*loaded);
    const CountLedger& ledger = ledgers[g];
    for (std::size_t k = 0; k < shapes.size(); ++k) {
      if (!ledger.count(k).has_value()) continue;
      auto expected = matcher.Match(shapes[k], in_process);
      if (!expected.ok() || expected->embedding_count != *ledger.count(k)) {
        report->Fail(ledger.runs(k),
                     "dist total " + std::to_string(*ledger.count(k)) +
                         " differs from CeciMatcher for " +
                         FormatPattern(shapes[k]));
      }
    }
  }
  if (trace != nullptr) {
    trace->KV("queries", traced);
    trace->KV("wall_ms", wall_ms);
    trace->KV("preprocess_ms", preprocess_ms);
    trace->KV("partition_build_max_ms", build_max_ms);
    trace->KV("worker_enum_max_ms", enum_max_ms);
    trace->KV("worker_enum_mean_ms", enum_mean_ms);
    trace->KV("bytes_to_workers", bytes_to_workers);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------
// dashboard-serve: ceci_serve on loopback, driven by this process.

/// A ceci_serve child with its stdout on a pipe (the port banners).
/// Stopping sends SIGTERM and waits, SIGKILL after a grace period.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  Status Start(const std::string& binary, std::vector<std::string> argv) {
    int fds[2];
    if (::pipe(fds) != 0) return Status::IoError("pipe");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    argv.insert(argv.begin(), binary);
    std::vector<char*> cargv;
    for (std::string& a : argv) cargv.push_back(a.data());
    cargv.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                 cargv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      return Status::IoError("spawn " + binary + ": " + std::strerror(rc));
    }
    // Both banners, within a generous start-up deadline.
    const auto start = Clock::now();
    std::string buffer;
    while (port_ == 0 || telemetry_port_ == 0) {
      const double left_ms = 60000.0 - MsSince(start);
      pollfd p{out_fd_, POLLIN, 0};
      if (left_ms <= 0 || ::poll(&p, 1, static_cast<int>(left_ms)) <= 0) {
        return Status::IoError("ceci_serve did not report its ports");
      }
      char chunk[512];
      const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) return Status::IoError("ceci_serve exited during start-up");
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t nl;
      while ((nl = buffer.find('\n')) != std::string::npos) {
        const std::string line = buffer.substr(0, nl);
        buffer.erase(0, nl + 1);
        const std::size_t colon = line.rfind(':');
        if (colon == std::string::npos) continue;
        const int port = std::atoi(line.c_str() + colon + 1);
        if (line.find("listening on") != std::string::npos) port_ = port;
        if (line.find("telemetry on") != std::string::npos) {
          telemetry_port_ = port;
        }
      }
    }
    return Status::Ok();
  }

  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      const auto start = Clock::now();
      int status = 0;
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (MsSince(start) > 10000) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }
  int telemetry_port() const { return telemetry_port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
  int telemetry_port_ = 0;
};

/// One blocking line-protocol connection to the server.
class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                              sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  /// Sends `request` and reads one reply line.
  bool RoundTrip(const std::string& request, std::string* line) {
    std::size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n = ::send(fd_, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      if (!Receive()) return false;
    }
  }

  /// Everything left until the peer closes (HTTP/1.0 replies).
  std::string ReadAll() {
    while (Receive()) {
    }
    return std::move(buffer_);
  }

 private:
  bool Receive() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

/// Cache hit and miss counters from the server's /varz.
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

Result<CacheCounters> ScrapeCache(int telemetry_port) {
  Connection http(telemetry_port);
  std::string status_line;
  // RoundTrip reads the status line; the rest follows until the close.
  if (!http.ok() ||
      !http.RoundTrip("GET /varz HTTP/1.0\r\n\r\n", &status_line)) {
    return Status::IoError("varz request failed");
  }
  const std::string reply = http.ReadAll();
  const std::size_t body = reply.find("\r\n\r\n");
  auto json = ParseJson(body == std::string::npos ? reply
                                                  : reply.substr(body + 4));
  if (!json.ok()) return json.status();
  const JsonValue* counters = json->Get("counters");
  if (counters == nullptr) return Status::IoError("varz without counters");
  CacheCounters c;
  if (const JsonValue* v = counters->Get("ceci.cache.hits")) c.hits = v->AsUint();
  if (const JsonValue* v = counters->Get("ceci.cache.misses")) {
    c.misses = v->AsUint();
  }
  return c;
}

/// The fixed request sequence of one client connection: shape ranks drawn
/// at Zipf(s) popularity over QG1..QG5.
std::vector<std::size_t> ShapeSequence(const Args& args, std::uint64_t seed,
                                       std::size_t shapes, std::size_t n) {
  const ZipfSampler sampler(shapes, args.zipf);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<std::size_t> seq(n);
  for (std::size_t& s : seq) s = sampler.Sample(uniform(rng));
  return seq;
}

/// What one client connection saw.
struct ClientResult {
  GraphRun run;
  std::vector<double> net_us, queue_us, exec_us;
  std::vector<std::uint64_t> shape_counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;

  void Fail(std::uint64_t n, const std::string& why) {
    if (failed == 0) first_failure = why;
    failed += n;
  }
};

/// Sends `seq` over one connection; every reply must match `expected`.
void RunClient(int port, const std::vector<std::string>& requests,
               const std::vector<std::uint64_t>& expected,
               const std::vector<std::size_t>& seq, bool trace,
               const std::atomic<bool>& go, ClientResult* out) {
  out->shape_counts.assign(requests.size(), 0);
  out->attempted = seq.size();
  Connection conn(port);
  while (!go.load()) std::this_thread::yield();
  std::string line;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const std::size_t s = seq[i];
    ++out->shape_counts[s];
    const auto start = Clock::now();
    if (!conn.ok() || !conn.RoundTrip(requests[s], &line)) {
      out->Fail(seq.size() - i, "connection lost");
      return;
    }
    const double ms = MsSince(start);
    out->run.Add(ms, s);
    auto reply = ParseResponseLine(line);
    if (!reply.ok() || reply->kind != WireResponse::Kind::kOk ||
        reply->embeddings != expected[s]) {
      out->Fail(1, "bad reply for QG" + std::to_string(s + 1) + ": " + line);
      continue;
    }
    if (!trace) continue;
    // Traced: keep the reply's wire phase split.
    out->net_us.push_back(ms * 1e3 - static_cast<double>(reply->total_us));
    out->queue_us.push_back(static_cast<double>(reply->queue_us));
    out->exec_us.push_back(static_cast<double>(reply->exec_us));
  }
}

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

Status RunServe(const Args& args, RunReport* report, JsonWriter* trace) {
  auto patterns = BuildWorkload(nullptr, WorkloadOptions{});
  if (!patterns.ok()) return patterns.status();
  std::vector<std::string> requests;
  std::vector<Graph> shapes;
  for (const std::string& p : *patterns) {
    requests.push_back("MATCHX limit=" + std::to_string(args.limit) + " " + p +
                       "\n");
    auto q = ParsePattern(p);
    if (!q.ok()) return q.status();
    shapes.push_back(std::move(q).value());
  }
  const std::string binary = args.bin_dir + "/ceci_serve";
  std::vector<double> net_us, queue_us, exec_us;
  std::uint64_t hits = 0, misses = 0;
  StageTotals replay;
  std::uint64_t replay_requests = 0;

  for (std::size_t g = 0; g < args.data.size(); ++g) {
    // The oracle and the in-process replay load the file the server loads.
    auto loaded = LoadTimed(args.data[g], report);
    if (!loaded.ok()) return loaded.status();
    Vf2Options vf2;
    vf2.limit = args.limit;
    std::vector<std::uint64_t> expected;
    for (const Graph& q : shapes) {
      expected.push_back(Vf2Count(*loaded->graph, q, vf2).embeddings);
    }

    // Set-up: start, wait for both ports, warm the cache with every shape.
    const auto setup_start = Clock::now();
    ServerProcess server;
    CECI_RETURN_IF_ERROR(server.Start(
        binary, {"--data", args.data[g], "--format", "labeled", "--port", "0",
                 "--telemetry-port", "0", "--pool-threads",
                 std::to_string(args.pool_threads), "--threads-per-query",
                 std::to_string(args.threads), "--max-concurrent",
                 std::to_string(args.max_concurrent)}));
    {
      Connection warm(server.port());
      std::string line;
      for (const std::string& request : requests) {
        if (!warm.ok() || !warm.RoundTrip(request, &line) ||
            line.rfind("OK", 0) != 0) {
          return Status::IoError("warm-up failed: " + line);
        }
      }
    }
    report->setup_s.push_back(SecondsSince(setup_start));
    auto before = ScrapeCache(server.telemetry_port());
    if (!before.ok()) return before.status();

    std::vector<ClientResult> results(args.connections);
    std::vector<std::thread> clients;
    std::atomic<bool> go{false};
    const std::size_t ops = OpsOnGraph(args, g);
    for (std::size_t c = 0; c < args.connections; ++c) {
      const std::size_t n =
          ops / args.connections + (c < ops % args.connections ? 1 : 0);
      clients.emplace_back(
          RunClient, server.port(), std::cref(requests), std::cref(expected),
          ShapeSequence(args, GraphSeed(args, g) * 64 + c, requests.size(), n),
          args.trace, std::cref(go), &results[c]);
    }
    GraphRun& run = report->graphs.emplace_back();
    const auto loop_start = Clock::now();
    go.store(true);
    for (std::thread& t : clients) t.join();
    run.elapsed_s = SecondsSince(loop_start);
    report->peak_rss_kb = std::max(report->peak_rss_kb, PeakRssKb(server.pid()));
    auto after = ScrapeCache(server.telemetry_port());
    server.Stop();
    if (!after.ok()) return after.status();
    hits += after->hits - before->hits;
    misses += after->misses - before->misses;

    std::vector<std::uint64_t> shape_counts(shapes.size(), 0);
    for (const ClientResult& r : results) {
      Append(&run.latency_ms, r.run.latency_ms);
      run.query.insert(run.query.end(), r.run.query.begin(),
                       r.run.query.end());
      Append(&net_us, r.net_us);
      Append(&queue_us, r.queue_us);
      Append(&exec_us, r.exec_us);
      for (std::size_t s = 0; s < shapes.size(); ++s) {
        shape_counts[s] += r.shape_counts[s];
      }
      report->attempted += r.attempted;
      if (r.failed > 0) report->Fail(r.failed, r.first_failure);
    }
    if (!args.trace) continue;

    // Single-threaded in-process replay of the shapes, weighted by how
    // often the clients sent each: enumeration and intersection counts
    // that repeat exactly, and the enumeration CPU per intersected element.
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      MatchOptions one;
      one.threads = 1;
      one.limit = args.limit;
      std::vector<double> cpu_ms;
      MatchStats stats;
      for (int rep = 0; rep < 5; ++rep) {
        auto r = loaded->matcher->Match(shapes[s], one);
        if (!r.ok() || r->embedding_count != expected[s]) {
          report->Fail(1, "in-process replay differs for QG" +
                              std::to_string(s + 1));
          break;
        }
        double cpu_s = 0;
        for (double w : r->stats.worker_seconds) cpu_s += w;
        cpu_ms.push_back(cpu_s * 1e3);
        stats = r->stats;
      }
      if (cpu_ms.empty()) continue;
      std::sort(cpu_ms.begin(), cpu_ms.end());
      const std::uint64_t weight = shape_counts[s];
      replay_requests += weight;
      replay.enumerate_cpu_ms += cpu_ms[cpu_ms.size() / 2] * weight;
      replay.recursive_calls += stats.enumeration.recursive_calls * weight;
      replay.elements_in += stats.enumeration.intersection_elements_in * weight;
      replay.elements_out +=
          stats.enumeration.intersection_elements_out * weight;
    }
  }
  if (trace != nullptr) {
    WriteDoubles(trace, "net_us", net_us);
    WriteDoubles(trace, "queue_us", queue_us);
    WriteDoubles(trace, "exec_us", exec_us);
    trace->KV("cache_hits", hits);
    trace->KV("cache_misses", misses);
    trace->KV("replay_requests", replay_requests);
    trace->KV("enumerate_cpu_ms", replay.enumerate_cpu_ms);
    trace->KV("recursive_calls", replay.recursive_calls);
    trace->KV("elements_in", replay.elements_in);
    trace->KV("elements_out", replay.elements_out);
  }
  return Status::Ok();
}

void PrintReport(const Args& args, const RunReport& report,
                 JsonWriter* trace) {
  JsonWriter w;
  w.BeginObject();
  w.KV("workload", args.workload);
  w.KV("seed", args.seed);
  WriteDoubles(&w, "setup_s", report.setup_s);
  WriteDoubles(&w, "load_s", report.load_s);
  WriteDoubles(&w, "nlc_s", report.nlc_s);
  WriteGraphRuns(&w, "graphs", report.graphs);
  w.KV("attempted", report.attempted);
  w.KV("failed", report.failed);
  w.Key("errors");
  w.BeginArray();
  for (const std::string& e : report.errors) w.String(e);
  w.EndArray();
  w.KV("peak_rss_kb", report.peak_rss_kb);
  std::string json = std::move(w).Take();
  if (trace != nullptr) {
    // The trace block is its own writer, opened before the workload ran.
    trace->EndObject();
    json += ",\"trace\":" + trace->str();
  }
  std::printf("%s}\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ceci_perfbench gen --seed S --n N --attach K "
                 "--labels L --out PATH\n"
                 "       ceci_perfbench run --workload W --seed S --data PATH"
                 "... --ops N [--trace] ...\n");
    return 2;
  }
  if (args.mode == "gen") return Gen(args);

  RunReport report;
  JsonWriter trace;
  JsonWriter* trace_out = args.trace ? &trace : nullptr;
  if (trace_out != nullptr) trace.BeginObject();
  // ParseArgs accepts only the three workloads of kRequiredFlags.
  const Status st = args.workload == "adhoc-labeled"
                        ? RunAdhoc(args, &report, trace_out)
                    : args.workload == "dashboard-serve"
                        ? RunServe(args, &report, trace_out)
                        : RunDist(args, &report, trace_out);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  PrintReport(args, report, trace_out);
  return 0;
}
