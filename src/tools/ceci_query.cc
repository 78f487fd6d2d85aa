// ceci_query — command-line subgraph matcher.
//
// Loads a data graph (edge list, labeled v/e format, or binary CSR), takes
// a query as a pattern expression or a labeled-graph file, and runs the
// CECI pipeline, printing counts and per-phase statistics.
//
//   ceci_query --data graph.txt --pattern "(a:0)-(b:1)-(c:2); (a)-(c)"
//   ceci_query --data graph.bin --format csr --query query.txt
//              --threads 8 --limit 1024 --print
//
// Flags:
//   --data PATH       data graph file (required)
//   --format FMT      edgelist | labeled | csr         (default: edgelist)
//   --pattern EXPR    query as a pattern expression
//   --query PATH      query as a labeled-graph file (alternative)
//   --threads N       worker threads                   (default: 1)
//   --limit N         stop after N embeddings, 0 = all (default: 0)
//   --order NAME      bfs | edge-ranked | path-ranked  (default: edge-ranked)
//   --distribution D  st | cgd | fgd                   (default: cgd)
//   --beta F          extreme-cluster threshold factor (default: 0.2)
//   --no-symmetry     list automorphic duplicates
//   --print           print each embedding
//   --stats           print detailed statistics
//   --trace           record phase spans; print the span tree afterwards
//   --explain         print the per-query EXPLAIN report: per-vertex
//                     candidate counts through each pipeline stage,
//                     measured index bytes, cluster/work-unit skew, and
//                     worker occupancy (implies profiling)
//   --trace-chrome P  record phase spans and write them to P as Chrome
//                     trace-event JSON (load in Perfetto / about:tracing)
//   --metrics-json P  write the full metrics report (JSON) to P, "-" for
//                     stdout; schema in docs/observability.md. Includes
//                     the "profile" block (profiling is enabled)
//   --audit           run the invariant auditor over the data graph, the
//                     query graph, the frozen CECI, the work-unit
//                     partition, and the final result's
//                     termination accounting; exit 3 on violations
//                     (catalog in docs/static_analysis.md)
//   --deadline-ms N   wall-clock deadline; the query stops cooperatively
//                     and reports "termination: deadline" (exit 4)
//   --memory-budget-mb F
//                     cap on filter table + CECI index + enumeration
//                     state bytes; on exhaustion reports
//                     "termination: memory_budget" (exit 4)
//   --cancel-after N  request cancellation after N embeddings have been
//                     seen (exercises the cooperative cancellation token;
//                     reports "termination: cancelled", exit 0)
//   --save-index P    write the frozen flat index (plus the pattern text)
//                     to P in the index_io format; serve it later with
//                     `ceci_serve --index P`. The query is renumbered as
//                     that text parses (first appearance), which --print's
//                     u-ids then follow
//   --dist N          run the query across N real ceci_worker processes
//                     (dist/supervisor.h) instead of in-process threads;
//                     prints per-worker and recovery accounting
//   --failure-plan P  JSON FailurePlan (dist/plan_io.h) injecting real
//                     kill -9 crashes and stragglers into the --dist run —
//                     the chaos harness; totals must still be exact
//   --worker-binary P path to ceci_worker (default: next to this binary)
//   --dist-json P     write the DistRunReport JSON to P, "-" for stdout
//   --no-work-stealing
//                     disable idle-worker re-dispatch in the --dist run
//   --help            print usage to stdout and exit 0
//
// Exit codes:
//   0  query ran to completion (or was cancelled / hit --limit)
//   1  I/O or match error
//   2  usage error
//   3  --audit found invariant violations
//   4  deadline or memory budget exhausted
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "analysis/invariant_auditor.h"
#include "ceci/index_io.h"
#include "ceci/matcher.h"
#include "ceci/stats_json.h"
#include "dist/plan_io.h"
#include "dist/supervisor.h"
#include "graphio/binary_csr.h"
#include "graphio/edge_list.h"
#include "graphio/pattern_parser.h"
#include "util/trace.h"

namespace {

using namespace ceci;

struct Args {
  std::string data;
  std::string format = "edgelist";
  std::string pattern;
  std::string query_file;
  std::size_t threads = 1;
  std::uint64_t limit = 0;
  std::string order;  // empty: the library default (MatchOptions::order)
  std::string distribution = "cgd";
  double beta = 0.2;
  bool symmetry = true;
  bool print = false;
  bool stats = false;
  bool trace = false;
  bool explain = false;
  bool audit = false;
  double deadline_ms = 0.0;
  double memory_budget_mb = 0.0;
  std::uint64_t cancel_after = 0;
  std::string metrics_json;
  std::string trace_chrome;
  std::string save_index;
  std::size_t dist_workers = 0;
  std::string failure_plan;
  std::string worker_binary;
  std::string dist_json;
  bool work_stealing = true;
  double heartbeat_ms = 0.0;
  bool help = false;
};

void Usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s --data PATH [--format edgelist|labeled|csr]\n"
               "          (--pattern EXPR | --query PATH)\n"
               "          [--threads N] [--limit N] [--order NAME]\n"
               "          [--distribution st|cgd|fgd] [--beta F]\n"
               "          [--no-symmetry] [--print] [--stats] [--trace]\n"
               "          [--explain] [--trace-chrome PATH]\n"
               "          [--metrics-json PATH|-] [--audit]\n"
               "          [--deadline-ms N] [--memory-budget-mb F]\n"
               "          [--cancel-after N] [--save-index PATH]\n"
               "          [--dist N] [--failure-plan PATH]\n"
               "          [--worker-binary PATH] [--dist-json PATH|-]\n"
               "          [--no-work-stealing] [--heartbeat-ms MS] [--help]\n"
               "exit codes: 0 ok (completed/cancelled/limit), 1 I/O or "
               "match error,\n"
               "            2 usage, 3 audit violations, 4 deadline or "
               "memory budget\n"
               "            exhausted\n",
               argv0);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (flag == "--help") {
      args->help = true;
      return true;
    } else if (flag == "--data") {
      const char* v = next();
      if (!v) return false;
      args->data = v;
    } else if (flag == "--format") {
      const char* v = next();
      if (!v) return false;
      args->format = v;
    } else if (flag == "--pattern") {
      const char* v = next();
      if (!v) return false;
      args->pattern = v;
    } else if (flag == "--query") {
      const char* v = next();
      if (!v) return false;
      args->query_file = v;
    } else if (flag == "--threads") {
      const char* v = next();
      if (!v) return false;
      args->threads = std::strtoul(v, nullptr, 10);
    } else if (flag == "--limit") {
      const char* v = next();
      if (!v) return false;
      args->limit = std::strtoull(v, nullptr, 10);
    } else if (flag == "--order") {
      const char* v = next();
      if (!v) return false;
      args->order = v;
    } else if (flag == "--distribution") {
      const char* v = next();
      if (!v) return false;
      args->distribution = v;
    } else if (flag == "--beta") {
      const char* v = next();
      if (!v) return false;
      args->beta = std::strtod(v, nullptr);
    } else if (flag == "--no-symmetry") {
      args->symmetry = false;
    } else if (flag == "--print") {
      args->print = true;
    } else if (flag == "--stats") {
      args->stats = true;
    } else if (flag == "--trace") {
      args->trace = true;
    } else if (flag == "--explain") {
      args->explain = true;
    } else if (flag == "--trace-chrome") {
      const char* v = next();
      if (!v) return false;
      args->trace_chrome = v;
    } else if (flag.rfind("--trace-chrome=", 0) == 0) {
      args->trace_chrome = flag.substr(std::strlen("--trace-chrome="));
      if (args->trace_chrome.empty()) return false;
    } else if (flag == "--audit") {
      args->audit = true;
    } else if (flag == "--deadline-ms") {
      const char* v = next();
      if (!v) return false;
      args->deadline_ms = std::strtod(v, nullptr);
      if (args->deadline_ms <= 0.0) return false;
    } else if (flag == "--memory-budget-mb") {
      const char* v = next();
      if (!v) return false;
      args->memory_budget_mb = std::strtod(v, nullptr);
      if (args->memory_budget_mb <= 0.0) return false;
    } else if (flag == "--cancel-after") {
      const char* v = next();
      if (!v) return false;
      args->cancel_after = std::strtoull(v, nullptr, 10);
      if (args->cancel_after == 0) return false;
    } else if (flag == "--save-index") {
      const char* v = next();
      if (!v) return false;
      args->save_index = v;
    } else if (flag == "--dist") {
      const char* v = next();
      if (!v) return false;
      args->dist_workers = std::strtoul(v, nullptr, 10);
      if (args->dist_workers == 0) return false;
    } else if (flag == "--failure-plan") {
      const char* v = next();
      if (!v) return false;
      args->failure_plan = v;
    } else if (flag == "--worker-binary") {
      const char* v = next();
      if (!v) return false;
      args->worker_binary = v;
    } else if (flag == "--dist-json") {
      const char* v = next();
      if (!v) return false;
      args->dist_json = v;
    } else if (flag == "--no-work-stealing") {
      args->work_stealing = false;
    } else if (flag == "--heartbeat-ms") {
      const char* v = next();
      if (!v) return false;
      args->heartbeat_ms = std::strtod(v, nullptr);
      if (args->heartbeat_ms <= 0.0) return false;
    } else if (flag == "--metrics-json") {
      const char* v = next();
      if (!v) return false;
      args->metrics_json = v;
    } else if (flag.rfind("--metrics-json=", 0) == 0) {
      args->metrics_json = flag.substr(std::strlen("--metrics-json="));
      if (args->metrics_json.empty()) return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (args->data.empty()) return false;
  if (args->pattern.empty() == args->query_file.empty()) {
    std::fprintf(stderr, "pass exactly one of --pattern / --query\n");
    return false;
  }
  if (!args->failure_plan.empty() && args->dist_workers == 0) {
    std::fprintf(stderr, "--failure-plan requires --dist N\n");
    return false;
  }
  if (args->dist_workers > 0 &&
      (args->print || !args->save_index.empty() || args->cancel_after > 0 ||
       args->deadline_ms > 0.0 || args->memory_budget_mb > 0.0 ||
       args->limit > 0)) {
    std::fprintf(stderr, "--dist is incompatible with --print, --limit, "
                         "--save-index, and the budget flags\n");
    return false;
  }
  return true;
}

// Default --worker-binary: ceci_worker next to this executable.
std::string SiblingWorkerBinary(const char* argv0) {
  std::string self = argv0;
  const std::size_t slash = self.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : self.substr(0, slash);
  return dir + "/ceci_worker";
}

Result<Graph> LoadData(const Args& args) {
  if (args.format == "edgelist") return ReadEdgeList(args.data);
  if (args.format == "labeled") return ReadLabeledGraph(args.data);
  if (args.format == "csr") return ReadBinaryCsr(args.data);
  return Status::InvalidArgument("unknown --format " + args.format);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage(stderr, argv[0]);
    return 2;
  }
  if (args.help) {
    Usage(stdout, argv[0]);
    return 0;
  }

  auto data = LoadData(args);
  if (!data.ok()) {
    std::fprintf(stderr, "data graph: %s\n", data.status().ToString().c_str());
    return 1;
  }
  auto query = args.pattern.empty() ? ReadLabeledGraph(args.query_file)
                                    : ParsePattern(args.pattern);
  if (!query.ok()) {
    std::fprintf(stderr, "query: %s\n", query.status().ToString().c_str());
    return 1;
  }

  MatchOptions options;
  options.threads = std::max<std::size_t>(args.threads, 1);
  options.limit = args.limit;
  options.beta = args.beta;
  options.break_automorphisms = args.symmetry;
  if (args.order == "bfs") {
    options.order = OrderStrategy::kBfs;
  } else if (args.order == "edge-ranked") {
    options.order = OrderStrategy::kEdgeRanked;
  } else if (args.order == "path-ranked") {
    options.order = OrderStrategy::kPathRanked;
  } else if (!args.order.empty()) {
    std::fprintf(stderr, "unknown --order %s\n", args.order.c_str());
    return 2;
  }
  if (args.distribution == "st") {
    options.distribution = Distribution::kStatic;
  } else if (args.distribution == "cgd") {
    options.distribution = Distribution::kCoarseDynamic;
  } else if (args.distribution == "fgd") {
    options.distribution = Distribution::kFineDynamic;
  } else {
    std::fprintf(stderr, "unknown --distribution %s\n",
                 args.distribution.c_str());
    return 2;
  }

  // An image stores its query as pattern text, and parsing numbers
  // vertices by first appearance, which can differ from this parse. A
  // saved index is built on the parse of that same text (as RunDistributed
  // does), so whoever loads the image reads the ids it was built on.
  const std::string pattern_text = FormatPattern(*query);
  if (!args.save_index.empty()) {
    query = ParsePattern(pattern_text);
    if (!query.ok()) {
      std::fprintf(stderr, "query: %s\n", query.status().ToString().c_str());
      return 1;
    }
  }

  std::printf("data:  %s\n", data->Summary().c_str());
  std::printf("query: %s  (%s)\n", query->Summary().c_str(),
              pattern_text.c_str());

  if (args.dist_workers > 0) {
    dist::DistProcessOptions dist_options;
    dist_options.num_workers = args.dist_workers;
    dist_options.worker_binary = args.worker_binary.empty()
                                     ? SiblingWorkerBinary(argv[0])
                                     : args.worker_binary;
    dist_options.config.beta = args.beta;
    dist_options.config.break_automorphisms = args.symmetry;
    dist_options.config.work_stealing = args.work_stealing;
    if (args.heartbeat_ms > 0.0) {
      dist_options.heartbeat_seconds = args.heartbeat_ms / 1000.0;
    }
    if (!args.failure_plan.empty()) {
      auto plan = dist::ReadFailurePlanJson(args.failure_plan);
      if (!plan.ok()) {
        std::fprintf(stderr, "failure-plan: %s\n",
                     plan.status().ToString().c_str());
        return 1;
      }
      dist_options.config.failure_plan = *plan;
    }
    auto report = dist::RunDistributed(*data, *query, dist_options);
    if (!report.ok()) {
      std::fprintf(stderr, "dist: %s\n", report.status().ToString().c_str());
      return 1;
    }
    std::printf("embeddings: %llu\n",
                static_cast<unsigned long long>(report->embeddings));
    std::printf("dist: %zu workers, %llu units, wall %.3fs "
                "(preprocess %.3f, build %.3f)\n",
                args.dist_workers,
                static_cast<unsigned long long>(report->total_units),
                report->wall_seconds, report->preprocess_seconds,
                report->build_seconds);
    std::printf("recovery: %zu crashed, %llu clusters reassigned, "
                "%llu units redelivered, %llu results discarded, "
                "%llu heartbeat timeouts\n",
                report->crashed_machines,
                static_cast<unsigned long long>(
                    report->total_reassigned_clusters),
                static_cast<unsigned long long>(
                    report->total_redelivered_units),
                static_cast<unsigned long long>(report->discarded_results),
                static_cast<unsigned long long>(report->heartbeat_timeouts));
    for (const auto& w : report->workers) {
      std::printf("  worker %u: pid %lld%s, %zu pivots, %zu units -> "
                  "%llu executed (%llu adopted, %llu stolen), "
                  "%llu embeddings, enum %.3fs\n",
                  w.worker_id, static_cast<long long>(w.pid),
                  w.crashed ? (w.killed_by_plan ? " [killed by plan]"
                                                : " [crashed]")
                            : "",
                  w.pivots, w.initial_units,
                  static_cast<unsigned long long>(w.units_executed),
                  static_cast<unsigned long long>(w.adopted_units),
                  static_cast<unsigned long long>(w.stolen_units),
                  static_cast<unsigned long long>(w.embeddings),
                  w.enum_seconds);
    }
    std::printf("audit: %s\n", report->audit_summary.c_str());
    if (!args.dist_json.empty()) {
      const std::string json = dist::DistRunReportJson(*report);
      if (args.dist_json == "-") {
        std::printf("%s\n", json.c_str());
      } else {
        std::FILE* f = std::fopen(args.dist_json.c_str(), "w");
        if (f == nullptr) {
          std::fprintf(stderr, "dist-json: cannot open %s\n",
                       args.dist_json.c_str());
          return 1;
        }
        std::fprintf(f, "%s\n", json.c_str());
        std::fclose(f);
      }
    }
    return report->audit_ok ? 0 : 3;
  }

  if (args.trace || !args.metrics_json.empty() ||
      !args.trace_chrome.empty()) {
    Tracer::Global().Enable();
  }
  // --explain needs the profile; --metrics-json gains its "profile" block
  // the same way.
  if (args.explain || !args.metrics_json.empty()) {
    options.profile = true;
  }

  // --audit: validate both input graphs up front; the frozen index is
  // audited between the stages below.
  AuditReport audit_report;
  if (args.audit) {
    audit_report.Merge(AuditGraph(*data));
    audit_report.Merge(AuditGraph(*query));
  }

  // Resilience caps: deadline / byte budget / cancellation token, all
  // carried through MatchOptions (util/budget.h).
  CancellationToken cancel_token;
  if (args.deadline_ms > 0.0) {
    options.budget.deadline_seconds = args.deadline_ms / 1000.0;
  }
  if (args.memory_budget_mb > 0.0) {
    options.budget.memory_budget_bytes =
        static_cast<std::size_t>(args.memory_budget_mb * 1024.0 * 1024.0);
  }
  if (args.cancel_after > 0) {
    options.budget.token = &cancel_token;
    // Tighter poll stride: a visitor-driven cancel should land within a
    // few recursive calls, not the default 4096. Tiny queries can still
    // finish before the first poll — then the honest answer is
    // "completed", and both outcomes exit 0.
    options.budget.check_stride = 64;
  }

  CeciMatcher matcher(*data);
  std::atomic<std::uint64_t> seen{0};
  EmbeddingVisitor visitor = [&](std::span<const VertexId> m) {
    if (args.print) {
      std::printf("  {");
      for (std::size_t u = 0; u < m.size(); ++u) {
        std::printf("%su%zu->%u", u == 0 ? "" : ", ", u, m[u]);
      }
      std::printf("}\n");
    }
    if (args.cancel_after > 0 &&
        seen.fetch_add(1, std::memory_order_relaxed) + 1 >=
            args.cancel_after) {
      cancel_token.RequestCancel();
    }
    return true;
  };
  const bool need_visitor = args.print || args.cancel_after > 0;
  // Both stages run under one tracker, so the deadline spans them, and
  // under one "match" span, as in CeciMatcher::Match. Between them the
  // frozen arena is audited (layout and index invariants, the work-unit
  // partition) and saved.
  MatchResult result;
  {
    TraceSpan match_span("match");
    BudgetTracker tracker(options.budget);
    auto prepared = matcher.Prepare(*query, options, &tracker);
    if (!prepared.ok()) {
      std::fprintf(stderr, "match: %s\n",
                   prepared.status().ToString().c_str());
      return 1;
    }
    const bool frozen = prepared->complete() && !prepared->infeasible;
    if (args.audit && frozen) {
      const QueryTree& tree = prepared->tree;
      audit_report.Merge(AuditCeciIndex(*data, *query, tree, prepared->flat));
      EnumOptions enum_options;
      enum_options.nte_intersection = options.nte_intersection;
      enum_options.symmetry = &prepared->symmetry;
      const bool fine = options.distribution == Distribution::kFineDynamic;
      const bool sorted = options.distribution != Distribution::kStatic;
      const std::vector<WorkUnit> units =
          BuildWorkUnits(*data, tree, prepared->flat, enum_options,
                         options.threads, options.beta, fine, sorted, nullptr);
      AuditWorkUnits(*data, tree, prepared->flat, enum_options, units,
                     &audit_report);
    }
    if (!args.save_index.empty()) {
      if (!frozen) {
        std::fprintf(stderr, "save-index: the query terminated before the "
                             "index was frozen (infeasible or budget)\n");
        return 1;
      }
      const Status saved =
          WriteFlatIndex(prepared->flat, prepared->tree, prepared->symmetry,
                         pattern_text, args.save_index);
      if (!saved.ok()) {
        std::fprintf(stderr, "save-index: %s\n", saved.ToString().c_str());
        return 1;
      }
      std::printf("index saved: %s\n", args.save_index.c_str());
    }
    result = matcher.Execute(*prepared, options,
                             need_visitor ? &visitor : nullptr, &tracker);
    if (args.audit && frozen && result.profile.has_value()) {
      AuditQueryProfile(prepared->tree, prepared->flat, *result.profile,
                        &audit_report);
    }
  }
  if (args.audit) {
    AuditMatchResult(result, &audit_report);
  }

  std::printf("embeddings: %llu\n",
              static_cast<unsigned long long>(result.embedding_count));
  std::printf("termination: %s\n",
              TerminationReasonName(result.termination).c_str());
  const MatchStats& s = result.stats;
  std::printf("time: %.3fs (preprocess %.3f, build %.3f, refine %.3f, "
              "freeze %.3f, plan %.3f, enumerate %.3f)\n",
              s.total_seconds, s.preprocess_seconds, s.build_seconds,
              s.refine_seconds, s.freeze_seconds, s.plan_seconds,
              s.enumerate_seconds);
  if (args.stats) {
    std::printf("clusters: %zu  cardinality bound: %llu\n",
                s.embedding_clusters,
                static_cast<unsigned long long>(s.total_cardinality));
    std::printf("index: %zu candidate edges, %zu bytes (theoretical %zu)\n",
                s.candidate_edges, s.ceci_bytes, s.theoretical_bytes);
    std::printf("search: %llu recursive calls, %llu intersections, "
                "%llu edge verifications\n",
                static_cast<unsigned long long>(
                    s.enumeration.recursive_calls),
                static_cast<unsigned long long>(s.enumeration.intersections),
                static_cast<unsigned long long>(
                    s.enumeration.edge_verifications));
    std::printf("intersection volume: %llu elements in, %llu out\n",
                static_cast<unsigned long long>(
                    s.enumeration.intersection_elements_in),
                static_cast<unsigned long long>(
                    s.enumeration.intersection_elements_out));
    std::printf("filters: label %llu, degree %llu, NLC %llu, cascades %llu\n",
                static_cast<unsigned long long>(s.build.rejected_label),
                static_cast<unsigned long long>(s.build.rejected_degree),
                static_cast<unsigned long long>(s.build.rejected_nlc),
                static_cast<unsigned long long>(s.build.cascade_removals));
    std::printf("automorphisms broken: %zu, %s restriction set "
                "(estimates min %llu, max %llu)\n",
                s.automorphisms_broken,
                s.restrictions_mirrored ? "max" : "min",
                static_cast<unsigned long long>(
                    s.restriction_estimate.min_set),
                static_cast<unsigned long long>(
                    s.restriction_estimate.max_set));
  }
  if (args.explain && result.profile.has_value()) {
    std::printf("%s", FormatExplain(*result.profile, s).c_str());
  }
  if (args.audit) {
    std::printf("audit: %s\n", audit_report.ToString().c_str());
  }
  if (args.trace) {
    std::printf("trace:\n%s", Tracer::Global().FormatTree().c_str());
  }
  if (!args.metrics_json.empty()) {
    const std::string json = MetricsReportJson(result);
    if (args.metrics_json == "-") {
      std::printf("%s\n", json.c_str());
    } else {
      std::FILE* f = std::fopen(args.metrics_json.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "metrics-json: cannot open %s\n",
                     args.metrics_json.c_str());
        return 1;
      }
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
    }
  }
  if (!args.trace_chrome.empty()) {
    const std::string json = Tracer::Global().ChromeTraceJson();
    std::FILE* f = std::fopen(args.trace_chrome.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "trace-chrome: cannot open %s\n",
                   args.trace_chrome.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
  }
  if (args.audit && !audit_report.ok()) return 3;
  if (result.termination == TerminationReason::kDeadline ||
      result.termination == TerminationReason::kMemoryBudget) {
    return 4;
  }
  return 0;
}
