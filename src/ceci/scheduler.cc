#include "ceci/scheduler.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <string>

#include "util/check.h"
#include "util/intersection.h"
#include "util/logging.h"
#include "util/timer.h"
#include "util/trace.h"

namespace ceci {

std::string DistributionName(Distribution d) {
  switch (d) {
    case Distribution::kStatic:
      return "ST";
    case Distribution::kCoarseDynamic:
      return "CGD";
    case Distribution::kFineDynamic:
      return "FGD";
  }
  return "?";
}

ScheduleResult RunParallelEnumeration(const Graph& data, const QueryTree& tree,
                                      const FlatCeciIndex& index,
                                      const ScheduleOptions& options,
                                      const EmbeddingVisitor* visitor) {
  const std::vector<std::uint32_t> root_order = RootOrder(index, tree.root());
  return RunParallelEnumeration(data, tree, index, root_order, options,
                                visitor);
}

ScheduleResult RunParallelEnumeration(const Graph& data, const QueryTree& tree,
                                      const FlatCeciIndex& index,
                                      std::span<const std::uint32_t> root_order,
                                      const ScheduleOptions& options,
                                      const EmbeddingVisitor* visitor) {
  CECI_CHECK(options.threads >= 1);
  CECI_DCHECK(root_order.empty() ||
              *std::max_element(root_order.begin(), root_order.end()) <
                  index.candidates(tree.root()).size())
      << "root order rank past the root's candidates";
  Timer wall;
  ScheduleResult result;
  const std::span<const Cardinality> root_cards =
      index.cardinalities(tree.root());

  // ST and CGD enumerate whole clusters, one root rank each, so their pool
  // is the root order itself. FGD cuts its pool per call, since the
  // extreme-cluster threshold depends on the worker count and β.
  const bool fine = options.distribution == Distribution::kFineDynamic;
  std::vector<WorkUnit> units;
  if (fine) {
    TraceSpan span("enumerate/decompose");
    units = DecomposeRootOrder(data, tree, index, options.enumeration,
                               root_order, options.threads, options.beta,
                               &result.decomposition);
    // Every work unit must carry a non-empty prefix rooted at a pivot; an
    // empty prefix would make EnumerateFromPrefix re-enumerate everything.
    for (const WorkUnit& unit : units) {
      CECI_DCHECK(!unit.prefix.empty());
      CECI_DCHECK_LE(unit.prefix.size(), tree.num_vertices());
    }
  } else {
    result.decomposition.threshold = kCardinalityCap;
    result.decomposition.work_units = root_order.size();
  }
  const std::size_t pool_size = fine ? units.size() : root_order.size();

  const std::size_t workers = std::min(options.threads,
                                       std::max<std::size_t>(pool_size, 1));
  std::atomic<std::uint64_t> emitted{0};
  std::atomic<bool> aborted{false};  // a visitor returned false
  const std::uint64_t limit = options.limit == 0
                                  ? std::numeric_limits<std::uint64_t>::max()
                                  : options.limit;

  // The decomposed unit pool is enumeration state too: a hub-heavy FGD
  // decomposition can dwarf the index, so charge it before spawning
  // workers and bail out with an honest zero if that already trips.
  if (options.budget != nullptr) {
    std::size_t unit_bytes = units.capacity() * sizeof(WorkUnit);
    for (const WorkUnit& unit : units) {
      unit_bytes += unit.prefix.capacity() * sizeof(VertexId);
    }
    options.budget->ChargeBytes(unit_bytes);
    options.budget->Poll();
    if (options.budget->Exhausted()) {
      result.seconds = wall.Seconds();
      return result;
    }
  }

  std::vector<EnumStats> worker_stats(workers);
  result.worker_seconds.assign(workers, 0.0);
  result.worker_units.assign(workers, 0);
  std::atomic<std::size_t> next_unit{0};

  if (options.collect_profile) {
    // Cluster skew over pivot cardinalities (before decomposition), unit
    // skew over the work units actually scheduled (after). Read-only walks
    // over structures already built — nothing here touches the hot path.
    result.cluster_skew = SkewSummary::Of(root_cards);
    std::vector<Cardinality> unit_cards;
    unit_cards.reserve(pool_size);
    if (fine) {
      for (const WorkUnit& unit : units) unit_cards.push_back(unit.cardinality);
    } else {
      for (std::uint32_t r : root_order) unit_cards.push_back(root_cards[r]);
    }
    result.unit_skew = SkewSummary::Of(unit_cards);
  }

  auto worker_fn = [&](std::size_t wid) {
    // The lane outlives the span: spans close while the lane is pinned, so
    // worker timelines group by logical worker id in Chrome-trace export
    // (lane 0 is the main thread; workers start at 1).
    TraceLane lane(static_cast<std::uint32_t>(wid) + 1);
    TraceSpan worker_span(
        [&] { return "enumerate/worker" + std::to_string(wid); });
    const double cpu_start = ThreadCpuSeconds();
    Enumerator enumerator(data, tree, index, options.enumeration);
    enumerator.SetSharedLimit(&emitted, limit);
    enumerator.SetAbortFlag(&aborted);
    if (options.budget != nullptr) {
      enumerator.SetBudget(options.budget);
      options.budget->ChargeBytes(enumerator.StateBytes());
    }
    // Counted here and stored once: neighbouring workers' slots share a
    // cache line.
    std::uint64_t units_run = 0;
    auto should_stop = [&] {
      return aborted.load(std::memory_order_relaxed) ||
             emitted.load(std::memory_order_relaxed) >= limit ||
             (options.budget != nullptr && options.budget->Exhausted());
    };
    if (options.distribution == Distribution::kStatic) {
      // Round-robin static assignment of the live roots in pivot order;
      // no re-adjustment (§4.2).
      std::size_t live = 0;
      for (std::uint32_t r = 0; r < root_cards.size(); ++r) {
        if (root_cards[r] == 0 || live++ % workers != wid) continue;
        ++units_run;
        enumerator.EnumerateFromRanks(std::span<const std::uint32_t>(&r, 1),
                                      visitor);
        if (should_stop()) break;
      }
    } else {
      // Pull-based dynamic distribution (CGD/FGD).
      for (;;) {
        const std::size_t i =
            next_unit.fetch_add(1, std::memory_order_relaxed);
        if (i >= pool_size) break;
        ++units_run;
        if (fine) {
          enumerator.EnumerateFromPrefix(units[i].prefix, visitor);
        } else {
          enumerator.EnumerateFromRanks(root_order.subspan(i, 1), visitor);
        }
        if (should_stop()) break;
      }
    }
    result.worker_units[wid] = units_run;
    worker_stats[wid] = enumerator.stats();
    // Pool threads outlive the query: hand their batched kernel counters
    // to the registry now rather than at thread exit. Worker 0 is the calling
    // thread, whose batch its caller flushes (CeciMatcher::Execute does).
    if (wid != 0) FlushIntersectionThreadStats();
    result.worker_seconds[wid] = ThreadCpuSeconds() - cpu_start;
  };

  if (workers == 1) {
    worker_fn(0);
  } else {
    // Workers 1..N-1 go to the pool as one batch; the caller runs worker
    // 0 and then helps drain its own batch, so a shared pool saturated by
    // other queries cannot stall this one. Without a pool, a local one
    // holds the helpers.
    std::optional<ThreadPool> local_pool;
    ThreadPool* pool = options.pool != nullptr
                           ? options.pool
                           : &local_pool.emplace(workers - 1);
    TaskGroup group(pool);
    for (std::size_t w = 1; w < workers; ++w) {
      group.Run([&worker_fn, w] { worker_fn(w); });
    }
    worker_fn(0);
    group.Wait();
  }

  result.worker_embeddings.reserve(workers);
  for (const EnumStats& s : worker_stats) {
    result.stats += s;
    result.worker_embeddings.push_back(s.embeddings);
  }
  result.embeddings = result.stats.embeddings;
  result.visitor_abort = aborted.load(std::memory_order_relaxed);
  result.limit_hit = options.limit > 0 &&
                     emitted.load(std::memory_order_relaxed) >= options.limit;
  result.seconds = wall.Seconds();
  return result;
}

}  // namespace ceci
