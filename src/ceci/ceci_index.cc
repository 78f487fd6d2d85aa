#include "ceci/ceci_index.h"

#include <algorithm>
#include <limits>

#include "util/check.h"
#include "util/logging.h"

namespace ceci {

void RunPool::Append(const RunPool& other) {
  const std::size_t base = pool.size();
  CECI_CHECK(base + other.pool.size() <=
             std::numeric_limits<std::uint32_t>::max())
      << "candidate list pool exceeds 32-bit offsets";
  pool.insert(pool.end(), other.pool.begin(), other.pool.end());
  for (ValueRun run : other.runs) {
    runs.push_back({static_cast<std::uint32_t>(base + run.offset), run.count});
  }
}

std::size_t RunPool::TotalValues() const {
  std::size_t total = 0;
  for (ValueRun run : runs) total += run.count;
  return total;
}

std::span<const VertexId> KeyedRuns::Find(VertexId key) const {
  auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return {};
  return values_at(static_cast<std::size_t>(it - keys.begin()));
}

std::size_t CeciBytes(const CeciVertexData& slice) {
  std::size_t keys = slice.te.num_runs();
  std::size_t values = slice.te.TotalValues();
  for (const KeyedRuns& list : slice.nte) {
    keys += list.num_keys();
    values += list.TotalValues();
  }
  return CeciBytes(keys, values, slice.candidates.size(),
                   /*refined=*/!slice.cardinalities.empty());
}

std::size_t CeciIndex::TotalCandidateEdges() const {
  std::size_t total = 0;
  for (const auto& pv : per_vertex_) {
    total += pv.te.TotalValues();
    for (const auto& list : pv.nte) total += list.TotalValues();
  }
  return total;
}

}  // namespace ceci
