#include "graph/nlc_index.h"

#include <algorithm>

namespace ceci {

template NlcIndex::NlcIndex(const Graph&);

bool NlcIndex::Covers(VertexId v, std::span<const Entry> required) const {
  auto have = entries(v);
  std::size_t i = 0;
  for (const Entry& need : required) {
    while (i < have.size() && have[i].label < need.label) ++i;
    if (i == have.size() || have[i].label != need.label ||
        have[i].count < need.count) {
      return false;
    }
  }
  return true;
}

std::uint64_t NlcIndex::MaskOf(std::span<const Entry> required) {
  std::uint64_t mask = 0;
  for (const Entry& need : required) {
    mask |= std::uint64_t{1} << (need.label % kMaskBits);
  }
  return mask;
}

bool NlcIndex::PresenceDecides(std::span<const Entry> required) const {
  if (num_labels_ > kMaskBits) return false;
  return std::all_of(required.begin(), required.end(), [](const Entry& need) {
    return need.label < kMaskBits && need.count <= 1;
  });
}

std::vector<NlcIndex::Entry> NlcIndex::Profile(const Graph& g, VertexId v) {
  std::vector<Label> seen;
  for (VertexId w : g.neighbors(v)) {
    for (Label l : g.labels(w)) seen.push_back(l);
  }
  std::sort(seen.begin(), seen.end());
  std::vector<Entry> out;
  for (std::size_t i = 0; i < seen.size();) {
    std::size_t j = i;
    while (j < seen.size() && seen[j] == seen[i]) ++j;
    out.push_back(Entry{seen[i], static_cast<std::uint32_t>(j - i)});
    i = j;
  }
  return out;
}

}  // namespace ceci
