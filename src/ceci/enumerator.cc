#include "ceci/enumerator.h"

#include <algorithm>

#include "util/bitmap.h"
#include "util/check.h"
#include "util/intersection.h"
#include "util/logging.h"

namespace ceci {
namespace {

// Restricts a sorted rank array to the data-id window [lo, hi). Ranks index
// the sorted `cand` array, so id order equals rank order and the bounds
// translate by binary search through the cand[] projection — O(log |entry|)
// probes into the small entry instead of O(log |cand|) over the whole
// candidate array.
std::span<const VertexId> ClampRanksById(std::span<const VertexId> ranks,
                                         std::span<const VertexId> cand,
                                         VertexId lo, VertexId hi) {
  auto begin = ranks.begin();
  auto end = ranks.end();
  const auto below = [cand](VertexId r, VertexId id) { return cand[r] < id; };
  if (lo > 0) begin = std::lower_bound(begin, end, lo, below);
  if (hi != kInvalidVertex) end = std::lower_bound(begin, end, hi, below);
  return {begin, end};
}

// How two query vertices' matches are ordered under `set`: +1 when
// M[a] < M[b] is required, -1 when M[b] < M[a], 0 when they are free.
int MatchOrder(const SymmetryConstraints& set, VertexId a, VertexId b) {
  for (VertexId w : set.must_be_greater(a)) {
    if (w == b) return 1;
  }
  for (VertexId w : set.must_be_less(a)) {
    if (w == b) return -1;
  }
  return 0;
}

// Clamps `ranks` to the ids a match may take when it is ordered
// (`order`, as MatchOrder returns with the partner first) against a
// partner matched to `v`.
std::span<const VertexId> ClampByOrder(std::span<const VertexId> ranks,
                                       std::span<const VertexId> cand,
                                       int order, VertexId v) {
  return ClampRanksById(ranks, cand, order > 0 ? v + 1 : 0,
                        order < 0 ? v : kInvalidVertex);
}

// A value set's ranks as one sorted array: array entries as stored, bitmap
// entries extracted into `scratch`.
std::span<const VertexId> EntryRanks(const FlatCeciIndex::EntryRef& ref,
                                     std::vector<VertexId>* scratch) {
  if (!ref.is_bitmap()) return ref.ranks;
  scratch->clear();
  BitmapExtract(ref.bits, scratch);
  return *scratch;
}

// Pairs (a, b) from two ascending id sequences (element k is a(k), b(k))
// with a < b (order > 0), b < a (order < 0) or in any order (order == 0),
// counted in one merge walk.
template <typename IdA, typename IdB>
std::uint64_t CountOrderedPairs(std::size_t na, IdA a, std::size_t nb,
                                IdB b, int order) {
  if (order == 0) return std::uint64_t{na} * nb;
  std::uint64_t pairs = 0;
  std::size_t j = 0;
  for (std::size_t i = 0; i < na; ++i) {
    const VertexId x = a(i);
    if (order > 0) {
      while (j < nb && b(j) <= x) ++j;
      pairs += nb - j;
    } else {
      while (j < nb && b(j) < x) ++j;
      pairs += j;
    }
  }
  return pairs;
}

}  // namespace

RestrictionEstimate EstimateRestrictionCost(
    const QueryTree& tree, const FlatCeciIndex& index,
    const SymmetryConstraints& min_set, const SymmetryConstraints& max_set) {
  const auto& order = tree.matching_order();
  if (order.size() < 2) return {};
  const SymmetryConstraints* sets[2] = {&min_set, &max_set};
  std::uint64_t totals[2] = {0, 0};
  const VertexId root = order[0];
  const VertexId u1 = order[1];
  const VertexId u2 = order.size() > 2 ? order[2] : kInvalidVertex;
  // TE entry i of a vertex belongs to its parent's candidate at rank i.
  const std::span<const VertexId> cand0 = index.candidates(root);
  const std::span<const VertexId> cand1 = index.candidates(u1);
  std::span<const VertexId> cand2;
  int order01[2], order02[2] = {0, 0}, order12[2] = {0, 0};
  for (int s = 0; s < 2; ++s) {
    order01[s] = MatchOrder(*sets[s], root, u1);
    if (u2 != kInvalidVertex) {
      order02[s] = MatchOrder(*sets[s], root, u2);
      order12[s] = MatchOrder(*sets[s], u1, u2);
    }
  }
  if (u2 != kInvalidVertex) cand2 = index.candidates(u2);
  std::vector<VertexId> scratch1, scratch2;

  // The matching order is a topological order of the tree, so u2 hangs
  // off the root or off u1.
  if (u2 == kInvalidVertex || tree.parent(u2) == root) {
    // One walk over the root matches, u1's and u2's TE lists in step. For
    // each root match both lists are fixed; u1's window, when it bounds
    // u2's, is applied by walking the two sorted lists together.
    for (std::size_t i = 0; i < cand0.size(); ++i) {
      const VertexId v0 = cand0[i];
      const std::span<const VertexId> ranks1 =
          EntryRanks(index.TeEntry(u1, i), &scratch1);
      std::span<const VertexId> l1[2];
      for (int s = 0; s < 2; ++s) {
        l1[s] = ClampByOrder(ranks1, cand1, order01[s], v0);
        totals[s] += l1[s].size();
      }
      if (u2 == kInvalidVertex) continue;
      const std::span<const VertexId> ranks2 =
          EntryRanks(index.TeEntry(u2, i), &scratch2);
      for (int s = 0; s < 2; ++s) {
        const std::span<const VertexId> l2 =
            ClampByOrder(ranks2, cand2, order02[s], v0);
        totals[s] += CountOrderedPairs(
            l1[s].size(), [&](std::size_t k) { return cand1[l1[s][k]]; },
            l2.size(), [&](std::size_t k) { return cand2[l2[k]]; },
            order12[s]);
      }
    }
    return RestrictionEstimate{totals[0], totals[1]};
  }

  // u2 hangs off u1. Transpose u1's TE lists once — for each u1 candidate,
  // the root matches whose entry holds it, ascending — so every u1 match
  // reads its own u2 list once, and the root's bound on u2 becomes a merge
  // walk instead of a lookup per (root, u1) pair.
  std::vector<std::uint32_t> offsets(cand1.size() + 1, 0);
  for (std::size_t i = 0; i < cand0.size(); ++i) {
    for (VertexId r : EntryRanks(index.TeEntry(u1, i), &scratch1)) {
      ++offsets[r + 1];
    }
  }
  for (std::size_t r = 0; r < cand1.size(); ++r) offsets[r + 1] += offsets[r];
  std::vector<VertexId> roots(offsets.back());
  std::vector<std::uint32_t> fill(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < cand0.size(); ++i) {
    for (VertexId r : EntryRanks(index.TeEntry(u1, i), &scratch1)) {
      roots[fill[r]++] = cand0[i];
    }
  }
  for (std::size_t r = 0; r < cand1.size(); ++r) {
    const std::span<const VertexId> bucket(roots.data() + offsets[r],
                                           offsets[r + 1] - offsets[r]);
    if (bucket.empty()) continue;
    const VertexId v1 = cand1[r];
    const std::span<const VertexId> ranks2 =
        EntryRanks(index.TeEntry(u2, r), &scratch2);
    for (int s = 0; s < 2; ++s) {
      // The root matches that admit v1 at position 1.
      std::span<const VertexId> b0 = bucket;
      if (order01[s] > 0) {
        b0 = b0.first(static_cast<std::size_t>(
            std::lower_bound(b0.begin(), b0.end(), v1) - b0.begin()));
      } else if (order01[s] < 0) {
        b0 = b0.subspan(static_cast<std::size_t>(
            std::upper_bound(b0.begin(), b0.end(), v1) - b0.begin()));
      }
      totals[s] += b0.size();
      if (b0.empty() || ranks2.empty()) continue;
      const std::span<const VertexId> l2 =
          ClampByOrder(ranks2, cand2, order12[s], v1);
      totals[s] += CountOrderedPairs(
          b0.size(), [&](std::size_t k) { return b0[k]; }, l2.size(),
          [&](std::size_t k) { return cand2[l2[k]]; }, order02[s]);
    }
  }
  return RestrictionEstimate{totals[0], totals[1]};
}

Enumerator::Enumerator(const Graph& data, const QueryTree& tree,
                       const FlatCeciIndex& index, const EnumOptions& options)
    : Enumerator(&data, tree, index, options) {}

Enumerator::Enumerator(const QueryTree& tree, const FlatCeciIndex& index,
                       const EnumOptions& options)
    : Enumerator(nullptr, tree, index, options) {
  CECI_CHECK(options.nte_intersection)
      << "graph-free enumeration requires NTE intersection";
}

Enumerator::Enumerator(const Graph* data, const QueryTree& tree,
                       const FlatCeciIndex& index, const EnumOptions& options)
    : data_(data), tree_(tree), flat_(index), options_(options) {
  CECI_CHECK(options.symmetry != nullptr)
      << "pass SymmetryConstraints::None() to disable symmetry breaking";
  symmetry_ = options.symmetry;
  const std::size_t nq = tree.num_vertices();
  mapping_.assign(nq, kInvalidVertex);
  ranks_.assign(nq, CandidateRanks::kAbsent);
  scratch_.resize(nq);
  span_scratch_.reserve(nq);
  if (options.per_position_stats) stats_.calls_per_position.assign(nq, 0);
  // Sized for every data vertex that can appear in a mapping; MarkUsed
  // still grows on demand as a safety net.
  std::size_t num_data = 0;
  if (data_ != nullptr) {
    num_data = data_->num_vertices();
  } else {
    for (VertexId u = 0; u < nq; ++u) {
      const auto cands = flat_.candidates(u);
      if (!cands.empty()) {
        num_data = std::max<std::size_t>(num_data, cands.back() + 1);
      }
    }
  }
  used_.assign((num_data + 63) / 64, 0);
}

void Enumerator::SetSharedLimit(std::atomic<std::uint64_t>* counter,
                                std::uint64_t limit) {
  shared_counter_ = counter;
  shared_limit_ = limit;
}

bool Enumerator::LimitReached() {
  if (abort_flag_ != nullptr &&
      abort_flag_->load(std::memory_order_relaxed)) {
    return true;
  }
  if (budget_ != nullptr && budget_->Exhausted()) return true;
  if (shared_counter_ == nullptr) return false;
  seen_ = shared_counter_->load(std::memory_order_relaxed);
  return seen_ >= shared_limit_;
}

void Enumerator::Tally(std::uint64_t n) {
  tally_ += n;
  // Publishing once the tally reaches half of what the limit leaves, not
  // all of it, keeps two workers from each counting the whole remainder
  // alone (20-28% more recursive calls on adhoc-sized first-k queries at
  // two threads); each early publish halves what is left, so a call makes
  // at most about log2(limit) of them.
  if (shared_counter_ != nullptr) {
    const std::uint64_t left = shared_limit_ - std::min(seen_, shared_limit_);
    if (tally_ >= left - left / 2) Publish();
  }
}

void Enumerator::Publish() {
  if (tally_ == 0) return;
  std::uint64_t admit = tally_;
  if (shared_counter_ != nullptr) {
    const std::uint64_t before =
        shared_counter_->fetch_add(tally_, std::memory_order_relaxed);
    seen_ = before + tally_;
    admit = before >= shared_limit_
                ? 0
                : std::min<std::uint64_t>(tally_, shared_limit_ - before);
    if (admit < tally_) stopped_ = true;
  }
  stats_.embeddings += admit;
  tally_ = 0;
}

std::size_t Enumerator::StateBytes() const {
  std::size_t bytes = mapping_.capacity() * sizeof(VertexId) +
                      ranks_.capacity() * sizeof(std::uint32_t) +
                      collect_ranks_.capacity() * sizeof(std::uint32_t) +
                      prefix_ranks_.capacity() * sizeof(std::uint32_t) +
                      used_.capacity() * sizeof(std::uint64_t) +
                      flipped_scratch_.capacity() * sizeof(VertexId) +
                      span_scratch_.capacity() *
                          sizeof(std::span<const VertexId>) +
                      entry_scratch_.capacity() *
                          sizeof(FlatCeciIndex::EntryRef) +
                      rank_scratch_.capacity() * sizeof(VertexId) +
                      rank_tmp_.capacity() * sizeof(VertexId) +
                      bitmap_scratch_.capacity() * sizeof(std::uint64_t);
  for (const auto& s : scratch_) {
    bytes += sizeof(s) + s.capacity() * sizeof(std::uint32_t);
  }
  return bytes;
}

std::uint64_t Enumerator::EnumerateAll(const EmbeddingVisitor* visitor) {
  std::uint64_t total = 0;
  const std::size_t pivots = flat_.candidates(tree_.root()).size();
  for (std::uint32_t r = 0; r < pivots; ++r) {
    total += EnumerateFromRanks(std::span<const std::uint32_t>(&r, 1),
                                visitor);
    if (stopped_ || LimitReached()) break;
  }
  return total;
}

std::uint64_t Enumerator::EnumerateCluster(VertexId pivot,
                                           const EmbeddingVisitor* visitor) {
  VertexId prefix[1] = {pivot};
  return EnumerateFromPrefix(std::span<const VertexId>(prefix, 1), visitor);
}

std::uint64_t Enumerator::EnumerateFromPrefix(
    std::span<const VertexId> prefix, const EmbeddingVisitor* visitor) {
  CECI_CHECK(!prefix.empty() && prefix.size() <= tree_.num_vertices());
  const auto& order = tree_.matching_order();
  prefix_ranks_.resize(prefix.size());
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    prefix_ranks_[i] = RankOf(order[i], prefix[i]);
    // Every match of an embedding is a candidate of its query vertex.
    if (prefix_ranks_[i] == CandidateRanks::kAbsent) {
      stopped_ = false;
      return 0;
    }
  }
  return EnumerateFromRanks(prefix_ranks_, visitor);
}

std::uint64_t Enumerator::EnumerateFromRanks(
    std::span<const std::uint32_t> ranks, const EmbeddingVisitor* visitor) {
  CECI_CHECK(!ranks.empty() && ranks.size() <= tree_.num_vertices());
  visitor_ = visitor;
  stopped_ = false;
  const auto& order = tree_.matching_order();
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const VertexId u = order[i];
    const std::span<const VertexId> cand = flat_.candidates(u);
    CECI_DCHECK_LT(ranks[i], cand.size())
        << "prefix rank " << ranks[i] << " past u" << u << "'s candidates";
    const VertexId v = cand[ranks[i]];
    CECI_DCHECK(!IsUsed(v)) << "prefix repeats data vertex v" << v;
    mapping_[u] = v;
    ranks_[u] = ranks[i];
    MarkUsed(v);
  }
  const std::uint64_t before = stats_.embeddings;
  Recurse(ranks.size());
  Publish();
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const VertexId u = order[i];
    UnmarkUsed(mapping_[u]);
    mapping_[u] = kInvalidVertex;
    ranks_[u] = CandidateRanks::kAbsent;
  }
  visitor_ = nullptr;
  return stats_.embeddings - before;
}

bool Enumerator::Emit() {
  if (visitor_ == nullptr) {
    Tally(1);
    return !stopped_;
  }
  if (shared_counter_ != nullptr) {
    std::uint64_t ticket =
        shared_counter_->fetch_add(1, std::memory_order_relaxed);
    if (ticket >= shared_limit_) {
      stopped_ = true;
      return false;
    }
  }
  ++stats_.embeddings;
  if (!(*visitor_)(mapping_)) {
    stopped_ = true;
    if (abort_flag_ != nullptr) {
      abort_flag_->store(true, std::memory_order_relaxed);
    }
    return false;
  }
  return true;
}

void Enumerator::SymmetryRange(std::span<const VertexId> mapping, VertexId u,
                               VertexId* lo, VertexId* hi) const {
  // The candidate must exceed every already-matched "must be less" partner
  // and stay below every matched "must be greater" partner.
  VertexId l = 0;
  VertexId h = kInvalidVertex;
  for (VertexId w : symmetry_->must_be_less(u)) {
    if (mapping[w] != kInvalidVertex) l = std::max(l, mapping[w] + 1);
  }
  for (VertexId w : symmetry_->must_be_greater(u)) {
    if (mapping[w] != kInvalidVertex) h = std::min(h, mapping[w]);
  }
  *lo = l;
  *hi = h;
}

std::uint32_t Enumerator::RankOf(VertexId u, VertexId v) const {
  const std::span<const VertexId> cand = flat_.candidates(u);
  const auto it = std::lower_bound(cand.begin(), cand.end(), v);
  return it != cand.end() && *it == v
             ? static_cast<std::uint32_t>(it - cand.begin())
             : CandidateRanks::kAbsent;
}

bool Enumerator::GatherFlatRefs(std::span<const VertexId> mapping,
                                std::span<const std::uint32_t> match_ranks,
                                VertexId u, bool with_nte, VertexId* lo,
                                VertexId* hi) {
  entry_scratch_.clear();
  const VertexId u_p = tree_.parent(u);
  CECI_DCHECK_NE(mapping[u_p], kInvalidVertex)
      << "tree parent of u" << u << " unmatched";
  const FlatCeciIndex::EntryRef te = flat_.TeEntry(u, match_ranks[u_p]);
  if (te.count == 0) return false;
  entry_scratch_.push_back(te);
  if (with_nte) {
    const auto nte_ids = tree_.nte_in(u);
    for (std::size_t k = 0; k < nte_ids.size(); ++k) {
      const VertexId u_n = tree_.non_tree_edges()[nte_ids[k]].parent;
      CECI_DCHECK_NE(mapping[u_n], kInvalidVertex)
          << "NTE parent u" << u_n << " of u" << u << " unmatched";
      const FlatCeciIndex::EntryRef ref = flat_.NteAt(
          u, k, mapping[u_n], match_ranks[u_n],
          static_cast<std::uint32_t>(flat_.candidates(u_n).size()));
      if (ref.count == 0) return false;
      entry_scratch_.push_back(ref);
    }
  }
  // The symmetry window stays in *id* space: consumers clamp the (small)
  // rank arrays through the cand[] projection (ClampRanksById), or
  // translate to ranks only on the rare all-bitmap path. Translating to
  // ranks here cost two lower_bounds over the whole candidate array per
  // call — the single biggest flat-path overhead in profiles.
  SymmetryRange(mapping, u, lo, hi);
  return *hi == kInvalidVertex || *lo < *hi;
}

bool Enumerator::SplitFlatRefs(std::span<const VertexId> cand, VertexId lo,
                               VertexId hi) {
  // Rank arrays are sorted u32 — exactly what the SIMD kernels eat — so
  // they reuse span_scratch_ (VertexId == u32).
  span_scratch_.clear();
  bool have_bitmap = false;
  for (const FlatCeciIndex::EntryRef& ref : entry_scratch_) {
    if (ref.is_bitmap()) {
      have_bitmap = true;
    } else {
      span_scratch_.push_back(ref.ranks);
    }
  }
  if (entry_scratch_.size() > 1) {
    ++stats_.intersections;
    for (const FlatCeciIndex::EntryRef& ref : entry_scratch_) {
      stats_.intersection_elements_in += ref.count;
    }
  }
  // The symmetry window clamps the first array through the cand[]
  // projection (the intersection output is a subset of every input), so
  // no global rank window is ever materialized.
  if (!span_scratch_.empty()) {
    span_scratch_[0] = ClampRanksById(span_scratch_[0], cand, lo, hi);
  }
  return have_bitmap;
}

void Enumerator::IntersectFlatRanks(bool have_bitmap) {
  rank_scratch_.clear();
  if (!have_bitmap) {
    IntersectSortedMulti(span_scratch_, &rank_scratch_);
    return;
  }
  // Mixed: accumulate the dense entries (seeded from the first, no window
  // mask needed — the array side is already windowed), intersect the
  // array side, probe the accumulator per survivor.
  bool seeded = false;
  for (const FlatCeciIndex::EntryRef& ref : entry_scratch_) {
    if (!ref.is_bitmap()) continue;
    if (!seeded) {
      bitmap_scratch_.assign(ref.bits.begin(), ref.bits.end());
      seeded = true;
    } else {
      BitmapAndInPlace(bitmap_scratch_, ref.bits);
    }
  }
  IntersectSortedMulti(span_scratch_, &rank_tmp_);
  for (VertexId r : rank_tmp_) {
    if (BitmapTest(bitmap_scratch_, r)) rank_scratch_.push_back(r);
  }
}

bool Enumerator::AndFlatBitmaps(VertexId u, std::span<const VertexId> cand,
                                VertexId lo, VertexId hi) {
  // Here the window must be translated to rank space after all.
  const std::uint32_t rlo =
      lo == 0 ? 0
              : static_cast<std::uint32_t>(
                    std::lower_bound(cand.begin(), cand.end(), lo) -
                    cand.begin());
  const std::uint32_t rhi =
      hi == kInvalidVertex
          ? static_cast<std::uint32_t>(cand.size())
          : static_cast<std::uint32_t>(
                std::lower_bound(cand.begin(), cand.end(), hi) -
                cand.begin());
  if (rlo >= rhi) return false;
  bitmap_scratch_.assign(flat_.bitmap_words(u), ~std::uint64_t{0});
  BitmapMaskWindow(bitmap_scratch_, rlo, rhi);
  for (const FlatCeciIndex::EntryRef& ref : entry_scratch_) {
    BitmapAndInPlace(bitmap_scratch_, ref.bits);
  }
  return true;
}

void Enumerator::Candidates(std::span<const VertexId> mapping,
                            std::span<const std::uint32_t> match_ranks,
                            VertexId u, std::vector<std::uint32_t>* out) {
  out->clear();
  VertexId lo, hi;
  if (!GatherFlatRefs(mapping, match_ranks, u, options_.nte_intersection, &lo,
                      &hi)) {
    return;
  }
  const std::span<const VertexId> cand = flat_.candidates(u);
  const bool have_bitmap = SplitFlatRefs(cand, lo, hi);

  std::span<const VertexId> ranks;
  if (span_scratch_.empty()) {
    if (!AndFlatBitmaps(u, cand, lo, hi)) return;
    rank_scratch_.clear();
    BitmapExtract(bitmap_scratch_, &rank_scratch_);
    ranks = rank_scratch_;
  } else if (!have_bitmap && span_scratch_.size() == 1) {
    // Lone TE array (no NTE constraints): decode straight from the
    // clamped rank span — no intersection kernel, no intermediate copy.
    ranks = span_scratch_[0];
  } else {
    IntersectFlatRanks(have_bitmap);
    ranks = rank_scratch_;
  }
  if (entry_scratch_.size() > 1) {
    stats_.intersection_elements_out += ranks.size();
  }

  // Keep the ranks whose data vertex is unused (injectivity).
  out->reserve(ranks.size());
  for (VertexId r : ranks) {
    if (!IsUsed(cand[r])) out->push_back(r);
  }

  ApplyEdgeVerification(mapping, u, out);
}

// Edge-verification ablation filter (no-op under NTE intersection).
void Enumerator::ApplyEdgeVerification(std::span<const VertexId> mapping,
                                       VertexId u,
                                       std::vector<std::uint32_t>* out) {
  const auto nte_ids = tree_.nte_in(u);
  if (options_.nte_intersection || nte_ids.empty()) return;
  const std::span<const VertexId> cand = flat_.candidates(u);
  out->erase(std::remove_if(out->begin(), out->end(),
                            [&](std::uint32_t r) {
                              const VertexId v = cand[r];
                              for (std::uint32_t e : nte_ids) {
                                const VertexId u_n =
                                    tree_.non_tree_edges()[e].parent;
                                ++stats_.edge_verifications;
                                if (!data_->HasEdge(v, mapping[u_n])) {
                                  return true;
                                }
                              }
                              return false;
                            }),
             out->end());
}

std::uint64_t Enumerator::CountLeafCandidates(VertexId u) {
  VertexId lo, hi;
  if (!GatherFlatRefs(mapping_, ranks_, u, true, &lo, &hi)) return 0;
  const std::span<const VertexId> cand = flat_.candidates(u);
  const bool have_bitmap = SplitFlatRefs(cand, lo, hi);

  if (have_bitmap ? !span_scratch_.empty() : span_scratch_.size() > 1) {
    // Two or more rank arrays, or a mixed set: materialize the surviving
    // ranks and probe the injectivity bitmap, exactly as Candidates
    // does. Subtracting matched vertices after a counting kernel would cost
    // a search per entry for each one, and a matched vertex adjacent to
    // every NTE parent sits in nearly every such intersection.
    IntersectFlatRanks(have_bitmap);
    stats_.intersection_elements_out += rank_scratch_.size();
    return static_cast<std::uint64_t>(
        std::count_if(rank_scratch_.begin(), rank_scratch_.end(),
                      [&](VertexId r) { return !IsUsed(cand[r]); }));
  }

  // A lone (windowed) rank array or an all-bitmap set: count by arithmetic,
  // then subtract the matched vertices inside the result. Each one costs a
  // single search — through the array, or over cand[] plus one bit test.
  std::size_t count;
  if (span_scratch_.empty()) {
    if (!AndFlatBitmaps(u, cand, lo, hi)) return 0;
    count = BitmapPopcount(bitmap_scratch_);
  } else {
    count = span_scratch_[0].size();
  }
  if (entry_scratch_.size() > 1) stats_.intersection_elements_out += count;
  for (VertexId m : mapping_) {
    if (count == 0) break;
    if (m == kInvalidVertex || m < lo || (hi != kInvalidVertex && m >= hi)) {
      continue;
    }
    if (span_scratch_.empty()) {
      auto it = std::lower_bound(cand.begin(), cand.end(), m);
      if (it != cand.end() && *it == m &&
          BitmapTest(bitmap_scratch_,
                     static_cast<std::uint32_t>(it - cand.begin()))) {
        --count;
      }
    } else {
      const std::span<const VertexId> rs = span_scratch_[0];
      auto it = std::lower_bound(
          rs.begin(), rs.end(), m,
          [&](VertexId r, VertexId id) { return cand[r] < id; });
      if (it != rs.end() && cand[*it] == m) --count;
    }
  }
  return count;
}

void Enumerator::CollectExtensions(std::span<const VertexId> mapping,
                                   VertexId u, std::vector<VertexId>* out) {
  // The recursion keeps used_ synced with mapping_; external callers hand
  // an arbitrary mapping, so mirror it into the bitmap for this call.
  // Only bits this call actually flips are cleared afterwards, which keeps
  // a concurrent invariant (used_ == contents of mapping_) intact when the
  // two mappings coincide. The matched vertices' ranks are looked up once
  // here, for Candidates to find entries by.
  CECI_DCHECK_EQ(mapping.size(), tree_.num_vertices());
  flipped_scratch_.clear();
  collect_ranks_.assign(mapping.size(), CandidateRanks::kAbsent);
  for (VertexId w = 0; w < mapping.size(); ++w) {
    const VertexId m = mapping[w];
    if (m == kInvalidVertex) continue;
    collect_ranks_[w] = RankOf(w, m);
    if (!IsUsed(m)) {
      MarkUsed(m);
      flipped_scratch_.push_back(m);
    }
  }
  Candidates(mapping, collect_ranks_, u, out);
  const std::span<const VertexId> cand = flat_.candidates(u);
  for (VertexId& r : *out) r = cand[r];
  for (VertexId m : flipped_scratch_) UnmarkUsed(m);
}

bool Enumerator::Recurse(std::size_t pos) {
  ++stats_.recursive_calls;
  // Empty vector unless per_position_stats; the check is one size compare.
  if (pos < stats_.calls_per_position.size()) {
    ++stats_.calls_per_position[pos];
  }
  // Cooperative budget poll: the countdown keeps the hot path at one
  // decrement; the clock/token are touched once per stride.
  if (budget_ != nullptr && --budget_countdown_ == 0) {
    budget_countdown_ = budget_->stride();
    if (budget_->Poll()) {
      stopped_ = true;
      return false;
    }
  }
  const auto& order = tree_.matching_order();
  if (pos == order.size()) {
    return Emit();
  }
  if (LimitReached()) {
    stopped_ = true;
    return false;
  }
  const VertexId u = order[pos];
  if (options_.leaf_count_shortcut && visitor_ == nullptr &&
      pos + 1 == order.size()) {
    // Counting fast path: every candidate completes exactly one embedding,
    // so count the final level instead of recursing once per candidate.
    std::uint64_t leaves;
    if (options_.nte_intersection) {
      leaves = CountLeafCandidates(u);
    } else {
      // The edge-verification ablation must probe each candidate.
      std::vector<std::uint32_t>& cands = scratch_[pos];
      Candidates(mapping_, ranks_, u, &cands);
      leaves = cands.size();
    }
    Tally(leaves);
    return !stopped_;
  }
  std::vector<std::uint32_t>& cands = scratch_[pos];
  Candidates(mapping_, ranks_, u, &cands);
  const std::span<const VertexId> ids = flat_.candidates(u);
  for (std::uint32_t r : cands) {
    const VertexId v = ids[r];
    // Candidates() already dropped used vertices; a hit here means the
    // injectivity bitmap went stale.
    CECI_DCHECK(!IsUsed(v)) << "candidate v" << v << " already used";
    mapping_[u] = v;
    ranks_[u] = r;
    MarkUsed(v);
    bool keep_going = Recurse(pos + 1);
    UnmarkUsed(v);
    mapping_[u] = kInvalidVertex;
    ranks_[u] = CandidateRanks::kAbsent;
    if (!keep_going && stopped_) return false;
  }
  return true;
}

}  // namespace ceci
