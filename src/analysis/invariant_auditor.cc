#include "analysis/invariant_auditor.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <map>
#include <memory>
#include <sstream>

#include "graph/nlc_index.h"
#include "util/bitmap.h"
#include "util/check.h"

namespace ceci {

const char* InvariantClassName(InvariantClass c) {
  switch (c) {
    case InvariantClass::kGraphAdjacencyUnsorted:
      return "graph_adjacency_unsorted";
    case InvariantClass::kGraphAdjacencyOutOfRange:
      return "graph_adjacency_out_of_range";
    case InvariantClass::kGraphAsymmetricEdge:
      return "graph_asymmetric_edge";
    case InvariantClass::kGraphLabelTable:
      return "graph_label_table";
    case InvariantClass::kGraphLabelIndex:
      return "graph_label_index";
    case InvariantClass::kGraphDegreeSummary:
      return "graph_degree_summary";
    case InvariantClass::kIndexShape:
      return "index_shape";
    case InvariantClass::kCandidatesUnsorted:
      return "candidates_unsorted";
    case InvariantClass::kCandidateOutOfRange:
      return "candidate_out_of_range";
    case InvariantClass::kCandidateFilterViolation:
      return "candidate_filter_violation";
    case InvariantClass::kNlcfViolation:
      return "nlcf_violation";
    case InvariantClass::kListUnsorted:
      return "list_unsorted";
    case InvariantClass::kTeKeyNotParentCandidate:
      return "te_key_not_parent_candidate";
    case InvariantClass::kNteKeyNotParentCandidate:
      return "nte_key_not_parent_candidate";
    case InvariantClass::kValueNotCandidate:
      return "value_not_candidate";
    case InvariantClass::kDanglingCandidateEdge:
      return "dangling_candidate_edge";
    case InvariantClass::kEmptyKeyCascade:
      return "empty_key_cascade";
    case InvariantClass::kCardinalityShape:
      return "cardinality_shape";
    case InvariantClass::kFlatOffsetBounds:
      return "flat_offset_bounds";
    case InvariantClass::kFlatSlabOrder:
      return "flat_slab_order";
    case InvariantClass::kFlatRepresentation:
      return "flat_representation";
    case InvariantClass::kInjectivityBitset:
      return "injectivity_bitset";
    case InvariantClass::kWorkUnitInvalid:
      return "work_unit_invalid";
    case InvariantClass::kClusterOverlap:
      return "cluster_overlap";
    case InvariantClass::kClusterGap:
      return "cluster_gap";
    case InvariantClass::kProfileMismatch:
      return "profile_mismatch";
    case InvariantClass::kTerminationAccounting:
      return "termination_accounting";
    case InvariantClass::kDistAccounting:
      return "dist_accounting";
  }
  return "unknown";
}

void AuditReport::Add(InvariantClass cls, std::string detail) {
  ++total_violations;
  if (violations.size() < max_recorded) {
    violations.push_back(Violation{cls, std::move(detail)});
  }
}

std::size_t AuditReport::CountOf(InvariantClass cls) const {
  std::size_t n = 0;
  for (const Violation& v : violations) {
    if (v.cls == cls) ++n;
  }
  return n;
}

std::string AuditReport::ToString() const {
  std::ostringstream out;
  if (ok()) {
    out << "audit OK (" << checks_run << " checks)";
    return out.str();
  }
  out << "audit FAILED: " << total_violations << " violation(s) in "
      << checks_run << " checks";
  for (const Violation& v : violations) {
    out << "\n  [" << InvariantClassName(v.cls) << "] " << v.detail;
  }
  if (total_violations > violations.size()) {
    out << "\n  ... " << (total_violations - violations.size())
        << " further violation(s) not recorded";
  }
  return out.str();
}

void AuditReport::Merge(const AuditReport& other) {
  for (const Violation& v : other.violations) {
    if (violations.size() < max_recorded) violations.push_back(v);
  }
  total_violations += other.total_violations;
  checks_run += other.checks_run;
}

namespace {

bool StrictlySorted(std::span<const VertexId> s) {
  for (std::size_t i = 1; i < s.size(); ++i) {
    if (s[i - 1] >= s[i]) return false;
  }
  return true;
}

bool SortedMember(std::span<const VertexId> sorted, VertexId x) {
  return std::binary_search(sorted.begin(), sorted.end(), x);
}

std::string Where(const char* what, VertexId u) {
  std::ostringstream out;
  out << what << " u" << u;
  return out.str();
}

}  // namespace

AuditReport AuditGraph(const Graph& g) {
  AuditReport report;
  const std::size_t n = g.num_vertices();
  std::size_t directed = 0;
  std::size_t max_degree = 0;

  for (VertexId u = 0; u < n; ++u) {
    const auto nb = g.neighbors(u);
    directed += nb.size();
    max_degree = std::max(max_degree, nb.size());

    ++report.checks_run;
    if (!StrictlySorted(nb)) {
      report.Add(InvariantClass::kGraphAdjacencyUnsorted,
                 Where("neighbors of", u) +
                     " are not strictly ascending (unsorted or duplicated)");
    }
    for (VertexId v : nb) {
      ++report.checks_run;
      if (v >= n || v == u) {
        std::ostringstream d;
        d << "neighbors of v" << u << " contain "
          << (v == u ? "a self-loop" : "an out-of-range id") << " (v" << v
          << ")";
        report.Add(InvariantClass::kGraphAdjacencyOutOfRange, d.str());
        continue;
      }
      ++report.checks_run;
      const auto back = g.neighbors(v);
      if (!std::binary_search(back.begin(), back.end(), u)) {
        std::ostringstream d;
        d << "edge (v" << u << ", v" << v << ") stored without its reverse";
        report.Add(InvariantClass::kGraphAsymmetricEdge, d.str());
      }
    }

    const auto labels = g.labels(u);
    ++report.checks_run;
    bool labels_ok = !labels.empty();
    for (std::size_t i = 0; labels_ok && i < labels.size(); ++i) {
      if (labels[i] >= g.num_labels()) labels_ok = false;
      if (i > 0 && labels[i - 1] >= labels[i]) labels_ok = false;
    }
    if (!labels_ok) {
      report.Add(InvariantClass::kGraphLabelTable,
                 Where("label list of", u) +
                     " is empty, unsorted, or out of range");
    } else {
      for (Label l : labels) {
        ++report.checks_run;
        const auto with = g.VerticesWithLabel(l);
        if (!std::binary_search(with.begin(), with.end(), u)) {
          std::ostringstream d;
          d << "v" << u << " carries label " << l
            << " but is missing from its inverted index";
          report.Add(InvariantClass::kGraphLabelIndex, d.str());
        }
      }
    }
  }

  for (Label l = 0; l < g.num_labels(); ++l) {
    const auto with = g.VerticesWithLabel(l);
    ++report.checks_run;
    if (!StrictlySorted(with)) {
      std::ostringstream d;
      d << "inverted index of label " << l << " is not strictly ascending";
      report.Add(InvariantClass::kGraphLabelIndex, d.str());
    }
    for (VertexId v : with) {
      ++report.checks_run;
      if (v >= n || !g.HasLabel(v, l)) {
        std::ostringstream d;
        d << "inverted index of label " << l << " lists v" << v
          << " which does not carry it";
        report.Add(InvariantClass::kGraphLabelIndex, d.str());
      }
    }
  }

  ++report.checks_run;
  if (max_degree != g.max_degree()) {
    std::ostringstream d;
    d << "max_degree() reports " << g.max_degree() << " but the CSR holds "
      << max_degree;
    report.Add(InvariantClass::kGraphDegreeSummary, d.str());
  }
  ++report.checks_run;
  if (directed != g.num_directed_edges()) {
    std::ostringstream d;
    d << "num_directed_edges() reports " << g.num_directed_edges()
      << " but adjacency lists sum to " << directed;
    report.Add(InvariantClass::kGraphDegreeSummary, d.str());
  }
  return report;
}

namespace {

// Element width of each slab, in SlabKind order (mirrors flat_index.cc).
constexpr std::size_t kSlabElemBytes[FlatCeciIndex::kNumSlabs] = {
    sizeof(FlatVertexMeta), sizeof(VertexId),     sizeof(VertexId),
    sizeof(Cardinality),    sizeof(FlatListMeta), sizeof(VertexId),
    sizeof(FlatEntry),      sizeof(std::uint32_t), sizeof(std::uint64_t)};

const char* SlabName(std::size_t kind) {
  static const char* kNames[FlatCeciIndex::kNumSlabs] = {
      "vertex_meta", "order",   "candidates", "cardinalities", "list_meta",
      "keys",        "entries", "array_pool", "bitmap_pool"};
  return kind < FlatCeciIndex::kNumSlabs ? kNames[kind] : "?";
}

// The ranks one value set stores, in stored order; a bitmap's are
// extracted into `scratch`.
std::span<const std::uint32_t> EntryRanks(const FlatCeciIndex::EntryRef& ref,
                                          std::vector<std::uint32_t>* scratch) {
  if (!ref.is_bitmap()) return ref.ranks;
  scratch->clear();
  BitmapExtract(ref.bits, scratch);
  return *scratch;
}

// Decodes one value set of `u`'s lists to data-vertex ids through u's
// candidate array, in stored order. Ranks at or past the candidate count
// name no candidate; they are counted in `*dead_ranks` instead.
std::vector<VertexId> DecodeFlatEntry(const FlatCeciIndex& flat, VertexId u,
                                      const FlatCeciIndex::EntryRef& ref,
                                      std::size_t* dead_ranks) {
  const auto cands = flat.candidates(u);
  std::vector<std::uint32_t> scratch;
  const std::span<const std::uint32_t> ranks = EntryRanks(ref, &scratch);
  std::vector<VertexId> out;
  out.reserve(ranks.size());
  for (std::uint32_t r : ranks) {
    if (r < cands.size()) {
      out.push_back(cands[r]);
    } else {
      ++*dead_ranks;
    }
  }
  return out;
}

}  // namespace

void AuditFlatIndex(const QueryTree& tree, const FlatCeciIndex& flat,
                    AuditReport* report) {
  const std::size_t nq = tree.num_vertices();
  ++report->checks_run;
  if (flat.empty() || flat.num_query_vertices() != nq) {
    std::ostringstream d;
    d << "flat index covers " << flat.num_query_vertices()
      << " query vertices, tree has " << nq;
    report->Add(InvariantClass::kFlatOffsetBounds, d.str());
    return;  // every per-vertex loop below would misalign
  }

  // --- Slab table (kFlatSlabOrder) ---
  std::uint64_t prev_end = 0;
  for (std::size_t k = 0; k < FlatCeciIndex::kNumSlabs; ++k) {
    const FlatCeciIndex::Slab& s =
        flat.slab(static_cast<FlatCeciIndex::SlabKind>(k));
    ++report->checks_run;
    if (s.offset % 8 != 0 || s.bytes % kSlabElemBytes[k] != 0) {
      std::ostringstream d;
      d << "slab " << SlabName(k) << " misaligned (offset " << s.offset
        << ", " << s.bytes << " bytes, element width "
        << kSlabElemBytes[k] << ")";
      report->Add(InvariantClass::kFlatSlabOrder, d.str());
    }
    ++report->checks_run;
    if (s.offset < prev_end || s.offset + s.bytes > flat.ArenaBytes()) {
      std::ostringstream d;
      d << "slab " << SlabName(k) << " [" << s.offset << ", "
        << s.offset + s.bytes << ") is out of canonical order or escapes "
        << "the " << flat.ArenaBytes() << "-byte arena";
      report->Add(InvariantClass::kFlatSlabOrder, d.str());
    }
    prev_end = std::max(prev_end, s.offset + s.bytes);
  }

  const auto vms = flat.vertex_metas();
  const auto lms = flat.list_metas();
  const std::uint64_t cand_total =
      flat.slab(FlatCeciIndex::kCandidates).bytes / sizeof(VertexId);

  // --- Matching order ---
  ++report->checks_run;
  const auto& order = tree.matching_order();
  if (flat.matching_order().size() != order.size() ||
      !std::equal(order.begin(), order.end(),
                  flat.matching_order().begin())) {
    report->Add(InvariantClass::kFlatRepresentation,
                "flat matching order disagrees with the query tree");
  }

  // --- Per-vertex metas (bounds first, then representation) ---
  for (VertexId u = 0; u < nq; ++u) {
    const FlatVertexMeta& m = vms[u];
    ++report->checks_run;
    if (std::uint64_t{m.cand_begin} + m.cand_count > cand_total) {
      std::ostringstream d;
      d << "u" << u << ": candidate range [" << m.cand_begin << ", "
        << m.cand_begin + std::uint64_t{m.cand_count}
        << ") escapes the candidates slab (" << cand_total << " entries)";
      report->Add(InvariantClass::kFlatOffsetBounds, d.str());
      continue;  // candidates(u) would be out of bounds
    }
    ++report->checks_run;
    if (m.te_list != kNoFlatList && m.te_list >= lms.size()) {
      std::ostringstream d;
      d << "u" << u << ": TE list index " << m.te_list << " escapes the "
        << lms.size() << "-entry list_meta slab";
      report->Add(InvariantClass::kFlatOffsetBounds, d.str());
    }
    ++report->checks_run;
    if (std::uint64_t{m.nte_begin} + m.nte_count > lms.size() &&
        m.nte_count > 0) {
      std::ostringstream d;
      d << "u" << u << ": NTE list range [" << m.nte_begin << ", "
        << m.nte_begin + std::uint64_t{m.nte_count}
        << ") escapes the " << lms.size() << "-entry list_meta slab";
      report->Add(InvariantClass::kFlatOffsetBounds, d.str());
    }
    ++report->checks_run;
    if (m.bitmap_words != BitmapWords(m.cand_count)) {
      std::ostringstream d;
      d << "u" << u << ": bitmap_words = " << m.bitmap_words << " for "
        << m.cand_count << " candidates (expected "
        << BitmapWords(m.cand_count) << ")";
      report->Add(InvariantClass::kFlatRepresentation, d.str());
    }
    ++report->checks_run;
    if ((u == tree.root()) != (m.te_list == kNoFlatList)) {
      std::ostringstream d;
      d << "u" << u
        << (u == tree.root() ? " is the root but stores a TE list"
                             : " is not the root but has no TE list");
      report->Add(InvariantClass::kFlatRepresentation, d.str());
    }
    ++report->checks_run;
    if (m.nte_count != tree.nte_in(u).size()) {
      std::ostringstream d;
      d << "u" << u << ": " << m.nte_count << " NTE lists for "
        << tree.nte_in(u).size() << " incoming non-tree edges";
      report->Add(InvariantClass::kFlatRepresentation, d.str());
    }
    ++report->checks_run;
    if (!StrictlySorted(flat.candidates(u))) {
      report->Add(InvariantClass::kFlatRepresentation,
                  Where("flat candidates of", u) +
                      " are not strictly ascending");
    }
  }

  // --- Per-list metas and entries ---
  for (std::size_t li = 0; li < lms.size(); ++li) {
    const FlatListMeta& lm = lms[li];
    std::ostringstream tag;
    tag << "flat list #" << li << " (owner u" << lm.owner << ")";
    const std::string prefix = tag.str();

    ++report->checks_run;
    if (lm.owner >= nq) {
      report->Add(InvariantClass::kFlatOffsetBounds,
                  prefix + ": owner is not a query vertex");
      continue;
    }
    ++report->checks_run;
    if (std::uint64_t{lm.key_begin} + lm.key_count > flat.all_keys().size() ||
        std::uint64_t{lm.entry_begin} + lm.key_count >
            flat.all_entries().size()) {
      report->Add(InvariantClass::kFlatOffsetBounds,
                  prefix + ": key/entry range escapes its slab");
      continue;
    }
    const auto keys = flat.all_keys().subspan(lm.key_begin, lm.key_count);
    ++report->checks_run;
    if (!StrictlySorted(keys)) {
      report->Add(InvariantClass::kFlatRepresentation,
                  prefix + ": keys not strictly ascending");
    }
    const FlatVertexMeta& om = vms[lm.owner];
    for (std::uint32_t i = 0; i < lm.key_count; ++i) {
      const FlatEntry& e = flat.all_entries()[lm.entry_begin + i];
      std::ostringstream etag;
      etag << prefix << ", key v" << keys[i];
      ++report->checks_run;
      if (e.count() == 0) {
        report->Add(InvariantClass::kFlatRepresentation,
                    etag.str() + ": empty value set stored");
        continue;
      }
      if (e.is_bitmap()) {
        ++report->checks_run;
        if (std::uint64_t{e.offset} + om.bitmap_words >
            flat.bitmap_pool().size()) {
          report->Add(InvariantClass::kFlatOffsetBounds,
                      etag.str() + ": bitmap escapes the bitmap pool");
          continue;
        }
        const auto bits =
            flat.bitmap_pool().subspan(e.offset, om.bitmap_words);
        ++report->checks_run;
        if (BitmapPopcount(bits) != e.count()) {
          std::ostringstream d;
          d << etag.str() << ": bitmap popcount " << BitmapPopcount(bits)
            << " != stored count " << e.count();
          report->Add(InvariantClass::kFlatRepresentation, d.str());
        }
        ++report->checks_run;
        bool past_end = false;
        for (std::uint32_t b = om.cand_count; b < om.bitmap_words * 64;
             ++b) {
          if (BitmapTest(bits, b)) past_end = true;
        }
        if (past_end) {
          report->Add(
              InvariantClass::kFlatRepresentation,
              etag.str() + ": bitmap sets a rank past the owner's "
                           "candidate count");
        }
      } else {
        ++report->checks_run;
        if (std::uint64_t{e.offset} + e.count() >
            flat.array_pool().size()) {
          report->Add(InvariantClass::kFlatOffsetBounds,
                      etag.str() + ": rank array escapes the array pool");
          continue;
        }
        const auto ranks = flat.array_pool().subspan(e.offset, e.count());
        ++report->checks_run;
        bool sorted = true;
        bool in_range = true;
        for (std::size_t r = 0; r < ranks.size(); ++r) {
          if (r > 0 && ranks[r - 1] >= ranks[r]) sorted = false;
          if (ranks[r] >= om.cand_count) in_range = false;
        }
        if (!sorted || !in_range) {
          std::ostringstream d;
          d << etag.str() << ": ranks "
            << (!sorted ? "not strictly ascending" : "")
            << (!sorted && !in_range ? " and " : "")
            << (!in_range ? "at or past the owner's candidate count" : "");
          report->Add(InvariantClass::kFlatRepresentation, d.str());
        }
      }
    }
  }
}

AuditReport AuditCeciIndex(const Graph& data, const Graph& query,
                           const QueryTree& tree, const FlatCeciIndex& flat,
                           const AuditOptions& options) {
  AuditReport report;
  report.max_recorded = options.max_recorded;
  const std::size_t nq = tree.num_vertices();

  ++report.checks_run;
  if (query.num_vertices() != nq) {
    std::ostringstream d;
    d << "query graph has " << query.num_vertices()
      << " vertices, tree has " << nq;
    report.Add(InvariantClass::kIndexShape, d.str());
    return report;  // per-vertex loops below would be meaningless
  }

  // Layout first. The index checks below read the arena through its
  // offsets, so they run only when every offset stays inside its slab.
  AuditReport layout;
  layout.max_recorded = std::numeric_limits<std::size_t>::max();
  AuditFlatIndex(tree, flat, &layout);
  const bool offsets_safe =
      layout.CountOf(InvariantClass::kFlatOffsetBounds) == 0 &&
      layout.CountOf(InvariantClass::kFlatSlabOrder) == 0;
  report.Merge(layout);
  if (!offsets_safe) return report;

  ++report.checks_run;
  const bool cardinalities_parallel =
      flat.slab(FlatCeciIndex::kCardinalities).bytes / sizeof(Cardinality) ==
      flat.slab(FlatCeciIndex::kCandidates).bytes / sizeof(VertexId);
  if (!cardinalities_parallel) {
    report.Add(InvariantClass::kCardinalityShape,
               "cardinality slab is not parallel to the candidate slab");
  }

  std::vector<std::uint32_t> ranks;  // scratch for EntryRanks
  for (VertexId u = 0; u < nq; ++u) {
    const auto cands = flat.candidates(u);

    ++report.checks_run;
    if (!StrictlySorted(cands)) {
      report.Add(InvariantClass::kCandidatesUnsorted,
                 Where("candidates of", u) +
                     " are not strictly ascending (unsorted or duplicated)");
    }
    for (VertexId v : cands) {
      ++report.checks_run;
      if (v >= data.num_vertices()) {
        std::ostringstream d;
        d << "candidate v" << v << " of u" << u << " exceeds |V_data|";
        report.Add(InvariantClass::kCandidateOutOfRange, d.str());
      }
    }

    if (options.check_filters) {
      const auto profile = NlcIndex::Profile(query, u);
      for (VertexId v : cands) {
        if (v >= data.num_vertices()) continue;  // reported above
        ++report.checks_run;
        if (!data.HasAllLabels(v, query.labels(u)) ||
            data.degree(v) < query.degree(u)) {
          std::ostringstream d;
          d << "candidate v" << v << " of u" << u
            << " fails the label/degree filter";
          report.Add(InvariantClass::kCandidateFilterViolation, d.str());
          continue;
        }
        ++report.checks_run;
        // NLCF (§3.2): v's neighborhood label counts must cover u's.
        const auto have = NlcIndex::Profile(data, v);
        std::size_t i = 0;
        bool covers = true;
        for (const NlcIndex::Entry& need : profile) {
          while (i < have.size() && have[i].label < need.label) ++i;
          if (i == have.size() || have[i].label != need.label ||
              have[i].count < need.count) {
            covers = false;
            break;
          }
        }
        if (!covers) {
          std::ostringstream d;
          d << "candidate v" << v << " of u" << u
            << " fails the neighborhood-label-count filter";
          report.Add(InvariantClass::kNlcfViolation, d.str());
        }
      }
    }

    // Cardinalities (§3.3): positive, and equal to the product over tree
    // children u_c of the sum of card(u_c, ·) over the TE entry keyed by
    // the candidate.
    if (cardinalities_parallel) {
      const auto cards = flat.cardinalities(u);
      for (std::size_t i = 0; i < cards.size(); ++i) {
        ++report.checks_run;
        if (cards[i] == 0) {
          std::ostringstream d;
          d << "refined candidate v" << cands[i] << " of u" << u
            << " has zero cardinality (should have been pruned)";
          report.Add(InvariantClass::kCardinalityShape, d.str());
          continue;
        }
        Cardinality want = 1;
        for (VertexId u_c : tree.children(u)) {
          const auto child_cards = flat.cardinalities(u_c);
          Cardinality sum = 0;
          for (std::uint32_t r : EntryRanks(flat.Te(u_c, cands[i]), &ranks)) {
            if (r < child_cards.size()) {
              sum = SaturatingAdd(sum, child_cards[r]);
            }
          }
          want = SaturatingMul(want, sum);
        }
        ++report.checks_run;
        if (cards[i] != want) {
          std::ostringstream d;
          d << "cardinality of v" << cands[i] << " for u" << u << " is "
            << cards[i] << ", its children's TE entries give " << want;
          report.Add(InvariantClass::kCardinalityShape, d.str());
        }
      }
    }

    // Empty-key cascade (Alg. 1 lines 9-12): every surviving parent
    // candidate must key a TE entry — a parent candidate whose entry
    // emptied must itself have been cascaded away.
    if (u == tree.root()) continue;
    const VertexId u_p = tree.parent(u);
    const auto keys = flat.TeKeys(u);
    for (VertexId v_p : flat.candidates(u_p)) {
      ++report.checks_run;
      if (!SortedMember(keys, v_p)) {
        std::ostringstream d;
        d << "TE[u" << u << "]: parent candidate v" << v_p << " of u" << u_p
          << " has no TE entry (empty-key cascade not applied)";
        report.Add(InvariantClass::kEmptyKeyCascade, d.str());
      }
    }
  }

  // Every (list, key) entry: the key is a candidate of the list's parent
  // (tree parent for TE, NTE parent for NTE), keys ascend, and the value
  // set is non-empty, strictly ascending, made of the child's candidates,
  // and backed by data-graph edges (§3.1).
  VertexId list_u = kInvalidVertex;
  std::int32_t list_slot = 0;
  VertexId prev_key = 0;
  flat.ForEachList([&](VertexId u, std::int32_t slot, VertexId key,
                       const FlatCeciIndex::EntryRef& ref) {
    const auto nte_ids = tree.nte_in(u);
    if (slot < 0 ? u == tree.root()
                 : static_cast<std::size_t>(slot) >= nte_ids.size()) {
      return;  // a list the tree has no edge for: reported by the layout
    }
    const bool is_te = slot < 0;
    const VertexId parent =
        is_te ? tree.parent(u) : tree.non_tree_edges()[nte_ids[slot]].parent;
    auto where = [&] {
      std::ostringstream tag;
      tag << (is_te ? "TE" : "NTE") << "[u" << u << " keyed by u" << parent
          << "]: key v" << key;
      return tag.str();
    };

    ++report.checks_run;
    const bool same_list = u == list_u && slot == list_slot;
    if (same_list && prev_key >= key) {
      report.Add(InvariantClass::kListUnsorted,
                 where() + " does not ascend past the previous key");
    }
    list_u = u;
    list_slot = slot;
    prev_key = key;

    ++report.checks_run;
    if (!SortedMember(flat.candidates(parent), key)) {
      report.Add(is_te ? InvariantClass::kTeKeyNotParentCandidate
                       : InvariantClass::kNteKeyNotParentCandidate,
                 where() + " is not a candidate of the parent");
    }
    ++report.checks_run;
    if (ref.count == 0) {
      report.Add(InvariantClass::kEmptyKeyCascade,
                 where() + " stores an empty value set");
    }
    std::size_t dead_ranks = 0;
    const std::vector<VertexId> values =
        DecodeFlatEntry(flat, u, ref, &dead_ranks);
    ++report.checks_run;
    if (dead_ranks > 0) {
      std::ostringstream d;
      d << where() << " stores " << dead_ranks
        << " value(s) that are not candidates of u" << u;
      report.Add(InvariantClass::kValueNotCandidate, d.str());
    }
    ++report.checks_run;
    if (!StrictlySorted(values)) {
      report.Add(InvariantClass::kListUnsorted,
                 where() + ": values not strictly ascending");
    }
    for (VertexId v : values) {
      ++report.checks_run;
      if (v >= data.num_vertices() || key >= data.num_vertices() ||
          !data.HasEdge(key, v)) {
        std::ostringstream d;
        d << where() << ": candidate edge (v" << key << ", v" << v
          << ") does not exist in the data graph";
        report.Add(InvariantClass::kDanglingCandidateEdge, d.str());
      }
    }
  });
  return report;
}

void AuditInjectivity(std::span<const VertexId> mapping,
                      std::span<const std::uint64_t> used_bits,
                      AuditReport* report) {
  auto bit_set = [&](VertexId v) {
    const std::size_t w = v >> 6;
    return w < used_bits.size() && ((used_bits[w] >> (v & 63)) & 1) != 0;
  };

  // Every mapped data vertex must be marked, and no two query vertices may
  // map to the same data vertex.
  std::map<VertexId, VertexId> first_owner;
  for (std::size_t u = 0; u < mapping.size(); ++u) {
    const VertexId v = mapping[u];
    if (v == kInvalidVertex) continue;
    ++report->checks_run;
    if (!bit_set(v)) {
      std::ostringstream d;
      d << "mapping has u" << u << " -> v" << v
        << " but the used-bitset bit is clear (stale bitset)";
      report->Add(InvariantClass::kInjectivityBitset, d.str());
    }
    auto [it, inserted] =
        first_owner.emplace(v, static_cast<VertexId>(u));
    ++report->checks_run;
    if (!inserted) {
      std::ostringstream d;
      d << "injectivity broken: u" << it->second << " and u" << u
        << " both map to v" << v;
      report->Add(InvariantClass::kInjectivityBitset, d.str());
    }
  }
  // Every set bit must correspond to a mapped vertex.
  for (std::size_t w = 0; w < used_bits.size(); ++w) {
    std::uint64_t bits = used_bits[w];
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const VertexId v = static_cast<VertexId>(w * 64 + b);
      ++report->checks_run;
      if (first_owner.find(v) == first_owner.end()) {
        std::ostringstream d;
        d << "used-bitset marks v" << v
          << " which no query vertex maps to (stale bitset)";
        report->Add(InvariantClass::kInjectivityBitset, d.str());
      }
    }
  }
}

void AuditEnumeratorState(const Enumerator& enumerator, AuditReport* report) {
  AuditInjectivity(enumerator.mapping_snapshot(), enumerator.used_bitmap(),
                   report);
}

namespace {

// Prefix trie over the work units of one pivot.
struct TrieNode {
  std::map<VertexId, std::unique_ptr<TrieNode>> children;
  bool is_unit = false;
  std::size_t unit_index = 0;
};

// True when the partial embedding `prefix` (matching-order positions
// 0..len-1) extends to at least one full embedding.
bool PrefixHasEmbedding(const Graph& data, const QueryTree& tree,
                        const FlatCeciIndex& index,
                        const EnumOptions& enum_options,
                        std::span<const VertexId> prefix) {
  std::atomic<std::uint64_t> budget{0};
  Enumerator probe(data, tree, index, enum_options);
  probe.SetSharedLimit(&budget, 1);
  return probe.EnumerateFromPrefix(prefix, nullptr) > 0;
}

// Recursively checks one pivot's trie against the extension sets the
// enumeration would actually produce. `mapping` and `prefix` both carry
// the partial embedding of the path to `node` (by query vertex and by
// matching-order position respectively).
void CheckTrie(const TrieNode& node, const Graph& data, const QueryTree& tree,
               const FlatCeciIndex& index, const EnumOptions& enum_options,
               Enumerator* helper, std::vector<VertexId>* mapping,
               std::vector<VertexId>* prefix, AuditReport* report) {
  const auto& order = tree.matching_order();
  if (node.is_unit) {
    ++report->checks_run;
    if (!node.children.empty()) {
      std::ostringstream d;
      d << "work unit #" << node.unit_index
        << " is a proper prefix of another unit (overlapping subtrees)";
      report->Add(InvariantClass::kClusterOverlap, d.str());
    }
    return;  // the unit's enumerator owns this whole subtree
  }
  const std::size_t depth = prefix->size();
  if (depth == order.size()) return;

  const VertexId u_next = order[depth];
  std::vector<VertexId> extensions;
  helper->CollectExtensions(*mapping, u_next, &extensions);

  // Decomposition only descends into extensions with positive cardinality
  // (dead ones cannot reach an embedding; BuildWorkUnits drops them).
  std::vector<VertexId> live;
  for (VertexId v : extensions) {
    if (index.CardinalityOf(u_next, v) > 0) live.push_back(v);
  }

  for (const auto& [v, child] : node.children) {
    ++report->checks_run;
    if (!SortedMember(live, v)) {
      std::ostringstream d;
      d << "work-unit prefix extends u" << u_next << " with v" << v
        << " which is not a live extension of its parent prefix";
      report->Add(InvariantClass::kWorkUnitInvalid, d.str());
    }
  }
  for (VertexId v : live) {
    (*mapping)[u_next] = v;
    prefix->push_back(v);
    auto it = node.children.find(v);
    if (it == node.children.end()) {
      // Cardinality is only an upper bound: decomposition drops subtrees
      // that turn out to hold no embedding. Only a subtree with a real
      // embedding and no covering unit is a gap.
      ++report->checks_run;
      if (PrefixHasEmbedding(data, tree, index, enum_options, *prefix)) {
        std::ostringstream d;
        d << "no work unit covers extension u" << u_next << " -> v" << v
          << " of a decomposed prefix (cluster gap)";
        report->Add(InvariantClass::kClusterGap, d.str());
      }
    } else {
      CheckTrie(*it->second, data, tree, index, enum_options, helper,
                mapping, prefix, report);
    }
    prefix->pop_back();
    (*mapping)[u_next] = kInvalidVertex;
  }
}

}  // namespace

void AuditWorkUnits(const Graph& data, const QueryTree& tree,
                    const FlatCeciIndex& index,
                    const EnumOptions& enum_options,
                    std::span<const WorkUnit> units, AuditReport* report) {
  const auto& order = tree.matching_order();
  const std::span<const VertexId> pivots = index.candidates(tree.root());

  std::map<VertexId, TrieNode> roots;
  for (std::size_t i = 0; i < units.size(); ++i) {
    const WorkUnit& unit = units[i];
    ++report->checks_run;
    if (unit.prefix.empty() || unit.prefix.size() > order.size()) {
      std::ostringstream d;
      d << "work unit #" << i << " has prefix length " << unit.prefix.size()
        << " (expected 1.." << order.size() << ")";
      report->Add(InvariantClass::kWorkUnitInvalid, d.str());
      continue;
    }
    ++report->checks_run;
    if (!SortedMember(pivots, unit.prefix[0])) {
      std::ostringstream d;
      d << "work unit #" << i << " starts at v" << unit.prefix[0]
        << " which is not a cluster pivot";
      report->Add(InvariantClass::kWorkUnitInvalid, d.str());
      continue;
    }
    TrieNode* node = &roots[unit.prefix[0]];
    bool overlapped = false;
    for (std::size_t d = 1; d < unit.prefix.size(); ++d) {
      if (node->is_unit) {
        overlapped = true;  // descending through a complete unit
        break;
      }
      auto& child = node->children[unit.prefix[d]];
      if (child == nullptr) child = std::make_unique<TrieNode>();
      node = child.get();
    }
    ++report->checks_run;
    if (overlapped || node->is_unit) {
      std::ostringstream d;
      d << "work unit #" << i
        << (node->is_unit && !overlapped
                ? " duplicates another unit's prefix"
                : " lies inside another unit's subtree");
      report->Add(InvariantClass::kClusterOverlap, d.str());
      continue;
    }
    node->is_unit = true;
    node->unit_index = i;
  }

  Enumerator helper(data, tree, index, enum_options);
  std::vector<VertexId> mapping(tree.num_vertices(), kInvalidVertex);
  std::vector<VertexId> prefix;

  for (VertexId pivot : pivots) {
    if (index.CardinalityOf(tree.root(), pivot) == 0) continue;
    auto it = roots.find(pivot);
    ++report->checks_run;
    if (it == roots.end()) {
      // Legitimate only when the cluster holds no embedding at all (its
      // decomposition died out); verify by probing for a single one.
      std::atomic<std::uint64_t> budget{0};
      Enumerator probe(data, tree, index, enum_options);
      probe.SetSharedLimit(&budget, 1);
      if (probe.EnumerateCluster(pivot, nullptr) > 0) {
        std::ostringstream d;
        d << "pivot v" << pivot
          << " has embeddings but no work unit covers it (cluster gap)";
        report->Add(InvariantClass::kClusterGap, d.str());
      }
      continue;
    }
    mapping[tree.root()] = pivot;
    prefix.assign(1, pivot);
    CheckTrie(it->second, data, tree, index, enum_options, &helper, &mapping,
              &prefix, report);
    mapping[tree.root()] = kInvalidVertex;
  }
}

void AuditQueryProfile(const QueryTree& tree, const FlatCeciIndex& flat,
                       const QueryProfile& profile, AuditReport* report) {
  ++report->checks_run;
  if (profile.vertices.size() != tree.num_vertices() ||
      flat.num_query_vertices() != tree.num_vertices()) {
    std::ostringstream d;
    d << "profile has " << profile.vertices.size()
      << " vertex records, flat index covers " << flat.num_query_vertices()
      << ", query tree has " << tree.num_vertices();
    report->Add(InvariantClass::kProfileMismatch, d.str());
    return;  // per-vertex comparisons below would misalign
  }

  const auto& order = tree.matching_order();
  std::size_t te_bytes = 0;
  std::size_t nte_bytes = 0;
  std::size_t candidate_bytes = 0;
  std::size_t footprint_bytes = 0;
  for (std::size_t i = 0; i < profile.vertices.size(); ++i) {
    const VertexProfile& vp = profile.vertices[i];
    ++report->checks_run;
    if (vp.order_position != i || vp.u != order[i]) {
      std::ostringstream d;
      d << "record " << i << " claims u" << vp.u << " at position "
        << vp.order_position << ", matching order has u" << order[i];
      report->Add(InvariantClass::kProfileMismatch, d.str());
      continue;
    }
    ++report->checks_run;
    if (vp.candidates_refined != flat.candidates(vp.u).size()) {
      std::ostringstream d;
      d << "u" << vp.u << ": profile reports " << vp.candidates_refined
        << " refined candidates, flat index holds "
        << flat.candidates(vp.u).size();
      report->Add(InvariantClass::kProfileMismatch, d.str());
    }
    const FlatCeciIndex::VertexFootprint f = flat.MemoryFootprint(vp.u);
    ++report->checks_run;
    if (vp.te_keys != f.te_keys || vp.te_edges != f.te_edges ||
        vp.te_bytes != f.te_bytes) {
      std::ostringstream d;
      d << "u" << vp.u << ": profile reports " << vp.te_keys
        << " TE keys / " << vp.te_edges << " TE edges / " << vp.te_bytes
        << " TE bytes, flat slabs hold " << f.te_keys << " / " << f.te_edges
        << " / " << f.te_bytes;
      report->Add(InvariantClass::kProfileMismatch, d.str());
    }
    ++report->checks_run;
    if (vp.nte_lists != f.nte_lists || vp.nte_edges != f.nte_edges ||
        vp.nte_bytes != f.nte_bytes ||
        vp.candidate_bytes != f.candidate_bytes) {
      std::ostringstream d;
      d << "u" << vp.u << ": profile NTE/candidate accounting disagrees "
        << "with the flat slabs";
      report->Add(InvariantClass::kProfileMismatch, d.str());
    }
    te_bytes += vp.te_bytes;
    nte_bytes += vp.nte_bytes;
    candidate_bytes += vp.candidate_bytes;
    footprint_bytes += f.te_bytes + f.nte_bytes + f.candidate_bytes;
  }

  ++report->checks_run;
  if (profile.te_bytes != te_bytes || profile.nte_bytes != nte_bytes ||
      profile.candidate_bytes != candidate_bytes ||
      profile.index_bytes != te_bytes + nte_bytes + candidate_bytes) {
    std::ostringstream d;
    d << "profile byte totals (" << profile.index_bytes
      << ") disagree with per-vertex sums ("
      << te_bytes + nte_bytes + candidate_bytes << ")";
    report->Add(InvariantClass::kProfileMismatch, d.str());
  }
  // Footprint sums equal the arena minus inter-slab alignment padding
  // (< 8 bytes per slab boundary).
  ++report->checks_run;
  const std::size_t max_padding = 8 * FlatCeciIndex::kNumSlabs;
  if (profile.index_bytes > flat.ArenaBytes() ||
      profile.index_bytes + max_padding < flat.ArenaBytes() ||
      profile.index_bytes != footprint_bytes) {
    std::ostringstream d;
    d << "profile measures " << profile.index_bytes
      << " index bytes, flat footprints sum to " << footprint_bytes
      << " in a " << flat.ArenaBytes() << "-byte arena";
    report->Add(InvariantClass::kProfileMismatch, d.str());
  }
}

void AuditMatchResult(const MatchResult& result, AuditReport* report) {
  const BudgetStats& b = result.stats.budget;

  // Reason ↔ flag consistency. kLimit is flagless (the emission limit is
  // a feature, not a budget trip), so it only requires the three budget
  // flags to be clear, same as kCompleted.
  bool flags_ok = true;
  switch (result.termination) {
    case TerminationReason::kCompleted:
    case TerminationReason::kLimit:
      flags_ok =
          !b.deadline_exceeded && !b.memory_exceeded && !b.cancelled;
      break;
    case TerminationReason::kDeadline:
      flags_ok = b.deadline_exceeded;
      break;
    case TerminationReason::kMemoryBudget:
      flags_ok = b.memory_exceeded;
      break;
    case TerminationReason::kCancelled:
      flags_ok = b.cancelled;
      break;
  }
  ++report->checks_run;
  if (!flags_ok) {
    std::ostringstream d;
    d << "termination '" << TerminationReasonName(result.termination)
      << "' disagrees with budget flags (deadline=" << b.deadline_exceeded
      << " memory=" << b.memory_exceeded << " cancelled=" << b.cancelled
      << ")";
    report->Add(InvariantClass::kTerminationAccounting, d.str());
  }

  // A flag implies the matching (or a more specific) non-completed reason.
  ++report->checks_run;
  if ((b.deadline_exceeded || b.memory_exceeded || b.cancelled) &&
      (result.termination == TerminationReason::kCompleted ||
       result.termination == TerminationReason::kLimit)) {
    std::ostringstream d;
    d << "budget flag set but termination is '"
      << TerminationReasonName(result.termination) << "'";
    report->Add(InvariantClass::kTerminationAccounting, d.str());
  }

  ++report->checks_run;
  if (result.embedding_count != result.stats.enumeration.embeddings) {
    std::ostringstream d;
    d << "result reports " << result.embedding_count
      << " embeddings, enumeration stats hold "
      << result.stats.enumeration.embeddings;
    report->Add(InvariantClass::kTerminationAccounting, d.str());
  }

  // Per-worker counts, when collected, must partition the total. A run
  // that trips mid-build/mid-refine never schedules workers and leaves
  // the vector empty — that is consistent with a zero total only.
  if (!result.stats.worker_embeddings.empty()) {
    std::uint64_t sum = 0;
    for (std::uint64_t e : result.stats.worker_embeddings) sum += e;
    ++report->checks_run;
    if (sum != result.embedding_count) {
      std::ostringstream d;
      d << "per-worker embeddings sum to " << sum << ", result reports "
        << result.embedding_count;
      report->Add(InvariantClass::kTerminationAccounting, d.str());
    }
  }
}

}  // namespace ceci
