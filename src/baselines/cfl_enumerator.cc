#include "baselines/cfl_enumerator.h"

#include <algorithm>
#include <vector>

#include "ceci/ceci_builder.h"
#include "ceci/preprocess.h"
#include "ceci/refinement.h"
#include "ceci/symmetry.h"
#include "util/logging.h"
#include "util/timer.h"

namespace ceci {
namespace {

// Bit-packed |V|x|V| adjacency matrix (CFLMatch's edge-verification
// structure; memory-quadratic, hence the small-graph limit).
class AdjacencyMatrix {
 public:
  explicit AdjacencyMatrix(const Graph& g) : n_(g.num_vertices()) {
    bits_.assign((n_ * n_ + 63) / 64, 0);
    for (VertexId v = 0; v < n_; ++v) {
      for (VertexId w : g.neighbors(v)) {
        std::size_t bit = static_cast<std::size_t>(v) * n_ + w;
        bits_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
      }
    }
  }

  bool Has(VertexId v, VertexId w) const {
    std::size_t bit = static_cast<std::size_t>(v) * n_ + w;
    return (bits_[bit >> 6] >> (bit & 63)) & 1;
  }

 private:
  std::size_t n_;
  std::vector<std::uint64_t> bits_;
};

class CflEngine {
 public:
  CflEngine(const Graph& data, const QueryTree& tree, const CeciIndex& index,
            const SymmetryConstraints& symmetry,
            const AdjacencyMatrix* matrix, const CflOptions& options,
            const EmbeddingVisitor* visitor, CflResult* result)
      : data_(data),
        tree_(tree),
        index_(index),
        symmetry_(symmetry),
        matrix_(matrix),
        options_(options),
        visitor_(visitor),
        result_(result) {
    mapping_.assign(tree.num_vertices(), kInvalidVertex);
  }

  void Run() {
    for (VertexId pivot : index_.pivots(tree_)) {
      mapping_[tree_.root()] = pivot;
      if (!Recurse(1)) break;
    }
    mapping_[tree_.root()] = kInvalidVertex;
  }

 private:
  bool VerifyEdge(VertexId v, VertexId w) {
    ++result_->edge_verifications;
    return matrix_ != nullptr ? matrix_->Has(v, w) : data_.HasEdge(v, w);
  }

  bool Recurse(std::size_t pos) {
    ++result_->recursive_calls;
    const auto& order = tree_.matching_order();
    if (pos == order.size()) {
      ++result_->embeddings;
      if (visitor_ != nullptr && !(*visitor_)(mapping_)) return false;
      return options_.limit == 0 || result_->embeddings < options_.limit;
    }
    const VertexId u = order[pos];
    auto te = index_.at(u).te.Find(mapping_[tree_.parent(u)]);
    const auto nte_ids = tree_.nte_in(u);
    for (VertexId v : te) {
      bool ok = true;
      for (VertexId m : mapping_) {
        if (m == v) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      for (VertexId w : symmetry_.must_be_less(u)) {
        if (mapping_[w] != kInvalidVertex && mapping_[w] >= v) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      for (VertexId w : symmetry_.must_be_greater(u)) {
        if (mapping_[w] != kInvalidVertex && mapping_[w] <= v) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      for (std::uint32_t e : nte_ids) {
        const VertexId u_n = tree_.non_tree_edges()[e].parent;
        if (!VerifyEdge(v, mapping_[u_n])) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      mapping_[u] = v;
      bool keep_going = Recurse(pos + 1);
      mapping_[u] = kInvalidVertex;
      if (!keep_going) return false;
    }
    return true;
  }

  const Graph& data_;
  const QueryTree& tree_;
  const CeciIndex& index_;
  const SymmetryConstraints& symmetry_;
  const AdjacencyMatrix* matrix_;
  const CflOptions& options_;
  const EmbeddingVisitor* visitor_;
  CflResult* result_;
  std::vector<VertexId> mapping_;
};

}  // namespace

class CflMatcher::Impl {
 public:
  Impl(const Graph& data, const NlcIndex& nlc, std::size_t matrix_max)
      : data_(data), nlc_(nlc) {
    if (data.num_vertices() <= matrix_max) {
      matrix_ = std::make_unique<AdjacencyMatrix>(data);
    }
  }

  CflResult Run(const Graph& query, const CflOptions& options,
                const EmbeddingVisitor* visitor) const {
    Timer timer;
    CflResult result;
    result.used_matrix = matrix_ != nullptr;

    PreprocessOptions pre_options;
    auto pre = Preprocess(data_, nlc_, query, pre_options);
    CECI_CHECK(pre.ok()) << pre.status().ToString();
    if (pre->infeasible) {
      result.seconds = timer.Seconds();
      return result;
    }

    // CPI: TE candidates only.
    BuildOptions build_options;
    build_options.build_nte_lists = false;
    build_options.root_candidates = &pre->root_candidates;
    build_options.filter_table = &pre->filter;
    CeciBuilder builder(data_, nlc_);
    CeciIndex index = builder.Build(query, pre->tree, build_options, nullptr);
    pre->ReleaseBuildInputs();
    RefineCeci(pre->tree, data_.num_vertices(), &index, nullptr);

    SymmetryConstraints symmetry =
        options.break_automorphisms
            ? SymmetryConstraints::Compute(query)
            : SymmetryConstraints::None(query.num_vertices());

    CflResult engine_result = result;
    CflEngine engine(data_, pre->tree, index, symmetry, matrix_.get(),
                     options, visitor, &engine_result);
    engine.Run();
    engine_result.seconds = timer.Seconds();
    return engine_result;
  }

 private:
  const Graph& data_;
  const NlcIndex& nlc_;
  std::unique_ptr<AdjacencyMatrix> matrix_;
};

CflMatcher::CflMatcher(const Graph& data, const NlcIndex& data_nlc,
                       std::size_t matrix_max_vertices)
    : impl_(std::make_unique<Impl>(data, data_nlc, matrix_max_vertices)) {}

CflMatcher::~CflMatcher() = default;

CflResult CflMatcher::Run(const Graph& query, const CflOptions& options,
                          const EmbeddingVisitor* visitor) const {
  return impl_->Run(query, options, visitor);
}

CflResult CflCount(const Graph& data, const NlcIndex& data_nlc,
                   const Graph& query, const CflOptions& options,
                   const EmbeddingVisitor* visitor) {
  CflMatcher matcher(data, data_nlc, options.matrix_max_vertices);
  return matcher.Run(query, options, visitor);
}

}  // namespace ceci
