#include "ceci/symmetry.h"

#include <algorithm>
#include <utility>

namespace ceci {
namespace {

// Backtracking enumerator for Aut(G_q). Queries are small (benchmark
// queries have 3-50 vertices and labels prune hard), but a budget guards
// against pathological symmetric inputs.
class AutomorphismSearch {
 public:
  explicit AutomorphismSearch(const Graph& query) : query_(query) {}

  // Returns false if the budget was exhausted.
  bool Run(std::vector<std::vector<VertexId>>* automorphisms) {
    const std::size_t n = query_.num_vertices();
    mapping_.assign(n, kInvalidVertex);
    used_.assign(n, 0);
    automorphisms_ = automorphisms;
    budget_ok_ = true;
    Extend(0);
    return budget_ok_;
  }

 private:
  static constexpr std::size_t kBudget = 1 << 20;

  bool Feasible(VertexId u, VertexId image) {
    if (query_.degree(u) != query_.degree(image)) return false;
    auto lu = query_.labels(u);
    auto li = query_.labels(image);
    if (!std::equal(lu.begin(), lu.end(), li.begin(), li.end())) return false;
    // Edges to already-mapped vertices must be preserved both ways; equal
    // degrees make one-directional checking sufficient per mapped pair.
    for (VertexId w : query_.neighbors(u)) {
      if (mapping_[w] != kInvalidVertex &&
          !query_.HasEdge(image, mapping_[w])) {
        return false;
      }
    }
    return true;
  }

  void Extend(VertexId u) {
    if (!budget_ok_) return;
    if (++steps_ > kBudget) {
      budget_ok_ = false;
      return;
    }
    const std::size_t n = query_.num_vertices();
    if (u == n) {
      automorphisms_->push_back(mapping_);
      return;
    }
    for (VertexId image = 0; image < n; ++image) {
      if (used_[image] || !Feasible(u, image)) continue;
      mapping_[u] = image;
      used_[image] = 1;
      Extend(u + 1);
      mapping_[u] = kInvalidVertex;
      used_[image] = 0;
      if (!budget_ok_) return;
    }
  }

  const Graph& query_;
  std::vector<VertexId> mapping_;
  std::vector<char> used_;
  std::vector<std::vector<VertexId>>* automorphisms_ = nullptr;
  std::size_t steps_ = 0;
  bool budget_ok_ = true;
};

}  // namespace

SymmetryConstraints SymmetryConstraints::Compute(const Graph& query) {
  const std::size_t n = query.num_vertices();
  std::vector<std::vector<VertexId>> autos;
  AutomorphismSearch search(query);
  if (!search.Run(&autos)) {
    // Budget exhausted: disable breaking (safe, just redundant listing).
    return None(n);
  }

  SymmetryConstraints out;
  out.automorphism_count_ = autos.size();

  // Grochow–Kellis: fix vertices in increasing id order. At each step the
  // current group is the pointwise stabilizer of all previously fixed
  // vertices; emit v < w for every w in v's orbit and keep only
  // permutations fixing v.
  std::vector<std::vector<VertexId>> group = std::move(autos);
  for (VertexId v = 0; v < n && group.size() > 1; ++v) {
    std::vector<char> in_orbit(n, 0);
    for (const auto& perm : group) in_orbit[perm[v]] = 1;
    std::size_t orbit_size = 0;
    for (VertexId w = 0; w < n; ++w) orbit_size += in_orbit[w];
    if (orbit_size > 1) {
      for (VertexId w = 0; w < n; ++w) {
        if (w != v && in_orbit[w]) {
          out.constraints_.push_back(Constraint{v, w});
        }
      }
    }
    // Restrict to the stabilizer of v.
    std::vector<std::vector<VertexId>> stab;
    for (auto& perm : group) {
      if (perm[v] == v) stab.push_back(std::move(perm));
    }
    group = std::move(stab);
  }

  out.IndexConstraints(n);
  return out;
}

SymmetryConstraints SymmetryConstraints::None(std::size_t num_query_vertices) {
  SymmetryConstraints out;
  out.automorphism_count_ = 0;
  out.IndexConstraints(num_query_vertices);
  return out;
}

SymmetryConstraints SymmetryConstraints::FromPairs(
    std::size_t num_query_vertices, std::vector<Constraint> constraints,
    std::size_t automorphism_count, bool mirrored) {
  SymmetryConstraints out;
  out.constraints_ = std::move(constraints);
  out.automorphism_count_ = automorphism_count;
  out.mirrored_ = mirrored;
  out.IndexConstraints(num_query_vertices);
  return out;
}

SymmetryConstraints SymmetryConstraints::Mirrored() const {
  std::vector<Constraint> flipped;
  flipped.reserve(constraints_.size());
  for (const Constraint& c : constraints_) {
    flipped.push_back(Constraint{c.larger, c.smaller});
  }
  return FromPairs(lower_than_.size(), std::move(flipped), automorphism_count_,
                   !mirrored_);
}

void SymmetryConstraints::IndexConstraints(std::size_t n) {
  lower_than_.assign(n, {});
  higher_than_.assign(n, {});
  for (const Constraint& c : constraints_) {
    lower_than_[c.larger].push_back(c.smaller);
    higher_than_[c.smaller].push_back(c.larger);
  }
}

}  // namespace ceci
