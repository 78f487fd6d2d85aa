// Differential tests for the vectorized intersection kernel layer: every
// compiled-in dispatch tier (scalar merge, SSE4, AVX2) must be bit-identical
// to the scalar oracle on adversarial list shapes — empty lists, disjoint
// ranges, full overlap, block-boundary sizes, dense and sparse random
// draws. Runs under the CECI_SANITIZE configs like every other test, and is
// re-run with CECI_FORCE_SCALAR=1 by `scripts/tier1.sh --scalar`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "util/intersection.h"

namespace ceci {
namespace {

using List = std::vector<std::uint32_t>;

constexpr IntersectionArch kAllArches[] = {
    IntersectionArch::kScalar, IntersectionArch::kSse4,
    IntersectionArch::kAvx2};

List Oracle(const List& a, const List& b) {
  List out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

List MakeSorted(std::size_t n, std::uint32_t max, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  List v(n);
  std::uniform_int_distribution<std::uint32_t> pick(0, max);
  for (auto& x : v) x = pick(rng);
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

List Iota(std::uint32_t start, std::size_t n, std::uint32_t stride = 1) {
  List v(n);
  std::uint32_t x = start;
  for (auto& e : v) {
    e = x;
    x += stride;
  }
  return v;
}

// Runs every available tier against the oracle for one (a, b) pair; the
// scalar tier must always be available.
void ExpectAllArchesAgree(const List& a, const List& b) {
  const List expected = Oracle(a, b);
  ASSERT_TRUE(IntersectionArchAvailable(IntersectionArch::kScalar));
  List out;
  for (IntersectionArch arch : kAllArches) {
    if (!IntersectionArchAvailable(arch)) continue;
    SCOPED_TRACE(IntersectionArchName(arch));
    ASSERT_TRUE(IntersectSortedWithArch(arch, a, b, &out));
    EXPECT_EQ(out, expected);
    ASSERT_TRUE(IntersectSortedWithArch(arch, b, a, &out));
    EXPECT_EQ(out, expected);
    std::size_t size = ~std::size_t{0};
    ASSERT_TRUE(IntersectionSizeWithArch(arch, a, b, &size));
    EXPECT_EQ(size, expected.size());
    ASSERT_TRUE(IntersectionSizeWithArch(arch, b, a, &size));
    EXPECT_EQ(size, expected.size());
  }
  // Public entry points exercise whatever dispatch selected, plus the
  // galloping heuristic and the in-place alias contract.
  IntersectSorted(a, b, &out);
  EXPECT_EQ(out, expected);
  EXPECT_EQ(IntersectionSize(a, b), expected.size());
  List inout = a;
  IntersectSortedInPlace(&inout, b);
  EXPECT_EQ(inout, expected);
}

TEST(IntersectionKernelTest, DispatchReportsAValidTier) {
  const IntersectionArch active = ActiveIntersectionArch();
  EXPECT_TRUE(IntersectionArchAvailable(active))
      << IntersectionArchName(active);
  EXPECT_TRUE(IntersectionArchAvailable(IntersectionArch::kScalar));
  EXPECT_STREQ(IntersectionArchName(IntersectionArch::kScalar), "scalar");
  EXPECT_STREQ(IntersectionArchName(IntersectionArch::kSse4), "sse4");
  EXPECT_STREQ(IntersectionArchName(IntersectionArch::kAvx2), "avx2");
}

TEST(IntersectionKernelTest, UnavailableArchReturnsFalse) {
  // On a machine without AVX2 the hook must refuse rather than crash; where
  // it is available this just re-checks the contract returns true.
  List a = Iota(0, 16);
  List out;
  std::size_t size;
  const bool have = IntersectionArchAvailable(IntersectionArch::kAvx2);
  EXPECT_EQ(IntersectSortedWithArch(IntersectionArch::kAvx2, a, a, &out),
            have);
  EXPECT_EQ(IntersectionSizeWithArch(IntersectionArch::kAvx2, a, a, &size),
            have);
}

TEST(IntersectionKernelTest, EmptyInputs) {
  ExpectAllArchesAgree({}, {});
  ExpectAllArchesAgree({}, Iota(0, 100));
  ExpectAllArchesAgree(Iota(0, 100), {});
}

TEST(IntersectionKernelTest, DisjointRanges) {
  ExpectAllArchesAgree(Iota(0, 100), Iota(1000, 100));
  // Interleaved but never equal: maximal compare work, zero matches.
  ExpectAllArchesAgree(Iota(0, 200, 2), Iota(1, 200, 2));
}

TEST(IntersectionKernelTest, FullOverlap) {
  for (std::size_t n : {1u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 64u,
                        1000u}) {
    SCOPED_TRACE(n);
    List a = Iota(42, n);
    ExpectAllArchesAgree(a, a);
  }
}

TEST(IntersectionKernelTest, BlockBoundaryTails) {
  // Sizes straddling the 4- and 8-lane block widths, with partial overlap
  // concentrated at the tails.
  for (std::size_t na : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 11u, 12u, 13u,
                         15u, 16u, 17u, 31u, 33u}) {
    for (std::size_t nb : {1u, 4u, 7u, 8u, 9u, 16u, 17u, 33u}) {
      SCOPED_TRACE(na);
      SCOPED_TRACE(nb);
      ExpectAllArchesAgree(Iota(0, na, 3), Iota(0, nb, 2));
    }
  }
}

TEST(IntersectionKernelTest, OneSharedElementAtEachPosition) {
  // A single match placed at every lane position of an 8-wide block.
  const List b = Iota(1000, 64);
  for (std::uint32_t at = 0; at < 24; ++at) {
    SCOPED_TRACE(at);
    List a = Iota(0, 24, 7);  // disjoint from b's range
    a[at] = 1000 + at;        // still strictly increasing: 7*at > at
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    ExpectAllArchesAgree(a, b);
  }
}

struct FuzzConfig {
  std::size_t max_len;
  std::uint32_t universe;
  const char* label;
};

class IntersectionKernelFuzz
    : public ::testing::TestWithParam<std::tuple<FuzzConfig, int>> {};

TEST_P(IntersectionKernelFuzz, AllTiersMatchScalarOracle) {
  const auto& [config, seed] = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  for (int round = 0; round < 40; ++round) {
    const std::size_t na = rng() % (config.max_len + 1);
    const std::size_t nb = rng() % (config.max_len + 1);
    List a = MakeSorted(na, config.universe, rng());
    List b = MakeSorted(nb, config.universe, rng());
    ExpectAllArchesAgree(a, b);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IntersectionKernelFuzz,
    ::testing::Combine(
        ::testing::Values(
            FuzzConfig{64, 80, "dense_small"},
            FuzzConfig{64, 100000, "sparse_small"},
            FuzzConfig{600, 700, "dense_medium"},
            FuzzConfig{600, 40000, "mixed_medium"},
            FuzzConfig{3000, 3500, "dense_large"},
            FuzzConfig{3000, 10000000, "sparse_large"}),
        ::testing::Range(0, 4)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).label) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

TEST(IntersectionKernelTest, SkewedSizesExerciseGallopPath) {
  // Size ratio far past the gallop threshold; the public API must agree
  // with the oracle regardless of which path dispatch takes.
  std::mt19937_64 rng(99);
  List small = MakeSorted(40, 1 << 22, rng());
  List large = MakeSorted(200000, 1 << 22, rng());
  for (std::uint32_t x : small) {
    large.push_back(x);  // guarantee some matches
  }
  std::sort(large.begin(), large.end());
  large.erase(std::unique(large.begin(), large.end()), large.end());
  ExpectAllArchesAgree(small, large);
}

TEST(IntersectionKernelTest, MultiWayShortCircuitsEmptyAndSingle) {
  std::vector<std::uint32_t> out = {7, 7, 7};
  // k = 0: cleared, no scratch involved.
  IntersectSortedMulti({}, &out);
  EXPECT_TRUE(out.empty());
  // k = 1: straight copy.
  List only = Iota(5, 13);
  std::vector<std::span<const std::uint32_t>> lists = {only};
  IntersectSortedMulti(lists, &out);
  EXPECT_EQ(out, only);
  // k = 1 with an empty list.
  List empty;
  lists = {empty};
  IntersectSortedMulti(lists, &out);
  EXPECT_TRUE(out.empty());
}

TEST(IntersectionKernelTest, MultiWayAndCountAgreeOnRandomLists) {
  std::mt19937_64 rng(4242);
  for (int round = 0; round < 200; ++round) {
    const std::size_t k = 2 + rng() % 5;
    std::vector<List> storage;
    storage.reserve(k);
    const std::uint32_t universe = 50 + rng() % 2000;
    for (std::size_t i = 0; i < k; ++i) {
      storage.push_back(MakeSorted(rng() % 400, universe, rng()));
    }
    std::vector<std::span<const std::uint32_t>> lists(storage.begin(),
                                                      storage.end());
    List expected = storage[0];
    for (std::size_t i = 1; i < k; ++i) {
      expected = Oracle(expected, storage[i]);
    }
    List out;
    IntersectSortedMulti(lists, &out);
    EXPECT_EQ(out, expected);
    if (k == 2) {
      EXPECT_EQ(IntersectionSize(lists[0], lists[1]), expected.size());
    }
  }
}

}  // namespace
}  // namespace ceci
