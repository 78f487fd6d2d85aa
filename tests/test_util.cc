// Unit tests for util: Status/Result, intersection kernels, thread pool,
// CRC-32.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>
#include <set>

#include "graph/types.h"
#include "util/crc32.h"
#include "util/intersection.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ceci {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad root");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad root");
}

TEST(StatusTest, AllErrorFactories) {
  EXPECT_EQ(Status::NotFound("x").code(), Status::Code::kNotFound);
  EXPECT_EQ(Status::IoError("x").code(), Status::Code::kIoError);
  EXPECT_EQ(Status::Corruption("x").code(), Status::Code::kCorruption);
  EXPECT_EQ(Status::Unimplemented("x").code(), Status::Code::kUnimplemented);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
}

TEST(ResultDeathTest, ValueOnErrorAbortsWithStatus) {
  // value() on an error is a programming bug; the failure message must
  // carry the underlying status so the crash is diagnosable.
  Result<int> r = Status::NotFound("the thing is gone");
  EXPECT_DEATH({ (void)r.value(); }, "the thing is gone");
}

std::vector<std::uint32_t> SortedRandom(std::size_t n, std::uint32_t max,
                                        std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::set<std::uint32_t> s;
  std::uniform_int_distribution<std::uint32_t> pick(0, max);
  while (s.size() < n) s.insert(pick(rng));
  return {s.begin(), s.end()};
}

std::vector<std::uint32_t> ReferenceIntersect(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

TEST(IntersectionTest, BasicOverlap) {
  std::vector<std::uint32_t> a = {1, 3, 5, 7, 9};
  std::vector<std::uint32_t> b = {3, 4, 5, 9, 12};
  std::vector<std::uint32_t> out;
  IntersectSorted(a, b, &out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{3, 5, 9}));
  EXPECT_EQ(IntersectionSize(a, b), 3u);
}

TEST(IntersectionTest, EmptyInputs) {
  std::vector<std::uint32_t> a = {1, 2, 3};
  std::vector<std::uint32_t> empty;
  std::vector<std::uint32_t> out = {99};
  IntersectSorted(a, empty, &out);
  EXPECT_TRUE(out.empty());
  IntersectSorted(empty, a, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(IntersectionSize(a, empty), 0u);
}

TEST(IntersectionTest, DisjointInputs) {
  std::vector<std::uint32_t> a = {1, 2, 3};
  std::vector<std::uint32_t> b = {4, 5, 6};
  std::vector<std::uint32_t> out;
  IntersectSorted(a, b, &out);
  EXPECT_TRUE(out.empty());
}

TEST(IntersectionTest, GallopingPathMatchesMerge) {
  // Small vs huge triggers the galloping path.
  auto small = SortedRandom(20, 1 << 20, 7);
  auto large = SortedRandom(5000, 1 << 20, 8);
  std::vector<std::uint32_t> out;
  IntersectSorted(small, large, &out);
  EXPECT_EQ(out, ReferenceIntersect(small, large));
  EXPECT_EQ(IntersectionSize(small, large), out.size());
}

TEST(IntersectionTest, InPlaceMatchesReference) {
  auto a = SortedRandom(300, 1000, 1);
  auto b = SortedRandom(400, 1000, 2);
  auto inout = a;
  IntersectSortedInPlace(&inout, b);
  EXPECT_EQ(inout, ReferenceIntersect(a, b));
}

TEST(IntersectionTest, InPlaceWithEmpty) {
  std::vector<std::uint32_t> inout = {1, 2, 3};
  IntersectSortedInPlace(&inout, {});
  EXPECT_TRUE(inout.empty());
}

TEST(IntersectionTest, MultiWay) {
  std::vector<std::uint32_t> a = {1, 2, 3, 4, 5, 6};
  std::vector<std::uint32_t> b = {2, 4, 6, 8};
  std::vector<std::uint32_t> c = {2, 3, 4, 6, 7};
  std::vector<std::span<const std::uint32_t>> lists = {a, b, c};
  std::vector<std::uint32_t> out;
  IntersectSortedMulti(lists, &out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{2, 4, 6}));
}

TEST(IntersectionTest, MultiWaySingleList) {
  std::vector<std::uint32_t> a = {5, 9};
  std::vector<std::span<const std::uint32_t>> lists = {a};
  std::vector<std::uint32_t> out;
  IntersectSortedMulti(lists, &out);
  EXPECT_EQ(out, a);
}

TEST(IntersectionTest, MultiWayShortCircuitsOnEmpty) {
  std::vector<std::uint32_t> a = {1, 2};
  std::vector<std::uint32_t> b;
  std::vector<std::uint32_t> c = {1};
  std::vector<std::span<const std::uint32_t>> lists = {a, b, c};
  std::vector<std::uint32_t> out;
  IntersectSortedMulti(lists, &out);
  EXPECT_TRUE(out.empty());
}

TEST(IntersectionTest, SortedContains) {
  std::vector<std::uint32_t> a = {2, 4, 8};
  EXPECT_TRUE(SortedContains(a, 4));
  EXPECT_FALSE(SortedContains(a, 5));
  EXPECT_FALSE(SortedContains({}, 5));
}

class IntersectionRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(IntersectionRandomTest, MatchesStdSetIntersection) {
  const int seed = GetParam();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> size_pick(0, 400);
  auto a = SortedRandom(size_pick(rng), 1 << 12, seed * 2 + 1);
  auto b = SortedRandom(size_pick(rng), 1 << 12, seed * 2 + 2);
  std::vector<std::uint32_t> out;
  IntersectSorted(a, b, &out);
  EXPECT_EQ(out, ReferenceIntersect(a, b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntersectionRandomTest,
                         ::testing::Range(0, 25));

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, 16, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, 1, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  EXPECT_GE(t.Seconds(), 0.0);
  t.Reset();
  EXPECT_LT(t.Seconds(), 1.0);
}

TEST(SaturatingArithmeticTest, AddSaturates) {
  EXPECT_EQ(SaturatingAdd(1, 2), 3u);
  EXPECT_EQ(SaturatingAdd(kCardinalityCap, 1), kCardinalityCap);
  EXPECT_EQ(SaturatingAdd(kCardinalityCap - 1, 5), kCardinalityCap);
}

TEST(SaturatingArithmeticTest, MulSaturates) {
  EXPECT_EQ(SaturatingMul(3, 4), 12u);
  EXPECT_EQ(SaturatingMul(0, kCardinalityCap), 0u);
  EXPECT_EQ(SaturatingMul(kCardinalityCap, 2), kCardinalityCap);
  EXPECT_EQ(SaturatingMul(Cardinality{1} << 31, Cardinality{1} << 32),
            kCardinalityCap);
}

/// Bit-at-a-time CRC-32 straight from the polynomial: the definition the
/// table-driven Crc32 must reproduce.
std::uint32_t BitwiseCrc32(const std::uint8_t* p, std::size_t size,
                           std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32Test, KnownVectors) {
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog", 43),
            0x414FA339u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  std::mt19937 rng(0xc3c);
  std::vector<std::uint8_t> buf(4096 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const std::uint8_t* p = buf.data() + offset;
    // The reference for length len extends the one for len - 1 by a byte.
    std::uint32_t expected = 0;
    for (std::size_t len = 0; len <= 4096; ++len) {
      if (len > 0) expected = BitwiseCrc32(p + len - 1, 1, expected);
      ASSERT_EQ(Crc32(p, len), expected) << "offset " << offset << " len "
                                         << len;
    }
  }
}

TEST(Crc32Test, ChainedSeedsEqualOneShot) {
  std::mt19937 rng(0x5eed);
  std::vector<std::uint8_t> buf(4096);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  const std::uint32_t whole = Crc32(buf.data(), buf.size());
  ASSERT_EQ(whole, BitwiseCrc32(buf.data(), buf.size(), 0));
  std::uniform_int_distribution<std::size_t> cut(0, buf.size());
  for (int trial = 0; trial < 200; ++trial) {
    std::size_t a = cut(rng);
    std::size_t b = cut(rng);
    if (a > b) std::swap(a, b);
    std::uint32_t crc = Crc32(buf.data(), a);
    crc = Crc32(buf.data() + a, b - a, crc);
    crc = Crc32(buf.data() + b, buf.size() - b, crc);
    ASSERT_EQ(crc, whole) << "cuts " << a << ", " << b;
    // An arbitrary seed chains the same way in both implementations.
    const auto seed = static_cast<std::uint32_t>(rng());
    ASSERT_EQ(Crc32(buf.data() + a, b - a, seed),
              BitwiseCrc32(buf.data() + a, b - a, seed));
  }
}

}  // namespace
}  // namespace ceci
