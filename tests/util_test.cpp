// Unit tests for src/util: RNG, bit ops, tables, thread pool.
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/bitops.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace onebit::util {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(1234);
  SplitMix64 b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsProduceDifferentStreams) {
  Rng a(42);
  Rng b(43);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversSmallRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(4));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIsInHalfOpenUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng parent(99);
  Rng childA = parent.fork(1);
  Rng childB = parent.fork(1);
  Rng childC = parent.fork(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(childA.next(), childB.next());
  EXPECT_NE(childA.next(), childC.next());
}

TEST(HashCombine, OrderMatters) {
  EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

TEST(HashCombine, Deterministic) {
  EXPECT_EQ(hashCombine(123, 456), hashCombine(123, 456));
}

// --- bitops -----------------------------------------------------------------

class FlipBitProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(FlipBitProperty, DoubleFlipIsIdentity) {
  const unsigned bit = GetParam();
  const std::uint64_t v = 0xdeadbeefcafe1234ULL;
  EXPECT_EQ(flipBit(flipBit(v, bit), bit), v);
}

TEST_P(FlipBitProperty, FlipChangesExactlyOneBit) {
  const unsigned bit = GetParam();
  const std::uint64_t v = 0x0123456789abcdefULL;
  const std::uint64_t diff = v ^ flipBit(v, bit);
  EXPECT_EQ(diff, 1ULL << bit);
}

INSTANTIATE_TEST_SUITE_P(AllBits, FlipBitProperty,
                         ::testing::Values(0u, 1u, 7u, 8u, 15u, 31u, 32u, 47u,
                                           62u, 63u));

TEST(Bitops, FlipMaskIsInvolution) {
  const std::uint64_t v = 42;
  const std::uint64_t m = 0xff00ff00ff00ff00ULL;
  EXPECT_EQ(flipMask(flipMask(v, m), m), v);
}

class PickDistinctBitsProperty
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(PickDistinctBitsProperty, BitsAreDistinctAndInRange) {
  const auto [width, count] = GetParam();
  Rng rng(31 + width * 64 + count);
  for (int rep = 0; rep < 20; ++rep) {
    const auto bits = pickDistinctBits(rng, width, count);
    EXPECT_EQ(bits.size(), std::min(count, width));
    std::set<unsigned> unique(bits.begin(), bits.end());
    EXPECT_EQ(unique.size(), bits.size());
    for (const unsigned b : bits) EXPECT_LT(b, width);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PickDistinctBitsProperty,
    ::testing::Values(std::pair{64u, 1u}, std::pair{64u, 2u},
                      std::pair{64u, 5u}, std::pair{64u, 30u},
                      std::pair{64u, 64u}, std::pair{64u, 100u},
                      std::pair{8u, 3u}, std::pair{8u, 8u},
                      std::pair{1u, 1u}));

TEST(Bitops, MaskFromBitsSetsPopcount) {
  const std::vector<unsigned> bits = {0, 5, 63};
  const std::uint64_t mask = maskFromBits(bits);
  EXPECT_EQ(mask, (1ULL << 0) | (1ULL << 5) | (1ULL << 63));
}

TEST(Bitops, MaskFromEmptyIsZero) {
  EXPECT_EQ(maskFromBits({}), 0u);
}

// --- table ------------------------------------------------------------------

TEST(TextTable, RendersHeaderAndRows) {
  TextTable t({"name", "value"});
  t.addRow({"alpha", "1"});
  t.addRow({"b", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TextTable, ShortRowsArePadded) {
  TextTable t({"a", "b", "c"});
  t.addRow({"x"});
  EXPECT_NO_THROW(t.render());
  EXPECT_NO_THROW(t.renderCsv());
}

TEST(TextTable, CsvEscapesSpecialCharacters) {
  TextTable t({"k", "v"});
  t.addRow({"with,comma", "with\"quote"});
  const std::string csv = t.renderCsv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Format, Percent) {
  EXPECT_EQ(fmtPercent(0.1234, 1), "12.3%");
  EXPECT_EQ(fmtPercent(1.0, 0), "100%");
}

TEST(Format, Double) {
  EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
}

// --- thread pool -------------------------------------------------------------

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&counter] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(256);
  pool.parallelFor(hits.size(),
                   [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitIsIdempotent) {
  ThreadPool pool(2);
  pool.wait();
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; });
  pool.wait();
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_GE(pool.threadCount(), 1u);
}

TEST(ThreadPool, AbsurdThreadRequestIsClamped) {
  // A negative value cast to size_t must not abort in vector::reserve.
  ThreadPool pool(static_cast<std::size_t>(-1));
  EXPECT_EQ(pool.threadCount(), ThreadPool::kMaxThreads);
}

TEST(ThreadPool, ParallelForZeroIsANoOp) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.parallelFor(0, [&counter](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 0);
}

TEST(ThreadPool, ParallelForZeroDoesNotWaitForUnrelatedTasks) {
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  pool.submit([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  pool.parallelFor(0, [](std::size_t) {});  // must return while task blocks
  release.store(true);
  pool.wait();
}

TEST(ThreadPool, ParallelForSingleIndex) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::atomic<std::size_t> seenIndex{99};
  pool.parallelFor(1, [&](std::size_t i) {
    ++counter;
    seenIndex = i;
  });
  EXPECT_EQ(counter.load(), 1);
  EXPECT_EQ(seenIndex.load(), 0u);
}

TEST(ThreadPool, ParallelForManyMoreTasksThanThreads) {
  ThreadPool pool(2);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallelFor(kN, [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, BackToBackParallelForsReuseWorkers) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 20; ++round) {
    pool.parallelFor(64, [&counter](std::size_t) { ++counter; });
  }
  EXPECT_EQ(counter.load(), 20 * 64);
}

TEST(ThreadPool, TeardownDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) pool.submit([&counter] { ++counter; });
    // Destructor runs with tasks still queued; all must complete.
  }
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, ConcurrentSubmittersAndWaiters) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &counter] {
      for (int i = 0; i < kPerProducer; ++i) {
        pool.submit([&counter] { ++counter; });
      }
      pool.wait();  // waiters racing with other producers' submissions
    });
  }
  for (auto& t : producers) t.join();
  pool.wait();
  EXPECT_EQ(counter.load(), kProducers * kPerProducer);
}

}  // namespace
}  // namespace onebit::util
