// Constant-time Maximum (Fig 4) — all CW methods must agree with the
// sequential reference on every input, at every thread count.
#include "algorithms/max.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "algorithms/dispatch.hpp"
#include "util/rng.hpp"

namespace crcw::algo {
namespace {

std::vector<std::uint32_t> random_list(std::uint64_t n, std::uint64_t seed,
                                       std::uint32_t bound) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint32_t> xs(n);
  for (auto& x : xs) x = static_cast<std::uint32_t>(rng.bounded(bound));
  return xs;
}

TEST(MaxSeq, BasicAndTies) {
  const std::vector<std::uint32_t> xs = {3, 9, 2, 9, 5};
  EXPECT_EQ(max_index_seq(xs), 3u) << "ties go to the last occurrence (Fig 4)";
  const std::vector<std::uint32_t> single = {42};
  EXPECT_EQ(max_index_seq(single), 0u);
}

TEST(MaxSeq, EmptyThrows) {
  EXPECT_THROW((void)max_index_seq({}), std::invalid_argument);
}

TEST(MaxReduce, MatchesSeq) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto xs = random_list(777, seed, 1000);
    EXPECT_EQ(max_index_reduce(xs), max_index_seq(xs)) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Property sweep: method × size × threads.

using MaxParam = std::tuple<std::string, std::uint64_t, int>;

class MaxMethodTest : public ::testing::TestWithParam<MaxParam> {};

TEST_P(MaxMethodTest, MatchesSequentialReference) {
  const auto& [method, n, threads] = GetParam();
  const MaxOptions opts{.threads = threads};
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto xs = random_list(n, seed * 31 + 1, 1u << 20);
    EXPECT_EQ(run_max(method, xs, opts), max_index_seq(xs))
        << method << " n=" << n << " threads=" << threads << " seed=" << seed;
  }
}

TEST_P(MaxMethodTest, HandlesAllEqualValues) {
  // The all-ties worst case: every pair writes; the survivor must be the
  // last index.
  const auto& [method, n, threads] = GetParam();
  const std::vector<std::uint32_t> xs(n, 7);
  EXPECT_EQ(run_max(method, xs, MaxOptions{.threads = threads}), n - 1);
}

TEST_P(MaxMethodTest, HandlesSortedInputs) {
  const auto& [method, n, threads] = GetParam();
  std::vector<std::uint32_t> ascending(n);
  for (std::uint64_t i = 0; i < n; ++i) ascending[i] = static_cast<std::uint32_t>(i);
  EXPECT_EQ(run_max(method, ascending, MaxOptions{.threads = threads}), n - 1);

  std::vector<std::uint32_t> descending(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    descending[i] = static_cast<std::uint32_t>(n - i);
  }
  EXPECT_EQ(run_max(method, descending, MaxOptions{.threads = threads}), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    MethodsBySizesByThreads, MaxMethodTest,
    ::testing::Combine(
        ::testing::Values("naive", "gatekeeper", "gatekeeper-skip", "caslt", "critical"),
        ::testing::Values(std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{17},
                          std::uint64_t{128}),
        ::testing::Values(1, 4, 8)),
    [](const ::testing::TestParamInfo<MaxParam>& pinfo) {
      auto name = std::get<0>(pinfo.param) + "_n" + std::to_string(std::get<1>(pinfo.param)) +
                  "_t" + std::to_string(std::get<2>(pinfo.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(MaxDispatch, UnknownMethodThrows) {
  const std::vector<std::uint32_t> xs = {1};
  EXPECT_THROW((void)run_max("bogus", xs), std::invalid_argument);
}

TEST(MaxDispatch, MethodListIsStable) {
  const auto ms = max_methods();
  ASSERT_EQ(ms.size(), 5u);
  EXPECT_EQ(ms.front(), "naive");
  EXPECT_EQ(ms[3], "caslt");
}

TEST(MaxMethods, LargerListStaysCorrect) {
  // One bigger instance (2K → 4M pair comparisons) per protected method.
  const auto xs = random_list(2000, 13, 1u << 30);
  const auto expected = max_index_seq(xs);
  EXPECT_EQ(max_index_caslt(xs), expected);
  EXPECT_EQ(run_max("gatekeeper-skip", xs), expected);
  EXPECT_EQ(run_max("naive", xs), expected);
}

}  // namespace
}  // namespace crcw::algo
