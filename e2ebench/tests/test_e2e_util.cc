// Tests of the benchmark's own helpers (e2ebench/src/e2e_util.h):
// nearest-rank percentiles, the supported-percentile rule and span
// self time with overlapping children.

#include <gtest/gtest.h>

#include "e2e_util.h"

namespace {

using e2e::kNoParent;
using e2e::Span;

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i)
        v.push_back(static_cast<double>(i));
    return v;
}

TEST(NearestRank, PicksTheCeilRankSample)
{
    const std::vector<double> v = oneTo(10);
    EXPECT_EQ(e2e::nearestRank(v, 50), 5.0);
    EXPECT_EQ(e2e::nearestRank(v, 90), 9.0);
    EXPECT_EQ(e2e::nearestRank(v, 91), 10.0);
    EXPECT_EQ(e2e::nearestRank(v, 100), 10.0);
    EXPECT_EQ(e2e::nearestRank(v, 0), 1.0); // clamped to rank 1
    EXPECT_EQ(e2e::nearestRank(oneTo(1), 99.9), 1.0);
    EXPECT_EQ(e2e::nearestRank({}, 50), 0.0);
    // Exact products must not round up a rank: 0.9 * 100 = 90.
    EXPECT_EQ(e2e::nearestRank(oneTo(100), 90), 90.0);
}

TEST(SupportedPercentile, NeedsTenSamplesBeyond)
{
    EXPECT_EQ(e2e::samplesBeyond(100, 90), 10u);
    EXPECT_EQ(e2e::samplesBeyond(99, 90), 9u);
    EXPECT_EQ(e2e::supportedPercentile(19), 0.0);
    EXPECT_EQ(e2e::supportedPercentile(20), 50.0);
    EXPECT_EQ(e2e::supportedPercentile(99), 50.0);
    EXPECT_EQ(e2e::supportedPercentile(100), 90.0);
    EXPECT_EQ(e2e::supportedPercentile(999), 90.0);
    EXPECT_EQ(e2e::supportedPercentile(1000), 99.0);
    EXPECT_EQ(e2e::supportedPercentile(10000), 99.9);
}

TEST(Windows, SplitByTimeAndRate)
{
    // Span 100 ns in 4 windows of 25 ns; -5 lands in the first window
    // and 130 (finished after the phase) in the last.
    const std::vector<e2e::Sample> s = {
        {30, 1}, {-5, 1}, {10, 1}, {60, 1}, {99, 1}, {130, 1}, {26, 1}};
    const auto w = e2e::byWindow(s, 100, 4);
    ASSERT_EQ(w.size(), 4u);
    ASSERT_EQ(w[0].size(), 2u);
    EXPECT_EQ(w[0][0].t_ns, -5); // sorted by time
    EXPECT_EQ(w[1].size(), 2u);
    EXPECT_EQ(w[2].size(), 1u);
    EXPECT_EQ(w[3].size(), 2u);
    EXPECT_EQ(w[3][1].t_ns, 130);

    // Three samples over 2 s carry 2 units after the first: 1/s.
    const std::vector<e2e::Sample> window = {
        {0, 5}, {1'000'000'000, 1}, {2'000'000'000, 1}};
    EXPECT_DOUBLE_EQ(e2e::windowRate(window), 1.0);
    EXPECT_EQ(e2e::windowRate({{0, 1}}), 0.0);

    EXPECT_EQ(e2e::median({3, 1, 2}), 2.0);
    EXPECT_EQ(e2e::median({4, 1, 2, 3}), 2.5);
    EXPECT_EQ(e2e::median({}), 0.0);
}

TEST(SelfTime, SubtractsTheUnionOfOverlappingChildren)
{
    // Root [0,100) with children [10,30) and [20,50) overlapping each
    // other and [90,120) sticking out of the root: covered = [10,50)
    // + [90,100) = 50. The grandchild only affects its parent.
    const std::vector<Span> spans = {
        {"root", kNoParent, 1, 0, 100},
        {"a", 0, 1, 10, 30},
        {"b", 0, 1, 20, 50},
        {"c", 0, 1, 90, 120},
        {"a.child", 1, 1, 12, 18},
    };
    const std::vector<std::int64_t> self = e2e::selfTimes(spans);
    EXPECT_EQ(self[0], 50);
    EXPECT_EQ(self[1], 14);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 6);
}

TEST(SelfTime, NestedAndDisjointChildren)
{
    const std::vector<Span> spans = {
        {"root", kNoParent, 7, 0, 10},
        {"x", 0, 7, 0, 10}, // covers the whole parent
        {"other", kNoParent, 8, 5, 9},
    };
    const std::vector<std::int64_t> self = e2e::selfTimes(spans);
    EXPECT_EQ(self[0], 0);
    EXPECT_EQ(self[1], 10);
    EXPECT_EQ(self[2], 4);

    std::map<std::string, e2e::SpanTotals> by;
    e2e::accumulateByName(spans, by);
    EXPECT_EQ(by["root"].count, 1u);
    EXPECT_EQ(by["root"].wall_ns, 10);
    EXPECT_EQ(by["root"].self_ns, 0);
    EXPECT_EQ(e2e::layerOf("serve.waitInto"), "serve");
    EXPECT_EQ(e2e::layerOf("loadgen"), "loadgen");
}

TEST(SpanLog, DropsBeyondCapacityWithoutAllocating)
{
    e2e::SpanLog log(2);
    const std::uint32_t a = log.begin("a", kNoParent, 1);
    const std::uint32_t b = log.begin("b", a, 1);
    const std::uint32_t c = log.begin("c", a, 1);
    EXPECT_EQ(c, kNoParent);
    log.end(c); // no-op on a dropped span
    log.end(b);
    log.end(a);
    EXPECT_EQ(log.spans().size(), 2u);
    EXPECT_EQ(log.dropped(), 1u);
    EXPECT_GE(log.spans()[0].end_ns, log.spans()[1].end_ns);
}

} // namespace
