/**
 * @file
 * Unit tests for the PointCloud container and geometry types.
 */

#include <gtest/gtest.h>
#include <memory>
#include <utility>

#include "common/types.h"
#include "dataset/point_cloud.h"

namespace fc::data {
namespace {

PointCloud
makeCloud()
{
    PointCloud c;
    c.addPoint({0, 0, 0}, 0);
    c.addPoint({1, 0, 0}, 1);
    c.addPoint({0, 2, 0}, 2);
    c.addPoint({0, 0, 3}, 0);
    return c;
}

TEST(Vec3, Arithmetic)
{
    const Vec3 a{1, 2, 3}, b{4, 5, 6};
    EXPECT_EQ((a + b), (Vec3{5, 7, 9}));
    EXPECT_EQ((b - a), (Vec3{3, 3, 3}));
    EXPECT_EQ((a * 2.0f), (Vec3{2, 4, 6}));
    EXPECT_FLOAT_EQ(distance2(a, b), 27.0f);
    EXPECT_FLOAT_EQ(a[0], 1.0f);
    EXPECT_FLOAT_EQ(a[1], 2.0f);
    EXPECT_FLOAT_EQ(a[2], 3.0f);
}

TEST(Aabb, ExtendAndContain)
{
    Aabb box;
    EXPECT_TRUE(box.empty());
    box.extend({1, 1, 1});
    box.extend({-1, 2, 0});
    EXPECT_FALSE(box.empty());
    EXPECT_TRUE(box.contains({0, 1.5f, 0.5f}));
    EXPECT_FALSE(box.contains({0, 3, 0}));
    EXPECT_FLOAT_EQ(box.midpoint(0), 0.0f);
    EXPECT_FLOAT_EQ(box.midpoint(1), 1.5f);
    EXPECT_EQ(box.longestAxis(), 0); // x extent 2 > y extent 1 ... tie
}

TEST(Aabb, LongestAxis)
{
    Aabb box;
    box.extend({0, 0, 0});
    box.extend({1, 5, 2});
    EXPECT_EQ(box.longestAxis(), 1);
}

TEST(PointCloud, BoundsCoverAllPoints)
{
    const PointCloud c = makeCloud();
    const Aabb box = c.bounds();
    for (std::size_t i = 0; i < c.size(); ++i)
        EXPECT_TRUE(box.contains(c[i]));
    EXPECT_FLOAT_EQ(box.hi.z, 3.0f);
}

TEST(PointCloud, PermutedMovesLabelsAndFeatures)
{
    PointCloud c = makeCloud();
    c.allocateFeatures(2);
    for (std::size_t i = 0; i < c.size(); ++i) {
        c.featureRow(i)[0] = static_cast<float>(i);
        c.featureRow(i)[1] = static_cast<float>(10 * i);
    }
    const std::vector<PointIdx> order{3, 1, 0, 2};
    const PointCloud p = c.permuted(order);
    ASSERT_EQ(p.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(p[i], c[order[i]]);
        EXPECT_EQ(p.labels()[i], c.labels()[order[i]]);
        EXPECT_FLOAT_EQ(p.featureRow(i)[0],
                        static_cast<float>(order[i]));
    }
}

TEST(PointCloud, SubsetSelectsRows)
{
    PointCloud c = makeCloud();
    const PointCloud s = c.subset({2, 2, 0});
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s[0], c[2]);
    EXPECT_EQ(s[1], c[2]);
    EXPECT_EQ(s[2], c[0]);
    EXPECT_EQ(s.labels()[2], 0);
}

TEST(PointCloud, NormalizeToUnitSphere)
{
    PointCloud c = makeCloud();
    c.normalizeToUnitSphere();
    float max_r = 0.0f;
    Vec3 centroid{0, 0, 0};
    for (std::size_t i = 0; i < c.size(); ++i) {
        max_r = std::max(max_r, c[i].norm());
        centroid += c[i];
    }
    EXPECT_NEAR(max_r, 1.0f, 1e-5f);
}

TEST(PointCloud, NormalizeDegenerateIsSafe)
{
    PointCloud c;
    c.addPoint({5, 5, 5});
    c.addPoint({5, 5, 5});
    c.normalizeToUnitSphere(); // must not divide by zero
    EXPECT_FLOAT_EQ(c[0].norm(), 0.0f);
}

TEST(PointCloud, FeatureAllocationZeroFills)
{
    PointCloud c = makeCloud();
    c.allocateFeatures(3);
    EXPECT_EQ(c.featureDim(), 3u);
    EXPECT_EQ(c.features().size(), 12u);
    for (const float v : c.features())
        EXPECT_EQ(v, 0.0f);
}

TEST(PointCloud, ByteAccounting)
{
    PointCloud c = makeCloud();
    c.allocateFeatures(4);
    EXPECT_EQ(c.coordBytesFp16(), 4u * 8u);
    EXPECT_EQ(c.featureBytesFp16(), 4u * 4u * 2u);
}

ExternalCloudView
viewOf(const PointCloud &cloud)
{
    ExternalCloudView view;
    view.size = cloud.size();
    view.coords = cloud.coords().data();
    if (cloud.hasLabels())
        view.labels = cloud.labels().data();
    return view;
}

TEST(PointCloudExternal, BindReadsAliasDetachCopies)
{
    // Backing storage the external cloud aliases (stand-in for an
    // mmap'd block; the real binding lives in storage/fcpc_reader).
    auto backing = std::make_shared<PointCloud>(makeCloud());

    PointCloud ext;
    ext.bindExternal(viewOf(*backing), backing);
    // Read through a const view: the non-const accessors are
    // mutators by contract (they detach a bound cloud).
    const PointCloud &cext = ext;
    EXPECT_TRUE(cext.isExternal());
    ASSERT_EQ(cext.size(), backing->size());
    EXPECT_EQ(cext.coords().data(),
              std::as_const(*backing).coords().data());
    EXPECT_TRUE(cext.hasLabels());
    EXPECT_EQ(cext.labels()[2], 2);

    // Reads agree with the backing cloud.
    for (std::size_t i = 0; i < cext.size(); ++i)
        EXPECT_EQ(cext[i], (*backing)[i]);
    const Aabb box = cext.bounds();
    EXPECT_FLOAT_EQ(box.hi.z, 3.0f);

    // First mutation detaches: a deep copy, alias dropped.
    ext.addPoint({9, 9, 9}, 3);
    EXPECT_FALSE(cext.isExternal());
    EXPECT_EQ(cext.size(), backing->size() + 1);
    EXPECT_NE(cext.coords().data(),
              std::as_const(*backing).coords().data());
    EXPECT_EQ(cext[0], (*backing)[0]);
}

TEST(PointCloudExternal, SubsetAndPermuteWorkOnExternalClouds)
{
    auto backing = std::make_shared<PointCloud>(makeCloud());

    PointCloud ext;
    ext.bindExternal(viewOf(*backing), backing);

    const PointCloud sub = ext.subset({2, 0});
    EXPECT_FALSE(sub.isExternal());
    EXPECT_EQ(sub[0], (*backing)[2]);
    EXPECT_EQ(sub.labels()[1], 0);

    const PointCloud perm = ext.permuted({3, 2, 1, 0});
    EXPECT_EQ(perm[0], (*backing)[3]);
    EXPECT_EQ(perm.labels()[3], 0);

    // subsetInto must reset a previously-external output cloud to
    // owned storage instead of writing through the alias.
    PointCloud out;
    out.bindExternal(viewOf(*backing), backing);
    ext.subsetInto({1, 3}, out);
    EXPECT_FALSE(out.isExternal());
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1], (*backing)[3]);
}

TEST(PointCloudExternal, KeepaliveOutlivesOwnerHandle)
{
    PointCloud ext;
    {
        auto backing = std::make_shared<PointCloud>(makeCloud());
        ext.bindExternal(viewOf(*backing), backing);
    } // the local handle dies; the cloud's keepalive holds the backing
    const PointCloud &cext = ext;
    ASSERT_EQ(cext.size(), 4u);
    EXPECT_FLOAT_EQ(cext[3].z, 3.0f);
}

} // namespace
} // namespace fc::data
