#include "dataset/point_cloud.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace fc::data {

void
PointCloud::bindExternal(const ExternalCloudView &view,
                         std::shared_ptr<const void> owner)
{
    fc_assert(view.coords != nullptr,
              "external view must provide AoS coords");
    fc_assert(view.feature_dim == 0 || view.features != nullptr,
              "external view declares %zu feature channels but no data",
              view.feature_dim);
    coords_.clear();
    features_.clear();
    labels_.clear();
    external_ = true;
    ext_ = view;
    ext_owner_ = std::move(owner);
    featureDim_ = view.feature_dim;
}

void
PointCloud::detach()
{
    if (!external_)
        return;
    const ExternalCloudView view = ext_;
    external_ = false;
    ext_ = {};
    coords_.assign(view.coords, view.coords + view.size);
    if (view.feature_dim > 0)
        features_.assign(view.features,
                         view.features + view.size * view.feature_dim);
    else
        features_.clear();
    featureDim_ = view.feature_dim;
    if (view.labels != nullptr)
        labels_.assign(view.labels, view.labels + view.size);
    else
        labels_.clear();
    ext_owner_.reset(); // last: the view above aliased this memory
}

void
PointCloud::resetToOwned()
{
    external_ = false;
    ext_ = {};
    ext_owner_.reset();
}

void
PointCloud::moveFrom(PointCloud &other) noexcept
{
    coords_ = std::move(other.coords_);
    features_ = std::move(other.features_);
    featureDim_ = other.featureDim_;
    labels_ = std::move(other.labels_);
    external_ = other.external_;
    ext_ = other.ext_;
    ext_owner_ = std::move(other.ext_owner_);
    other.external_ = false;
    other.ext_ = {};
    other.featureDim_ = 0;
}

void
PointCloud::allocateFeatures(std::size_t dim)
{
    detach();
    featureDim_ = dim;
    features_.assign(coords_.size() * dim, 0.0f);
}

Aabb
PointCloud::bounds() const
{
    Aabb box;
    for (const Vec3 &p : coords())
        box.extend(p);
    return box;
}

PointCloud
PointCloud::permuted(const std::vector<PointIdx> &order) const
{
    fc_assert(order.size() == size(),
              "permutation arity %zu != cloud size %zu", order.size(),
              size());
    const std::span<const Vec3> src = coords();
    PointCloud out;
    out.coords_.resize(src.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        out.coords_[i] = src[order[i]];
    if (featureDim_ > 0) {
        const std::span<const float> feat = features();
        out.featureDim_ = featureDim_;
        out.features_.resize(feat.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            const float *from = feat.data() + order[i] * featureDim_;
            float *dst = out.features_.data() + i * featureDim_;
            std::copy(from, from + featureDim_, dst);
        }
    }
    if (hasLabels()) {
        const std::span<const std::int32_t> lab = labels();
        out.labels_.resize(lab.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            out.labels_[i] = lab[order[i]];
    }
    return out;
}

void
PointCloud::subsetInto(const std::vector<PointIdx> &indices,
                       PointCloud &out) const
{
    fc_assert(&out != this, "subsetInto cannot run in place");
    out.resetToOwned();
    const std::span<const Vec3> src = coords();
    out.coords_.resize(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
        const PointIdx idx = indices[i];
        fc_assert(idx < src.size(), "subset index %u out of range",
                  idx);
        out.coords_[i] = src[idx];
    }
    out.featureDim_ = featureDim_;
    out.features_.resize(indices.size() * featureDim_);
    if (featureDim_ > 0) {
        const std::span<const float> feat = features();
        for (std::size_t i = 0; i < indices.size(); ++i) {
            const float *from =
                feat.data() + indices[i] * featureDim_;
            std::copy(from, from + featureDim_,
                      out.features_.data() + i * featureDim_);
        }
    }
    if (hasLabels()) {
        const std::span<const std::int32_t> lab = labels();
        out.labels_.resize(indices.size());
        for (std::size_t i = 0; i < indices.size(); ++i)
            out.labels_[i] = lab[indices[i]];
    } else {
        out.labels_.clear();
    }
}

PointCloud
PointCloud::subset(const std::vector<PointIdx> &indices) const
{
    PointCloud out;
    subsetInto(indices, out);
    return out;
}

void
PointCloud::normalizeToUnitSphere()
{
    detach();
    if (coords_.empty())
        return;
    Vec3 centroid{0, 0, 0};
    for (const Vec3 &p : coords_)
        centroid += p;
    const float inv_n = 1.0f / static_cast<float>(coords_.size());
    centroid = centroid * inv_n;
    float max_r2 = 0.0f;
    for (Vec3 &p : coords_) {
        p = p - centroid;
        max_r2 = std::max(max_r2, p.norm2());
    }
    if (max_r2 <= 0.0f)
        return;
    const float inv_r = 1.0f / std::sqrt(max_r2);
    for (Vec3 &p : coords_)
        p = p * inv_r;
}

} // namespace fc::data
