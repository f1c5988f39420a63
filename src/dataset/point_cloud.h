/**
 * @file
 * Point cloud container: spatial coordinates plus an optional dense
 * feature matrix and per-point labels.
 *
 * Coordinates are stored as a contiguous array of Vec3; features are a
 * row-major [numPoints x featureDim] matrix. This mirrors the paper's
 * split between the coordinate stream consumed by point operations and
 * the feature stream consumed by gathering / MLPs (§II-A).
 *
 * The core::simd distance kernels read structure-of-arrays views that
 * their callers own: a BlockTree's DFT-ordered points() for the block
 * ops, or arena scratch that a global op fills once per call
 * (core::simd::soaInto).
 *
 * Storage comes in two modes:
 *
 *   - Owning (the default): every array lives in a std::vector owned
 *     by the cloud. All mutators work.
 *   - External (zero-copy): the arrays alias caller-provided memory —
 *     in practice an mmap'd .fcpc block (storage/fcpc_reader.h) whose
 *     AoS coordinates, row-major features and labels are laid out
 *     exactly as in memory, so materializing a cloud binds three
 *     pointers and copies nothing. A shared keepalive handle
 *     guarantees the memory outlives the cloud even if the reader
 *     that produced it is destroyed first. The first mutation
 *     detach()es: the cloud deep-copies into owning vectors and drops
 *     the alias, so external clouds behave like value clouds
 *     everywhere — reads are zero-copy, writes copy-on-write.
 */

#ifndef FC_DATASET_POINT_CLOUD_H
#define FC_DATASET_POINT_CLOUD_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.h"

namespace fc::data {

/**
 * Non-owning view of externally stored point-cloud arrays (the
 * zero-copy binding handed to PointCloud::bindExternal). All pointers
 * alias caller-owned memory; coords must hold @p size elements,
 * features @p size x @p feature_dim row-major floats (null when
 * feature_dim == 0), labels @p size ints (null when unlabeled).
 */
struct ExternalCloudView
{
    std::size_t size = 0;
    const Vec3 *coords = nullptr;
    const float *features = nullptr;
    std::size_t feature_dim = 0;
    const std::int32_t *labels = nullptr;
};

/**
 * A point cloud of n points with optional features and labels.
 */
class PointCloud
{
  public:
    PointCloud() = default;

    /** Construct with coordinates only. */
    explicit PointCloud(std::vector<Vec3> coords)
        : coords_(std::move(coords))
    {}

    /** Deep copy; copies of an external cloud share the alias (and
     *  its keepalive) without copying point data. */
    PointCloud(const PointCloud &) = default;
    PointCloud &operator=(const PointCloud &) = default;

    /** Moves leave @p other an empty owning cloud. */
    PointCloud(PointCloud &&other) noexcept { moveFrom(other); }

    PointCloud &
    operator=(PointCloud &&other) noexcept
    {
        if (this != &other)
            moveFrom(other);
        return *this;
    }

    std::size_t
    size() const
    {
        return external_ ? ext_.size : coords_.size();
    }

    bool empty() const { return size() == 0; }

    const Vec3 &
    operator[](std::size_t i) const
    {
        return external_ ? ext_.coords[i] : coords_[i];
    }

    Vec3 &
    operator[](std::size_t i)
    {
        detach();
        return coords_[i];
    }

    /** Read-only coordinate array (aliases the mapping when
     *  external). */
    std::span<const Vec3>
    coords() const
    {
        return external_ ? std::span<const Vec3>{ext_.coords, ext_.size}
                         : std::span<const Vec3>{coords_};
    }

    /** Mutable coordinate vector; detaches an external cloud first
     *  (copy-on-write). */
    std::vector<Vec3> &
    coords()
    {
        detach();
        return coords_;
    }

    /** Feature channel count (0 when the cloud has no features). */
    std::size_t featureDim() const { return featureDim_; }

    /** Row-major [size x featureDim] feature matrix. */
    std::span<const float>
    features() const
    {
        return external_
                   ? std::span<const float>{ext_.features,
                                            ext_.size * featureDim_}
                   : std::span<const float>{features_};
    }

    std::vector<float> &
    features()
    {
        detach();
        return features_;
    }

    /** Feature row for one point. */
    std::span<const float>
    featureRow(std::size_t i) const
    {
        const float *base = external_ ? ext_.features : features_.data();
        return {base + i * featureDim_, featureDim_};
    }

    std::span<float>
    featureRow(std::size_t i)
    {
        detach();
        return {features_.data() + i * featureDim_, featureDim_};
    }

    /** Allocate (zero-filled) features with @p dim channels. */
    void allocateFeatures(std::size_t dim);

    /** Per-point integer labels (empty if unlabeled). */
    std::span<const std::int32_t>
    labels() const
    {
        return external_
                   ? std::span<const std::int32_t>{ext_.labels,
                                                   ext_.labels != nullptr
                                                       ? ext_.size
                                                       : 0}
                   : std::span<const std::int32_t>{labels_};
    }

    std::vector<std::int32_t> &
    labels()
    {
        detach();
        return labels_;
    }

    bool
    hasLabels() const
    {
        return external_ ? ext_.labels != nullptr : !labels_.empty();
    }

    void
    addPoint(const Vec3 &p)
    {
        detach();
        coords_.push_back(p);
    }

    void
    addPoint(const Vec3 &p, std::int32_t label)
    {
        detach();
        coords_.push_back(p);
        labels_.push_back(label);
    }

    /** Bounding box of all coordinates. */
    Aabb bounds() const;

    /**
     * Return a new cloud with the given point order; features and
     * labels (when present) are permuted consistently. Used to realize
     * the DFT memory layout after partitioning.
     */
    PointCloud permuted(const std::vector<PointIdx> &order) const;

    /** Subset selection; indices may repeat. */
    PointCloud subset(const std::vector<PointIdx> &indices) const;

    /** In-place subset selection: @p out is rewritten reusing its
     *  capacity (the allocation-free steady-state path). @p out must
     *  not alias this cloud. */
    void subsetInto(const std::vector<PointIdx> &indices,
                    PointCloud &out) const;

    /**
     * Normalize coordinates to fit the unit sphere centred at the
     * origin (standard ModelNet preprocessing).
     */
    void normalizeToUnitSphere();

    /**
     * Bind this cloud to externally stored arrays (zero-copy mode).
     * Existing owned storage is cleared (capacity retained); no
     * per-point work and no heap allocation happens here. @p owner is
     * a keepalive handle the cloud retains — typically the mmap of a
     * .fcpc file — so the view stays valid for the cloud's whole
     * lifetime regardless of who else releases it.
     */
    void bindExternal(const ExternalCloudView &view,
                      std::shared_ptr<const void> owner);

    /** True when the cloud aliases external storage. */
    bool isExternal() const { return external_; }

    /**
     * Deep-copy external storage into owned vectors and drop the
     * alias (and its keepalive). No-op on owning clouds. Called
     * automatically by every mutator, so external clouds are
     * copy-on-write.
     */
    void detach();

    /** Bytes of coordinate storage (3 x fp16 per point, padded to 8B). */
    std::size_t
    coordBytesFp16() const
    {
        return size() * 8;
    }

    /** Bytes of feature storage at fp16. */
    std::size_t
    featureBytesFp16() const
    {
        return size() * featureDim_ * 2;
    }

  private:
    /** Reset to owning mode with empty (capacity-retaining) vectors;
     *  the bulk writers call this before overwriting @c this. */
    void resetToOwned();

    void moveFrom(PointCloud &other) noexcept;

    std::vector<Vec3> coords_;
    std::vector<float> features_;
    std::size_t featureDim_ = 0;
    std::vector<std::int32_t> labels_;

    // External (zero-copy) storage: when external_ is set, ext_
    // aliases ext_owner_'s memory and the vectors above are empty.
    bool external_ = false;
    ExternalCloudView ext_;
    std::shared_ptr<const void> ext_owner_;
};

} // namespace fc::data

#endif // FC_DATASET_POINT_CLOUD_H
