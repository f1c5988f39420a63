#include "partition/partitioner.h"

#include "common/logging.h"
#include "core/workspace.h"
#include "partition/detail.h"
#include "partition/fractal.h"
#include "partition/kdtree.h"
#include "partition/octree.h"
#include "partition/uniform.h"

namespace fc::part {

namespace {

/** Trivial strategy: the whole cloud is one block (PointAcc). */
class NonePartitioner : public Partitioner
{
  public:
    void
    partitionInto(const data::PointCloud &cloud,
                  const PartitionConfig &config, core::ThreadPool *,
                  core::Workspace &, PartitionResult &out) const override
    {
        detail::beginBuild(cloud, Method::None, config, out);
        detail::finishBuild(nullptr, out);
    }

    Method method() const override { return Method::None; }
};

} // namespace

PartitionResult
Partitioner::partition(const data::PointCloud &cloud,
                       const PartitionConfig &config,
                       core::ThreadPool *pool) const
{
    core::Workspace ws;
    PartitionResult out;
    partitionInto(cloud, config, pool, ws, out);
    return out;
}

std::string
methodName(Method method)
{
    switch (method) {
      case Method::None:
        return "none";
      case Method::Uniform:
        return "uniform";
      case Method::Octree:
        return "octree";
      case Method::KdTree:
        return "kdtree";
      case Method::Fractal:
        return "fractal";
    }
    fc_panic("unknown partition method %d", static_cast<int>(method));
}

const Partitioner &
partitioner(Method method)
{
    static const NonePartitioner none{};
    static const UniformPartitioner uniform{};
    static const OctreePartitioner octree{};
    static const KdTreePartitioner kdtree{};
    static const FractalPartitioner fractal{};
    switch (method) {
      case Method::None:
        return none;
      case Method::Uniform:
        return uniform;
      case Method::Octree:
        return octree;
      case Method::KdTree:
        return kdtree;
      case Method::Fractal:
        return fractal;
    }
    fc_panic("unknown partition method %d", static_cast<int>(method));
}

std::unique_ptr<Partitioner>
makePartitioner(Method method)
{
    switch (method) {
      case Method::None:
        return std::make_unique<NonePartitioner>();
      case Method::Uniform:
        return std::make_unique<UniformPartitioner>();
      case Method::Octree:
        return std::make_unique<OctreePartitioner>();
      case Method::KdTree:
        return std::make_unique<KdTreePartitioner>();
      case Method::Fractal:
        return std::make_unique<FractalPartitioner>();
    }
    fc_panic("unknown partition method %d", static_cast<int>(method));
}

} // namespace fc::part
