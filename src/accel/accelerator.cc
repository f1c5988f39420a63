#include "accel/accelerator.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "sim/riscv.h"
#include "sim/schedule.h"

namespace fc::accel {

namespace {

using sim::Cycles;

/** Fraction of a working set that cannot stay resident on-chip. */
double
spillFraction(double working_set_bytes, double budget_bytes)
{
    if (working_set_bytes <= budget_bytes)
        return 0.0;
    return 1.0 - budget_bytes / working_set_bytes;
}

/** Coordinate record size: xyz fp16 padded to 8 B, plus 2 B state. */
constexpr double kCoordBytes = 10.0;

/**
 * The per-run simulation engine. Owns the memory models and the
 * report being built; each phase method charges compute and memory
 * and takes the max (pipelined double-buffering), as the RTL does.
 */
class Engine
{
  public:
    Engine(const HardwareConfig &hw, const Policy &policy,
           const NetworkShape &shape, const BlockSummary &blocks)
        : hw_(hw), policy_(policy), shape_(shape), blocks_(blocks),
          sram_({hw.sramBytes(), hw.sram_banks, 16}),
          dram_({hw.dram_gbps, 0.85, 64, 0.25, 45, 4, hw.freq_ghz})
    {
        report_.accelerator = hw.name;
        report_.model = shape.model;
        report_.num_points = shape.n_points;
        report_.freq_ghz = hw.freq_ghz;
    }

    RunReport
    run()
    {
        const bool partitioned =
            policy_.partition_method != part::Method::None;

        if (policy_.simulate_riscv)
            riscvConfigPhase();
        if (partitioned)
            partitionPhase();

        double cumulative_rate = 1.0;
        for (const SaShape &s : shape_.sa) {
            const BlockSummary stage_blocks =
                partitioned ? blocks_.scaled(cumulative_rate)
                            : BlockSummary{};
            const double stage_rate =
                static_cast<double>(s.n_out) /
                static_cast<double>(s.n_in);
            stageIoPhase(s.n_in, s.c_in);
            samplePhase(s, stage_blocks, stage_rate);
            groupPhase(s, stage_blocks, stage_rate);
            gatherPhase(s, stage_blocks);
            mlpPhase(policy_.delayed_aggregation ? s.n_in
                                                 : s.n_out * s.k,
                     s.gemm);
            poolPhase(s.n_out, s.k, s.c_out);
            report_.addCycles(Phase::Other, policy_.stage_overhead);
            cumulative_rate *= stage_rate;
        }

        for (const FpShape &f : shape_.fp) {
            cumulative_rate = static_cast<double>(f.n_fine) /
                              static_cast<double>(shape_.n_points);
            const BlockSummary fine_blocks =
                partitioned ? blocks_.scaled(cumulative_rate)
                            : BlockSummary{};
            stageIoPhase(f.n_fine, f.c_in);
            interpolatePhase(f, fine_blocks);
            mlpPhase(f.n_fine, f.gemm);
            report_.addCycles(Phase::Other, policy_.stage_overhead);
        }

        if (!shape_.head.empty())
            mlpPhase(shape_.head_rows, shape_.head);

        energy_.addStatic(report_.totalCycles(), hw_.freq_ghz);
        report_.compute_pj = energy_.computePj();
        report_.sram_pj = energy_.sramPj();
        report_.dram_pj = energy_.dramPj();
        report_.static_pj = energy_.staticPj();
        report_.dram_bytes = dram_.totalBytes();
        report_.sram_bytes = sram_.totalBytes();
        return report_;
    }

  private:
    /** Total distance throughput, evaluations per cycle. */
    double
    laneRateTotal() const
    {
        return policy_.point_lane_rate * hw_.point_lanes;
    }

    /** SRAM byte budget usable by one operation's working set. */
    double
    budget() const
    {
        return 0.8 * static_cast<double>(hw_.sramBytes());
    }

    void
    chargeSram(Phase phase, double bytes, sim::AccessPattern pattern)
    {
        sram_.record(static_cast<std::uint64_t>(bytes), pattern);
        energy_.addSramBytes(static_cast<std::uint64_t>(bytes),
                             hw_.sramBytes());
        report_.phase_sram_bytes[phase] +=
            static_cast<std::uint64_t>(bytes);
    }

    void
    chargeDramStream(double bytes)
    {
        dram_.recordStream(static_cast<std::uint64_t>(bytes));
        energy_.addDramBytes(static_cast<std::uint64_t>(bytes));
    }

    void
    chargeDramRandom(double accesses)
    {
        const auto n = static_cast<std::uint64_t>(accesses);
        dram_.recordRandom(n);
        energy_.addDramBytes(dram_.randomBytesMoved(n));
        energy_.addDramActivations(static_cast<std::uint64_t>(
            accesses * (1.0 - dram_.config().random_row_hit)));
    }

    /**
     * The RISC-V core writes each unit's configuration registers
     * before execution; its retired cycles land in Phase::Other.
     */
    void
    riscvConfigPhase()
    {
        using namespace sim::rv;
        std::vector<Insn> program;
        const std::uint32_t mmio = 0x4000'0000u;
        auto emit_li = [&](int rd, std::uint32_t value) {
            for (const Insn i : li(rd, value))
                program.push_back(i);
        };
        emit_li(1, mmio);
        std::uint32_t offset = 0;
        for (const SaShape &s : shape_.sa) {
            // Unit CSRs: n_in, n_out, k, radius(fx16), c_in, c_out.
            const std::uint32_t values[6] = {
                static_cast<std::uint32_t>(s.n_in),
                static_cast<std::uint32_t>(s.n_out),
                static_cast<std::uint32_t>(s.k),
                static_cast<std::uint32_t>(s.radius * 65536.0f),
                static_cast<std::uint32_t>(s.c_in),
                static_cast<std::uint32_t>(s.c_out)};
            for (const std::uint32_t v : values) {
                emit_li(2, v);
                program.push_back(sw(2, 1, static_cast<std::int32_t>(
                                               offset & 0x7ff)));
                offset += 4;
            }
        }
        program.push_back(ecall());

        sim::RiscvCore core;
        core.loadProgram(program);
        core.run();
        fc_assert(core.halted(), "config program did not halt");
        report_.addCycles(Phase::Other, core.cycleEstimate());
    }

    void
    partitionPhase()
    {
        const double n = static_cast<double>(shape_.n_points);
        const part::PartitionStats &ps = blocks_.stats;
        Cycles compute = 0;
        double sram_bytes = 0.0;
        double dram_bytes = 0.0;
        const double ws = n * kCoordBytes;
        const double spill = spillFraction(ws, budget());

        switch (policy_.partition_method) {
          case part::Method::Fractal: {
            // Level-parallel pipelined traversal: midpoint and
            // partition units overlap (Fig. 9(c)); one pass per level.
            compute = static_cast<Cycles>(
                ps.traversal_passes *
                std::ceil(n / policy_.traverse_rate));
            energy_.addCompares(ps.elements_traversed * 2);
            sram_bytes = static_cast<double>(ps.elements_traversed) *
                         2.0 * 8.0;
            dram_bytes = ps.traversal_passes * ws * spill;
            break;
          }
          case part::Method::Uniform:
          case part::Method::Octree: {
            const double control =
                policy_.partition_method == part::Method::Octree ? 1.5
                                                                 : 1.0;
            compute = static_cast<Cycles>(
                control * ps.traversal_passes *
                std::ceil(n / policy_.traverse_rate));
            energy_.addCompares(ps.elements_traversed);
            sram_bytes =
                static_cast<double>(ps.elements_traversed) * 2.0 * 8.0;
            dram_bytes = ps.traversal_passes * ws * spill;
            break;
          }
          case part::Method::KdTree: {
            // Exclusive serial sorts on a merge network; every sort
            // has a drain/fill penalty and cannot overlap the next.
            compute = static_cast<Cycles>(
                static_cast<double>(ps.sort_compares) /
                    policy_.sorter_rate +
                static_cast<double>(ps.num_sorts) * 64.0);
            energy_.addCompares(ps.sort_compares);
            sram_bytes = static_cast<double>(ps.sort_compares) * 8.0;
            // Out-of-core merge passes re-stream spilled data.
            const double passes =
                std::max(1.0, std::log2(std::max(
                                  2.0, n / policy_.partition_threshold)));
            dram_bytes = passes * ws * spill;
            break;
          }
          case part::Method::None:
            return;
        }

        chargeSram(Phase::Partition, sram_bytes,
                   sim::AccessPattern::Streamed);
        chargeDramStream(dram_bytes);
        const Cycles mem = std::max(
            sram_.cycles(static_cast<std::uint64_t>(sram_bytes),
                         sim::AccessPattern::Streamed),
            dram_.streamCycles(static_cast<std::uint64_t>(dram_bytes)));
        report_.addCycles(Phase::Partition, std::max(compute, mem));
    }

    /** Per-stage input/output movement when the stage spills. */
    void
    stageIoPhase(std::uint64_t n, std::uint64_t channels)
    {
        const double ws =
            static_cast<double>(n) *
            (kCoordBytes + 2.0 * static_cast<double>(channels));
        const double spill = spillFraction(ws, budget());
        if (spill <= 0.0)
            return;
        const double bytes = ws * spill;
        chargeDramStream(bytes);
        report_.addCycles(
            Phase::Other,
            dram_.streamCycles(static_cast<std::uint64_t>(bytes)));
    }

    void
    samplePhase(const SaShape &s, const BlockSummary &blocks,
                double stage_rate)
    {
        const bool blocked =
            policy_.block_sampling && !blocks.leaf_sizes.empty();
        if (!blocked) {
            // Global FPS: m serial iterations, each scanning the
            // unsampled candidates across all lanes.
            const double n = static_cast<double>(s.n_in);
            const double m = static_cast<double>(s.n_out);
            const double avg_cand =
                policy_.window_check ? n - m * 0.5 : n;
            const double dist = m * avg_cand;
            const Cycles compute = static_cast<Cycles>(
                dist / laneRateTotal() + m * 8.0 /* argmax tree */);
            energy_.addDistances(static_cast<std::uint64_t>(dist));

            const double ws = n * kCoordBytes;
            const double spill = spillFraction(ws, budget());
            const double touched = dist * kCoordBytes;
            // The sequential dependence of FPS forbids candidate
            // tiling; the spilled fraction re-streams from DRAM each
            // iteration, discounted by row-buffer/prefetch locality.
            const double dram_b = touched * spill * 0.45;
            const double sram_b = touched - dram_b;
            chargeSram(Phase::Sample, sram_b,
                       sim::AccessPattern::Streamed);
            chargeDramStream(dram_b);
            const Cycles mem = std::max(
                sram_.cycles(static_cast<std::uint64_t>(sram_b),
                             sim::AccessPattern::Streamed),
                dram_.streamCycles(
                    static_cast<std::uint64_t>(dram_b)));
            report_.addCycles(Phase::Sample, std::max(compute, mem));
            return;
        }

        // Block-wise FPS: independent FPS per leaf at the fixed rate.
        std::vector<Cycles> tasks;
        tasks.reserve(blocks.leaf_sizes.size());
        double total_dist = 0.0;
        for (const std::uint32_t size : blocks.leaf_sizes) {
            if (size == 0)
                continue;
            const double sb = size;
            const double qb = std::max(
                1.0, std::round(stage_rate * sb));
            const double dist =
                policy_.window_check ? qb * sb - 0.5 * qb * qb
                                     : qb * sb;
            total_dist += dist;
            tasks.push_back(static_cast<Cycles>(
                dist / policy_.point_lane_rate + qb * 4.0));
        }
        energy_.addDistances(static_cast<std::uint64_t>(total_dist));
        const Cycles compute =
            policy_.block_parallel
                ? sim::lptMakespan(tasks, hw_.point_lanes)
                : static_cast<Cycles>(
                      static_cast<double>(sim::serialLatency(tasks)) /
                      hw_.point_lanes);
        const double sram_b = total_dist * kCoordBytes;
        chargeSram(Phase::Sample, sram_b,
                   sim::AccessPattern::Streamed);
        // Blocks always fit on-chip; no DRAM during sampling.
        report_.addCycles(Phase::Sample, compute);
    }

    void
    groupPhase(const SaShape &s, const BlockSummary &blocks,
               double stage_rate)
    {
        const bool blocked =
            policy_.block_grouping && !blocks.leaf_sizes.empty();
        if (!blocked) {
            const double n = static_cast<double>(s.n_in);
            const double m = static_cast<double>(s.n_out);
            const double dist = m * n;
            const Cycles compute =
                static_cast<Cycles>(dist / laneRateTotal());
            energy_.addDistances(static_cast<std::uint64_t>(dist));

            // Centers tile on-chip; candidates stream once per tile.
            const double ws = n * kCoordBytes;
            const double resident_centers =
                std::max(1.0, budget() * 0.5 / 16.0);
            const double passes = std::ceil(m / resident_centers);
            const double spill = spillFraction(ws, budget() * 0.5);
            const double dram_b = passes * ws * spill;
            const double sram_b = dist * kCoordBytes - dram_b;
            chargeSram(Phase::Group, std::max(0.0, sram_b),
                       sim::AccessPattern::Streamed);
            chargeDramStream(dram_b);
            const Cycles mem = dram_.streamCycles(
                static_cast<std::uint64_t>(dram_b));
            report_.addCycles(Phase::Group, std::max(compute, mem));
            return;
        }

        // Block-wise ball query with parent search space.
        std::vector<Cycles> tasks;
        tasks.reserve(blocks.leaf_sizes.size());
        double total_dist = 0.0;
        double sram_b = 0.0;
        for (std::size_t b = 0; b < blocks.leaf_sizes.size(); ++b) {
            const double sb = blocks.leaf_sizes[b];
            if (sb <= 0.0)
                continue;
            const double cb = std::max(1.0, std::round(stage_rate * sb));
            const double space = std::max<double>(
                blocks.space_sizes[b], blocks.leaf_sizes[b]);
            const double dist = cb * space;
            total_dist += dist;
            tasks.push_back(static_cast<Cycles>(
                dist / policy_.point_lane_rate));
            // Coordinate reuse: the search space is fetched once per
            // block and shared across its centers (and across sibling
            // leaves via the DFT order).
            sram_b += policy_.coord_reuse
                          ? (space + cb) * kCoordBytes
                          : dist * kCoordBytes;
        }
        energy_.addDistances(static_cast<std::uint64_t>(total_dist));
        const Cycles compute =
            policy_.block_parallel
                ? sim::lptMakespan(tasks, hw_.point_lanes)
                : static_cast<Cycles>(
                      static_cast<double>(sim::serialLatency(tasks)) /
                      hw_.point_lanes);
        chargeSram(Phase::Group, sram_b,
                   sim::AccessPattern::Streamed);
        const Cycles mem = sram_.cycles(
            static_cast<std::uint64_t>(sram_b),
            sim::AccessPattern::Streamed);
        report_.addCycles(Phase::Group, std::max(compute, mem));
    }

    void
    gatherPhase(const SaShape &s, const BlockSummary &blocks)
    {
        // Delayed aggregation gathers post-MLP features (wider).
        const double c_g = static_cast<double>(
            policy_.delayed_aggregation ? s.c_out : s.c_in);
        const double accesses =
            static_cast<double>(s.n_out) * static_cast<double>(s.k);
        const double useful = c_g * 2.0;
        const double table_bytes =
            static_cast<double>(s.n_in) * c_g * 2.0;

        const bool blocked =
            policy_.block_gathering && !blocks.leaf_sizes.empty();
        if (!blocked) {
            const double spill = spillFraction(table_bytes, budget());
            const double hit_bytes = accesses * useful * (1.0 - spill);
            const double miss_accesses = accesses * spill;
            chargeSram(Phase::Gather, hit_bytes,
                       sim::AccessPattern::Random);
            chargeDramRandom(miss_accesses);
            const Cycles sram_cyc = sram_.cycles(
                static_cast<std::uint64_t>(hit_bytes),
                sim::AccessPattern::Random, hw_.point_lanes);
            const Cycles dram_cyc = dram_.randomCycles(
                static_cast<std::uint64_t>(miss_accesses),
                static_cast<std::uint32_t>(useful));
            report_.addCycles(Phase::Gather, sram_cyc + dram_cyc);
            return;
        }

        // Block-wise gather: stream each leaf's search space once;
        // DFT sibling reuse halves parent refetches.
        double stream_bytes = 0.0;
        for (std::size_t b = 0; b < blocks.space_sizes.size(); ++b) {
            stream_bytes += static_cast<double>(blocks.space_sizes[b]) *
                            useful * (policy_.coord_reuse ? 0.6 : 1.0);
        }
        stream_bytes += accesses * useful; // the reads themselves
        chargeSram(Phase::Gather, stream_bytes,
                   sim::AccessPattern::Streamed);
        double dram_b = 0.0;
        if (table_bytes > budget()) {
            dram_b = table_bytes; // one streamed pass over features
            chargeDramStream(dram_b);
        }
        const Cycles mem = std::max(
            sram_.cycles(static_cast<std::uint64_t>(stream_bytes),
                         sim::AccessPattern::Streamed),
            dram_.streamCycles(static_cast<std::uint64_t>(dram_b)));
        report_.addCycles(Phase::Gather, mem);
    }

    void
    interpolatePhase(const FpShape &f, const BlockSummary &blocks)
    {
        const double blend_macs = static_cast<double>(f.n_fine) *
                                  static_cast<double>(f.k) *
                                  static_cast<double>(f.c_in);
        const bool blocked =
            policy_.block_interpolation && !blocks.leaf_sizes.empty();
        if (!blocked) {
            const double dist = static_cast<double>(f.n_fine) *
                                static_cast<double>(f.n_coarse);
            const Cycles compute =
                static_cast<Cycles>(dist / laneRateTotal());
            energy_.addDistances(static_cast<std::uint64_t>(dist));
            energy_.addMacs(static_cast<std::uint64_t>(blend_macs));

            const double ws =
                static_cast<double>(f.n_coarse) * kCoordBytes;
            const double resident_queries =
                std::max(1.0, budget() * 0.5 / 16.0);
            const double passes =
                std::ceil(static_cast<double>(f.n_fine) /
                          resident_queries);
            const double spill = spillFraction(ws, budget() * 0.5);
            const double dram_b = passes * ws * spill;
            chargeSram(Phase::Interpolate,
                       std::max(0.0, dist * kCoordBytes - dram_b),
                       sim::AccessPattern::Streamed);
            chargeDramStream(dram_b);
            const Cycles mem = dram_.streamCycles(
                static_cast<std::uint64_t>(dram_b));
            report_.addCycles(Phase::Interpolate,
                              std::max(compute, mem));
            return;
        }

        // Block-wise interpolation: queries are every point of a
        // leaf; candidates are the sampled points of the search
        // space (coarse rate of it).
        const double coarse_rate =
            static_cast<double>(f.n_coarse) /
            static_cast<double>(f.n_fine);
        std::vector<Cycles> tasks;
        tasks.reserve(blocks.leaf_sizes.size());
        double total_dist = 0.0;
        double sram_b = 0.0;
        for (std::size_t b = 0; b < blocks.leaf_sizes.size(); ++b) {
            const double sb = blocks.leaf_sizes[b];
            if (sb <= 0.0)
                continue;
            const double space = std::max<double>(
                blocks.space_sizes[b], blocks.leaf_sizes[b]);
            const double cand =
                std::max(1.0, std::round(coarse_rate * space));
            const double dist = sb * cand;
            total_dist += dist;
            tasks.push_back(static_cast<Cycles>(
                dist / policy_.point_lane_rate));
            sram_b += policy_.coord_reuse ? (space + sb) * kCoordBytes
                                          : dist * kCoordBytes;
        }
        energy_.addDistances(static_cast<std::uint64_t>(total_dist));
        energy_.addMacs(static_cast<std::uint64_t>(blend_macs));
        const Cycles compute =
            policy_.block_parallel
                ? sim::lptMakespan(tasks, hw_.point_lanes)
                : static_cast<Cycles>(
                      static_cast<double>(sim::serialLatency(tasks)) /
                      hw_.point_lanes);
        chargeSram(Phase::Interpolate, sram_b,
                   sim::AccessPattern::Streamed);
        report_.addCycles(Phase::Interpolate, compute);
    }

    void
    mlpPhase(std::uint64_t rows,
             const std::vector<std::pair<std::uint64_t,
                                         std::uint64_t>> &gemm)
    {
        if (rows == 0 || gemm.empty())
            return;
        const double pe_per_cycle =
            static_cast<double>(hw_.pe_rows) * hw_.pe_cols;
        Cycles compute = 0;
        double sram_b = 0.0;
        double dram_b = 0.0;
        std::uint64_t macs = 0;
        for (const auto &[c_in, c_out] : gemm) {
            const std::uint64_t layer_macs = rows * c_in * c_out;
            macs += layer_macs;
            // Systolic utilization drops for thin tiles.
            const double util =
                std::min({policy_.pe_util_cap,
                          static_cast<double>(rows) /
                              (static_cast<double>(rows) + 32.0),
                          static_cast<double>(c_out) / 16.0});
            compute += static_cast<Cycles>(
                static_cast<double>(layer_macs) /
                (pe_per_cycle * std::max(0.05, util)));
            const double act_bytes =
                static_cast<double>(rows) *
                static_cast<double>(c_in + c_out) * 2.0;
            sram_b += act_bytes;
            sram_b += static_cast<double>(c_in * c_out) * 2.0; // weights
            const double spill = spillFraction(
                static_cast<double>(rows) * c_out * 2.0, budget());
            dram_b += act_bytes * spill;
            dram_b += static_cast<double>(c_in * c_out) * 2.0;
        }
        energy_.addMacs(macs);
        chargeSram(Phase::Mlp, sram_b,
                   sim::AccessPattern::Streamed);
        chargeDramStream(dram_b);
        const Cycles mem = std::max(
            sram_.cycles(static_cast<std::uint64_t>(sram_b),
                         sim::AccessPattern::Streamed),
            dram_.streamCycles(static_cast<std::uint64_t>(dram_b)));
        report_.addCycles(Phase::Mlp, std::max(compute, mem));
    }

    void
    poolPhase(std::uint64_t centers, std::uint64_t k,
              std::uint64_t channels)
    {
        const std::uint64_t compares = centers * k * channels;
        energy_.addCompares(compares);
        report_.addCycles(Phase::Other,
                          sim::ceilDiv(compares, 256));
    }

    const HardwareConfig &hw_;
    const Policy &policy_;
    const NetworkShape &shape_;
    const BlockSummary &blocks_;
    sim::Sram sram_;
    sim::Dram dram_;
    sim::EnergyMeter energy_;
    RunReport report_;
};

} // namespace

AcceleratorModel::AcceleratorModel(HardwareConfig hw, Policy policy)
    : hw_(std::move(hw)), policy_(policy)
{}

RunReport
AcceleratorModel::run(const nn::ModelConfig &model,
                      const data::PointCloud &cloud) const
{
    const NetworkShape shape =
        buildNetworkShape(model, cloud.size());
    BlockSummary blocks;
    if (policy_.partition_method != part::Method::None) {
        part::PartitionConfig pc;
        pc.threshold = policy_.partition_threshold;
        blocks = summarizeBlocks(
            part::partitioner(policy_.partition_method)
                .partition(cloud, pc));
    }
    return runShape(shape, blocks);
}

RunReport
AcceleratorModel::runShape(const NetworkShape &shape,
                           const BlockSummary &blocks) const
{
    Engine engine(hw_, policy_, shape, blocks);
    return engine.run();
}

AcceleratorModel
makeMesorasi()
{
    Policy p;
    p.delayed_aggregation = true;
    // Mesorasi's aggregation hardware is not pipelined against the
    // MLP datapath; point units run at half rate relative to the
    // dedicated engines of later designs.
    p.point_lane_rate = 0.5;
    p.pe_util_cap = 0.45;
    p.stage_overhead = 20'000;
    return {mesorasiConfig(), p};
}

AcceleratorModel
makePointAcc()
{
    Policy p;
    // Global point operations, no partitioning, no delayed
    // aggregation; dedicated full-rate point units.
    p.point_lane_rate = 1.0;
    return {pointAccConfig(), p};
}

AcceleratorModel
makeCrescent()
{
    Policy p;
    p.partition_method = part::Method::KdTree;
    p.partition_threshold = 256;
    p.delayed_aggregation = true;
    // Crescent searches locally within KD blocks but executes blocks
    // serially, and its sampling engine (borrowed from PointAcc, per
    // the paper's methodology) remains a global FPS.
    p.block_parallel = false;
    p.block_sampling = false;
    p.block_grouping = true;
    p.block_interpolation = true;
    // Delayed aggregation widens gathered rows and its search space;
    // Crescent's gathers stay random-access against the big buffer
    // (the SRAM-energy cost visible in Fig. 15(b)).
    p.block_gathering = false;
    p.coord_reuse = false;
    p.pe_util_cap = 0.55;
    p.stage_overhead = 20'000;
    return {crescentConfig(), p};
}

AcceleratorModel
makeFractalCloud(std::uint32_t threshold)
{
    Policy p;
    p.partition_method = part::Method::Fractal;
    p.partition_threshold = threshold;
    p.delayed_aggregation = true;
    p.block_parallel = true;
    p.block_sampling = true;
    p.block_grouping = true;
    p.block_interpolation = true;
    p.block_gathering = true;
    p.window_check = true;
    p.coord_reuse = true;
    return {fractalCloudConfig(), p};
}

AcceleratorModel
makeFractalCloudWithPolicy(const Policy &policy)
{
    return {fractalCloudConfig(), policy};
}

RunReport
gpuRun(const nn::ModelConfig &model, std::uint64_t n_points,
       const GpuConfig &gpu)
{
    const NetworkShape shape = buildNetworkShape(model, n_points);
    RunReport report;
    report.accelerator = "GPU";
    report.model = shape.model;
    report.num_points = n_points;
    report.freq_ghz = 1.0; // report cycles at 1 GHz equivalents

    auto to_cycles = [](double seconds) {
        return static_cast<sim::Cycles>(seconds * 1e9);
    };
    const double launch = gpu.kernel_launch_us * 1e-6;
    const double framework = gpu.framework_overhead_us * 1e-6;

    double total_s = 0.0;
    for (const SaShape &s : shape.sa) {
        // FPS: serialized iterations.
        const double iter_s = std::max(
            gpu.fps_iteration_us * 1e-6,
            static_cast<double>(s.n_in) / gpu.dist_geval_per_s);
        const double fps_s =
            static_cast<double>(s.n_out) * iter_s + launch;
        report.addCycles(Phase::Sample, to_cycles(fps_s));

        // Ball query: brute force over all candidates.
        const double bq_s = static_cast<double>(s.n_out) *
                                static_cast<double>(s.n_in) /
                                gpu.dist_geval_per_s +
                            launch;
        report.addCycles(Phase::Group, to_cycles(bq_s));

        // Gather: memory-bound scattered reads (fp32 on GPU).
        const double bytes = static_cast<double>(s.n_out) *
                             static_cast<double>(s.k) *
                             static_cast<double>(s.c_in + 3) * 4.0;
        const double gather_s =
            bytes / (gpu.mem_gbps * 1e9 * 0.35) + launch;
        report.addCycles(Phase::Gather, to_cycles(gather_s));

        // MLP (no delayed aggregation in the reference stacks).
        double macs = 0.0;
        for (const auto &[c_in, c_out] : s.gemm)
            macs += static_cast<double>(s.n_out) *
                    static_cast<double>(s.k) *
                    static_cast<double>(c_in) *
                    static_cast<double>(c_out);
        const double mlp_s =
            2.0 * macs / (gpu.mlp_tflops * 1e12) +
            (launch + gpu.mlp_layer_overhead_us * 1e-6) *
                static_cast<double>(s.gemm.size());
        report.addCycles(Phase::Mlp, to_cycles(mlp_s));
        report.addCycles(Phase::Other, to_cycles(framework));
        total_s += fps_s + bq_s + gather_s + mlp_s + framework;
    }
    for (const FpShape &f : shape.fp) {
        const double knn_s = static_cast<double>(f.n_fine) *
                                 static_cast<double>(f.n_coarse) /
                                 gpu.dist_geval_per_s +
                             launch;
        report.addCycles(Phase::Interpolate, to_cycles(knn_s));
        double macs = 0.0;
        for (const auto &[c_in, c_out] : f.gemm)
            macs += static_cast<double>(f.n_fine) *
                    static_cast<double>(c_in) *
                    static_cast<double>(c_out);
        const double mlp_s =
            2.0 * macs / (gpu.mlp_tflops * 1e12) +
            (launch + gpu.mlp_layer_overhead_us * 1e-6) *
                static_cast<double>(f.gemm.size());
        report.addCycles(Phase::Mlp, to_cycles(mlp_s));
        report.addCycles(Phase::Other, to_cycles(framework));
        total_s += knn_s + mlp_s + framework;
    }
    double head_macs = 0.0;
    for (const auto &[c_in, c_out] : shape.head)
        head_macs += static_cast<double>(shape.head_rows) *
                     static_cast<double>(c_in) *
                     static_cast<double>(c_out);
    const double head_s =
        2.0 * head_macs / (gpu.mlp_tflops * 1e12) + launch;
    report.addCycles(Phase::Mlp, to_cycles(head_s));
    total_s += head_s;

    // Board energy: average power times latency.
    const double joules = gpu.power_watts * total_s;
    report.compute_pj = joules * 1e12 * 0.55;
    report.dram_pj = joules * 1e12 * 0.35;
    report.sram_pj = joules * 1e12 * 0.10;
    report.dram_bytes = static_cast<std::uint64_t>(
        total_s * gpu.mem_gbps * 1e9 * 0.3);
    return report;
}

} // namespace fc::accel
