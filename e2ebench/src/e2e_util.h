/**
 * @file
 * Helpers of the end-to-end benchmark that carry no library
 * dependency: nearest-rank percentiles with the supported-percentile
 * rule, an in-memory span log with self-time attribution, and the
 * metric-line format that e2ebench/run.py parses.
 */

#ifndef FC_E2EBENCH_E2E_UTIL_H
#define FC_E2EBENCH_E2E_UTIL_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/**
 * Nearest-rank percentile of @p sorted (ascending): the value at
 * 1-based rank ceil(p / 100 * n), clamped to [1, n]. 0 when empty.
 */
inline double
nearestRank(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double n = static_cast<double>(sorted.size());
    const double rank = std::ceil(p / 100.0 * n - 1e-9);
    const std::size_t r = static_cast<std::size_t>(
        std::clamp(rank, 1.0, n));
    return sorted[r - 1];
}

/** Samples strictly above the nearest-rank @p p-th percentile of @p n
 *  samples (n minus its rank). */
inline std::size_t
samplesBeyond(std::size_t n, double p)
{
    if (n == 0)
        return 0;
    const double rank = std::clamp(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9), 1.0,
        static_cast<double>(n));
    return n - static_cast<std::size_t>(rank);
}

/**
 * Highest percentile of the ladder 50 / 90 / 99 / 99.9 that has at
 * least @p min_beyond samples beyond it out of @p n; 0 when even the
 * median lacks them. A tail percentile resting on fewer samples is
 * one or two requests, not a distribution.
 */
inline double
supportedPercentile(std::size_t n, std::size_t min_beyond = 10)
{
    double best = 0.0;
    for (const double p : {50.0, 90.0, 99.0, 99.9})
        if (samplesBeyond(n, p) >= min_beyond)
            best = p;
    return best;
}

/** Median (mean of the middle two for an even count); 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** A value observed at t_ns after a measured phase started. */
struct Sample
{
    std::int64_t t_ns = 0;
    double value = 0.0;
};

/**
 * Split @p samples into @p k equal windows of [0, span_ns), each sorted
 * by time. Samples before 0 land in the first window and samples at or
 * after span_ns (requests finishing after the phase) in the last.
 */
inline std::vector<std::vector<Sample>>
byWindow(const std::vector<Sample> &samples, std::int64_t span_ns,
         std::size_t k)
{
    k = std::max<std::size_t>(1, k);
    const std::int64_t width =
        std::max<std::int64_t>(1, span_ns / static_cast<std::int64_t>(k));
    std::vector<std::vector<Sample>> windows(k);
    for (const Sample &s : samples) {
        const std::size_t w =
            s.t_ns > 0
                ? std::min(k - 1, static_cast<std::size_t>(s.t_ns / width))
                : 0;
        windows[w].push_back(s);
    }
    for (std::vector<Sample> &w : windows)
        std::sort(w.begin(), w.end(), [](const Sample &a, const Sample &b) {
            return a.t_ns < b.t_ns;
        });
    return windows;
}

/**
 * Per-second rate inside one time-sorted window: the values of every
 * sample after the first, summed, over the time from the first sample
 * to the last. 0 with fewer than two samples.
 */
inline double
windowRate(const std::vector<Sample> &window)
{
    if (window.size() < 2)
        return 0.0;
    double sum = 0.0;
    for (std::size_t i = 1; i < window.size(); ++i)
        sum += window[i].value;
    const std::int64_t dt = window.back().t_ns - window.front().t_ns;
    return dt > 0 ? sum / (static_cast<double>(dt) * 1e-9) : 0.0;
}

/** Nanoseconds on the steady clock (span and latency timestamps). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline constexpr std::uint32_t kNoParent =
    std::numeric_limits<std::uint32_t>::max();

/** One timed call: [start_ns, end_ns) on the steady clock. */
struct Span
{
    const char *name = "";
    std::uint32_t parent = kNoParent; ///< index in the same log
    std::uint64_t request = 0;        ///< request the call served
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/**
 * Single-owner span buffer. Capacity is reserved up front so recording
 * never allocates; spans beyond it are counted in dropped() instead.
 */
class SpanLog
{
  public:
    explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

    /** Open a span; returns its index (kNoParent when dropped). */
    std::uint32_t
    begin(const char *name, std::uint32_t parent, std::uint64_t request)
    {
        if (spans_.size() == spans_.capacity()) {
            ++dropped_;
            return kNoParent;
        }
        spans_.push_back({name, parent, request, nowNs(), 0});
        return static_cast<std::uint32_t>(spans_.size() - 1);
    }

    void
    end(std::uint32_t id)
    {
        if (id != kNoParent)
            spans_[id].end_ns = nowNs();
    }

    const std::vector<Span> &spans() const { return spans_; }
    std::size_t dropped() const { return dropped_; }

  private:
    std::vector<Span> spans_;
    std::size_t dropped_ = 0;
};

/** RAII span; a null log records nothing (the untraced mode). */
class Scope
{
  public:
    Scope(SpanLog *log, const char *name, std::uint32_t parent,
          std::uint64_t request)
        : log_(log),
          id_(log != nullptr ? log->begin(name, parent, request)
                             : kNoParent)
    {
    }
    ~Scope()
    {
        if (log_ != nullptr)
            log_->end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint32_t id() const { return id_; }

  private:
    SpanLog *log_;
    std::uint32_t id_;
};

/**
 * Self time of every span: its duration minus the part of it covered
 * by the union of its direct children (children may overlap each
 * other and may stick out of the parent; only the covered part inside
 * the parent counts, once).
 */
inline std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::uint32_t>> children(spans.size());
    for (std::uint32_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent != kNoParent && spans[i].parent < spans.size())
            children[spans[i].parent].push_back(i);

    std::vector<std::int64_t> self(spans.size());
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        iv.clear();
        for (const std::uint32_t c : children[i]) {
            const std::int64_t b = std::max(spans[c].start_ns, s.start_ns);
            const std::int64_t e = std::min(spans[c].end_ns, s.end_ns);
            if (e > b)
                iv.emplace_back(b, e);
        }
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cur_b = 0, cur_e = 0;
        bool open = false;
        for (const auto &[b, e] : iv) {
            if (open && b <= cur_e) {
                cur_e = std::max(cur_e, e);
                continue;
            }
            if (open)
                covered += cur_e - cur_b;
            cur_b = b;
            cur_e = e;
            open = true;
        }
        if (open)
            covered += cur_e - cur_b;
        self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
}

/** Per-name totals of a span set. */
struct SpanTotals
{
    std::size_t count = 0;
    std::int64_t self_ns = 0;
    std::int64_t wall_ns = 0;
};

inline void
accumulateByName(const std::vector<Span> &spans,
                 std::map<std::string, SpanTotals> &out)
{
    const std::vector<std::int64_t> self = selfTimes(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SpanTotals &t = out[spans[i].name];
        ++t.count;
        t.self_ns += self[i];
        t.wall_ns += spans[i].end_ns - spans[i].start_ns;
    }
}

/** Layer of a span name: the text before its first dot. */
inline std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

/**
 * One metric line: `metric <name> <value> <unit> n=<samples>`.
 * e2ebench/run.py parses these into the result object; %.9g keeps
 * every measured digit a double carries at benchmark scales.
 */
inline void
printMetric(const std::string &name, double value, const char *unit,
            std::size_t samples)
{
    std::printf("metric %s %.9g %s n=%zu\n", name.c_str(), value, unit,
                samples);
}

} // namespace e2e

#endif // FC_E2EBENCH_E2E_UTIL_H
