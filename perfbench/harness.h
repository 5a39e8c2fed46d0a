/**
 * @file
 * Measurement helpers shared by the perfbench workloads: the
 * percentile rule, in-memory spans with self time, the seeded key-mix
 * generator, the machine-shape record and the result line.
 *
 * Everything here is deliberately independent of the opdvfs libraries
 * so selftest.cc can check it in isolation.
 */

#ifndef OPDVFS_PERFBENCH_HARNESS_H
#define OPDVFS_PERFBENCH_HARNESS_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

inline double
secondsSince(Clock::time_point from)
{
    return seconds(from, Clock::now());
}

/** A failed request's latency: it misses every latency limit. */
constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

/**
 * Nearest-rank quantile of @p sorted (ascending) at @p fraction in
 * (0, 1]: the smallest sample with at least that share of samples at
 * or below it.
 */
double quantileSorted(const std::vector<double> &sorted, double fraction);

/** Median of @p values (nearest rank); 0 for an empty sample. */
double median(std::vector<double> values);

/**
 * The tail a sample supports: the highest of p99.9 / p99 / p95 / p90 /
 * p75 / p50 that leaves at least ten samples strictly beyond its rank.
 * `percentile` is 0 when the sample has fewer than twenty values.
 */
struct Tail
{
    double percentile = 0.0;
    double value = 0.0;
};
Tail supportedTail(std::vector<double> values);

/** Samples strictly beyond the nearest-rank @p fraction quantile. */
std::size_t samplesBeyond(std::size_t count, double fraction);

/** Quantile that is reported only when at least ten samples lie beyond
 *  it; otherwise the supported tail is returned (and flagged). */
struct Percentiles
{
    std::size_t count = 0;
    double p50 = 0.0;
    /** Requested tail quantile, or the supported one when the sample
     *  is too small (see `tail_percentile`). */
    double tail = 0.0;
    double tail_percentile = 0.0;
};
Percentiles percentiles(std::vector<double> values, double tail_fraction);

// --- spans --------------------------------------------------------------

/** One timed call at a layer boundary. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    /** Index of the enclosing span in the same recorder; -1 at the top. */
    long parent = -1;
    std::uint64_t request = 0;

    double duration() const { return end - start; }
};

/**
 * Spans kept in memory for one thread; written out when the run ends.
 * Times are seconds since the recorder's epoch.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(Clock::time_point epoch = Clock::now())
        : epoch_(epoch)
    {}

    /** Open a span; returns its index. */
    long open(std::string name, long parent, std::uint64_t request);
    void close(long index);

    /** Record an already-timed interval. */
    long add(std::string name, Clock::time_point start, Clock::time_point end,
             long parent, std::uint64_t request);

    const std::vector<Span> &spans() const { return spans_; }
    Clock::time_point epoch() const { return epoch_; }

    /** Append every span of @p other (re-parented into this recorder). */
    void merge(const SpanRecorder &other);

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

/** Opens a span on construction and closes it on destruction; a null
 *  recorder makes it a no-op (the untraced path). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, const char *name, long parent,
               std::uint64_t request);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    long index() const { return index_; }

  private:
    SpanRecorder *recorder_;
    long index_ = -1;
};

/**
 * Self time of span @p index: its duration minus the part of its
 * interval covered by the union of its direct children.
 */
double selfTime(const std::vector<Span> &spans, std::size_t index);

/** Sum of self time per span name. */
std::map<std::string, double> selfTimeByName(const std::vector<Span> &spans);

/** One JSON object per line. */
void writeSpans(std::ostream &os, const std::vector<Span> &spans);

// --- seeded inputs ------------------------------------------------------

/** splitmix64 step: a small, portable, seedable generator. */
std::uint64_t splitmix64(std::uint64_t &state);

/** Uniform double in [0, 1) from @p state. */
double uniform01(std::uint64_t &state);

/** Derive an independent seed from a base seed and a stream label. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

/**
 * Draws hit keys: first a size class (small with probability
 * `small_share`, else large), then a key inside the class with Zipf
 * popularity (rank r has weight 1 / r^exponent).  Keys are numbered
 * small first: [0, small_keys) then [small_keys, small_keys+large_keys).
 */
class KeyMix
{
  public:
    KeyMix(std::size_t small_keys, std::size_t large_keys,
           double small_share, double exponent, std::uint64_t seed);

    std::size_t next();

    /** Zipf probability of rank @p rank (0-based) among @p keys. */
    static double zipfShare(std::size_t rank, std::size_t keys,
                            double exponent);

  private:
    std::size_t draw(const std::vector<double> &cdf);

    std::size_t small_keys_;
    double small_share_;
    std::vector<double> small_cdf_;
    std::vector<double> large_cdf_;
    std::uint64_t state_;
};

// --- result -------------------------------------------------------------

/** The machine a result was measured on. */
struct MachineShape
{
    unsigned nproc = 0;
    std::string compiler;
    std::string build_type;
    std::string git_sha;
};
MachineShape machineShape(const std::string &git_sha);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** The run's result line (the last line of standard output). */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    /** Why `correct` is false, one entry per failed check. */
    std::vector<std::string> problems;

    void set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }
    void fail(std::string problem)
    {
        correct = false;
        problems.push_back(std::move(problem));
    }
};

/** Finite doubles at full precision; non-finite values as null. */
std::string jsonNumber(double value);
std::string jsonString(const std::string &text);
std::string resultLine(const Result &result);
std::string machineLine(const MachineShape &shape);

} // namespace perfbench

#endif // OPDVFS_PERFBENCH_HARNESS_H
