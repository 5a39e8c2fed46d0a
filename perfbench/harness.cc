#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>
#include <utility>

#include <sys/resource.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double
quantileSorted(const std::vector<double> &sorted, double fraction)
{
    if (sorted.empty())
        return 0.0;
    double rank = std::ceil(fraction * static_cast<double>(sorted.size()));
    std::size_t at = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(at, sorted.size() - 1)];
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return quantileSorted(values, 0.5);
}

std::size_t
samplesBeyond(std::size_t count, double fraction)
{
    auto rank = static_cast<std::size_t>(
        std::ceil(fraction * static_cast<double>(count)));
    return count > rank ? count - rank : 0;
}

Tail
supportedTail(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    for (double fraction : {0.999, 0.99, 0.95, 0.90, 0.75, 0.50}) {
        if (samplesBeyond(values.size(), fraction) >= 10)
            return Tail{fraction * 100.0, quantileSorted(values, fraction)};
    }
    return Tail{};
}

Percentiles
percentiles(std::vector<double> values, double tail_fraction)
{
    std::sort(values.begin(), values.end());
    Percentiles out;
    out.count = values.size();
    out.p50 = quantileSorted(values, 0.5);
    if (samplesBeyond(values.size(), tail_fraction) >= 10) {
        out.tail = quantileSorted(values, tail_fraction);
        out.tail_percentile = tail_fraction * 100.0;
    } else {
        Tail tail = supportedTail(values);
        out.tail = tail.value;
        out.tail_percentile = tail.percentile;
    }
    return out;
}

// --- spans --------------------------------------------------------------

long
SpanRecorder::open(std::string name, long parent, std::uint64_t request)
{
    double now = seconds(epoch_, Clock::now());
    spans_.push_back(Span{std::move(name), now, now, parent, request});
    return static_cast<long>(spans_.size()) - 1;
}

void
SpanRecorder::close(long index)
{
    spans_[static_cast<std::size_t>(index)].end =
        seconds(epoch_, Clock::now());
}

long
SpanRecorder::add(std::string name, Clock::time_point start,
                  Clock::time_point end, long parent, std::uint64_t request)
{
    spans_.push_back(Span{std::move(name), seconds(epoch_, start),
                          seconds(epoch_, end), parent, request});
    return static_cast<long>(spans_.size()) - 1;
}

void
SpanRecorder::merge(const SpanRecorder &other)
{
    long base = static_cast<long>(spans_.size());
    double shift = seconds(epoch_, other.epoch_);
    for (Span span : other.spans_) {
        span.start += shift;
        span.end += shift;
        if (span.parent >= 0)
            span.parent += base;
        spans_.push_back(std::move(span));
    }
}

ScopedSpan::ScopedSpan(SpanRecorder *recorder, const char *name, long parent,
                       std::uint64_t request)
    : recorder_(recorder)
{
    if (recorder_)
        index_ = recorder_->open(name, parent, request);
}

ScopedSpan::~ScopedSpan()
{
    if (recorder_)
        recorder_->close(index_);
}

double
selfTime(const std::vector<Span> &spans, std::size_t index)
{
    const Span &self = spans[index];
    std::vector<std::pair<double, double>> children;
    for (const Span &span : spans) {
        if (span.parent != static_cast<long>(index))
            continue;
        double start = std::max(span.start, self.start);
        double end = std::min(span.end, self.end);
        if (end > start)
            children.emplace_back(start, end);
    }
    std::sort(children.begin(), children.end());
    double covered = 0.0;
    double reach = self.start;
    for (const auto &[start, end] : children) {
        double from = std::max(start, reach);
        if (end > from)
            covered += end - from;
        reach = std::max(reach, end);
    }
    return self.duration() - covered;
}

std::map<std::string, double>
selfTimeByName(const std::vector<Span> &spans)
{
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += selfTime(spans, i);
    return out;
}

void
writeSpans(std::ostream &os, const std::vector<Span> &spans)
{
    for (const Span &span : spans) {
        os << "{\"name\": " << jsonString(span.name)
           << ", \"start\": " << jsonNumber(span.start)
           << ", \"end\": " << jsonNumber(span.end)
           << ", \"parent\": " << span.parent
           << ", \"request\": " << span.request << "}\n";
    }
}

// --- seeded inputs ------------------------------------------------------

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
uniform01(std::uint64_t &state)
{
    return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t state = seed ^ (stream * 0xd1b54a32d192ed03ULL);
    return splitmix64(state);
}

double
KeyMix::zipfShare(std::size_t rank, std::size_t keys, double exponent)
{
    double total = 0.0;
    for (std::size_t r = 1; r <= keys; ++r)
        total += 1.0 / std::pow(static_cast<double>(r), exponent);
    return 1.0 / std::pow(static_cast<double>(rank + 1), exponent) / total;
}

namespace {

std::vector<double>
zipfCdf(std::size_t keys, double exponent)
{
    std::vector<double> cdf;
    double sum = 0.0;
    for (std::size_t rank = 0; rank < keys; ++rank) {
        sum += KeyMix::zipfShare(rank, keys, exponent);
        cdf.push_back(sum);
    }
    if (!cdf.empty())
        cdf.back() = 1.0;
    return cdf;
}

} // namespace

KeyMix::KeyMix(std::size_t small_keys, std::size_t large_keys,
               double small_share, double exponent, std::uint64_t seed)
    : small_keys_(small_keys),
      small_share_(large_keys == 0 ? 1.0 : small_share),
      small_cdf_(zipfCdf(small_keys, exponent)),
      large_cdf_(zipfCdf(large_keys, exponent)), state_(seed)
{}

std::size_t
KeyMix::draw(const std::vector<double> &cdf)
{
    double u = uniform01(state_);
    return static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end() - 1, u) - cdf.begin());
}

std::size_t
KeyMix::next()
{
    if (uniform01(state_) < small_share_)
        return draw(small_cdf_);
    return small_keys_ + draw(large_cdf_);
}

// --- result -------------------------------------------------------------

MachineShape
machineShape(const std::string &git_sha)
{
    MachineShape shape;
    shape.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
    shape.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    shape.compiler = "gcc " __VERSION__;
#else
    shape.compiler = "unknown";
#endif
    shape.build_type = PERFBENCH_BUILD_TYPE;
    shape.git_sha = git_sha;
    return shape;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
            out += buffer;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
resultLine(const Result &result)
{
    std::ostringstream os;
    os << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : result.metrics) {
        os << (first ? "" : ", ") << jsonString(name) << ": {\"value\": "
           << jsonNumber(metric.value)
           << ", \"unit\": " << jsonString(metric.unit) << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

std::string
machineLine(const MachineShape &shape)
{
    std::ostringstream os;
    os << "{\"machine\": {\"nproc\": " << shape.nproc
       << ", \"compiler\": " << jsonString(shape.compiler)
       << ", \"build_type\": " << jsonString(shape.build_type)
       << ", \"git_sha\": " << jsonString(shape.git_sha) << "}}";
    return os.str();
}

} // namespace perfbench
