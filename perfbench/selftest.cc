/**
 * @file
 * Checks of the measurement helpers themselves: the percentile rule,
 * span self time and the key-mix generator.  Exits non-zero on the
 * first failed check; run.py runs it before every benchmark run.
 */

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using namespace perfbench;

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::cerr << "selftest FAILED: " << what << "\n";
        ++failures;
    }
}

bool
near(double a, double b, double tolerance = 1e-12)
{
    return std::fabs(a - b) <= tolerance;
}

std::vector<double>
ramp(std::size_t count)
{
    std::vector<double> values;
    for (std::size_t i = count; i > 0; --i)
        values.push_back(static_cast<double>(i)); // unsorted on purpose
    return values;
}

void
percentileRule()
{
    check(near(median(ramp(5)), 3.0), "median of 1..5 is 3");
    check(near(median(ramp(4)), 2.0), "nearest-rank median of 1..4 is 2");
    check(samplesBeyond(1000, 0.99) == 10, "p99 of 1000 leaves 10 beyond");
    check(samplesBeyond(999, 0.99) == 9, "p99 of 999 leaves 9 beyond");

    Tail tail = supportedTail(ramp(1000));
    check(near(tail.percentile, 99.0) && near(tail.value, 990.0),
          "1000 samples support p99 = 990");
    tail = supportedTail(ramp(10000));
    check(near(tail.percentile, 99.9) && near(tail.value, 9990.0),
          "10000 samples support p99.9");
    tail = supportedTail(ramp(999));
    check(near(tail.percentile, 95.0), "999 samples fall back to p95");
    tail = supportedTail(ramp(19));
    check(tail.percentile == 0.0, "19 samples support no tail");

    Percentiles p = percentiles(ramp(2000), 0.99);
    check(p.count == 2000 && near(p.p50, 1000.0) && near(p.tail, 1980.0)
              && near(p.tail_percentile, 99.0),
          "p50/p99 of 1..2000");
    p = percentiles(ramp(200), 0.99);
    check(near(p.tail_percentile, 95.0) && near(p.tail, 190.0),
          "an unsupported p99 reports the supported p95");

    std::vector<double> with_failure = ramp(999);
    with_failure.push_back(kFailedLatency);
    p = percentiles(with_failure, 0.99);
    check(near(p.tail, 990.0), "a failure counts as the slowest sample");
}

void
spanSelfTime()
{
    std::vector<Span> spans = {
        {"request", 0.0, 10.0, -1, 1},
        {"a", 1.0, 3.0, 0, 1},
        {"b", 2.0, 5.0, 0, 1},   // overlaps a: union 1..5
        {"c", 8.0, 12.0, 0, 1},  // clipped to the parent: 8..10
        {"a.child", 1.5, 2.5, 1, 1},
        {"other", 0.0, 4.0, -1, 2},
    };
    check(near(selfTime(spans, 0), 10.0 - 4.0 - 2.0),
          "parent self time excludes the union of its children");
    check(near(selfTime(spans, 1), 2.0 - 1.0), "nested child is excluded");
    check(near(selfTime(spans, 2), 3.0), "leaf self time is its duration");
    check(near(selfTime(spans, 5), 4.0), "a span of another request");

    auto by_name = selfTimeByName(spans);
    double total = 0.0;
    for (const auto &[name, seconds_of] : by_name)
        total += seconds_of;
    // Self times partition each top span, except where children overlap
    // each other (a and b) or leave their parent (c).
    check(near(by_name["request"], 4.0) && near(total, 4.0 + 1.0 + 3.0
                                                           + 4.0 + 1.0
                                                           + 4.0),
          "self time by name");

    SpanRecorder first;
    long top = first.open("x", -1, 7);
    first.close(top);
    SpanRecorder second(first.epoch());
    long parent = second.open("y", -1, 8);
    second.open("z", parent, 8);
    first.merge(second);
    check(first.spans().size() == 3 && first.spans()[2].parent == 1,
          "merge re-parents into the combined recorder");
}

void
keyMixShares()
{
    const std::size_t draws = 200000;
    KeyMix mix(8, 4, 0.9, 1.0, 42);
    std::vector<std::size_t> counts(12, 0);
    for (std::size_t i = 0; i < draws; ++i)
        ++counts[mix.next()];
    std::size_t small = 0;
    for (std::size_t k = 0; k < 8; ++k)
        small += counts[k];
    double small_share = static_cast<double>(small) / draws;
    check(std::fabs(small_share - 0.9) < 0.005, "90% of hits are small");
    for (std::size_t k = 0; k < 8; ++k) {
        double expected = 0.9 * KeyMix::zipfShare(k, 8, 1.0);
        double got = static_cast<double>(counts[k]) / draws;
        check(std::fabs(got - expected) < 0.006,
              "small key " + std::to_string(k) + " follows Zipf");
    }
    for (std::size_t k = 0; k < 4; ++k) {
        double expected = 0.1 * KeyMix::zipfShare(k, 4, 1.0);
        double got = static_cast<double>(counts[8 + k]) / draws;
        check(std::fabs(got - expected) < 0.004,
              "large key " + std::to_string(k) + " follows Zipf");
    }
    check(near(KeyMix::zipfShare(0, 4, 1.0), 1.0 / (1 + 0.5 + 1.0 / 3 + 0.25)),
          "Zipf rank-1 share of 4 keys");

    KeyMix again(8, 4, 0.9, 1.0, 42);
    KeyMix replay(8, 4, 0.9, 1.0, 42);
    KeyMix other(8, 4, 0.9, 1.0, 43);
    bool same = true;
    bool differs = false;
    for (int i = 0; i < 1000; ++i) {
        std::size_t a = again.next();
        same = same && a == replay.next();
        differs = differs || a != other.next();
    }
    check(same, "the same seed draws the same keys");
    check(differs, "another seed draws other keys");
}

void
resultFormat()
{
    Result result;
    result.attempted = 3;
    result.set("latency_ms", 1.25, "ms");
    check(resultLine(result)
              == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                 "\"metrics\": {\"latency_ms\": {\"value\": 1.25, "
                 "\"unit\": \"ms\"}}}",
          "result line format");
    check(jsonNumber(0.1) == "0.10000000000000001",
          "numbers keep all their digits");
}

} // namespace

int
main()
{
    percentileRule();
    spanSelfTime();
    keyMixShares();
    resultFormat();
    if (failures == 0)
        std::cout << "perfbench selftest: all checks passed\n";
    return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
