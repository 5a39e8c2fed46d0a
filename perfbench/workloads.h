/**
 * @file
 * The three benchmark workloads and the metric sets every run reports.
 *
 * Every run prints the same metric names whatever the workload: the
 * end-to-end set with tracing off, the per-layer set with tracing on.
 * README.md says how each workload measures each of them.
 */

#ifndef OPDVFS_PERFBENCH_WORKLOADS_H
#define OPDVFS_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "layers.h"
#include "serve/service.h"

namespace perfbench {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string git_sha = "none";
    /** Directory for the span dump (inside the checkout). */
    std::string out_dir = ".bench_out";
};

/**
 * Hit latency limit for the SLO rate, milliseconds.  Well above an
 * unloaded hit on every workload (an in-process GPT3 hit fingerprints
 * 20k operators in ~7 ms; a BERT-size hit over TCP takes ~5 ms) and
 * above the scheduling stalls of a shared machine (p99 up to ~16 ms at
 * low load), far below a backlog building up.
 */
constexpr double kHitLimitMs = 50.0;

/** The end-to-end metrics (tracing off). */
struct EndToEnd
{
    std::vector<double> setup_s;
    double cold_strategies_per_s = 0.0;
    double aicore_saving_pct = 0.0;
    double soc_saving_pct = 0.0;
    double loss_overshoot_pct = 0.0;
    /** NaN (printed as null) when the open-loop run is invalid. */
    double hit_p50_ms = 0.0;
};

/** The per-layer metrics (tracing on).  Layers a workload does not
 *  exercise report 0 work. */
struct Layers
{
    double power_calibrate_s = 0.0;
    double power_online_s = 0.0;
    double perf_fit_s = 0.0;
    double dvfs_preprocess_s = 0.0;
    double dvfs_plan_s = 0.0;
    double trace_profile_s = 0.0;
    double trace_measure_s = 0.0;
    double trace_sim_ops_per_s = 0.0;
    double dvfs_search_s = 0.0;
    double dvfs_evals_per_s = 0.0;
    double dvfs_stages = 0.0;
    double dvfs_converged_at_gen = 0.0;
    double serve_overhead_s = 0.0;
    double serve_unaccounted_pct = 0.0;
    double serve_fingerprint_us_small = 0.0;
    double serve_fingerprint_us_bert = 0.0;
    double serve_queue_wait_ms = 0.0;
    double serve_warm_ratio = 0.0;
    double serve_similar_scanned_per_lookup = 0.0;
    double serve_exact_hits = 0.0;
    double serve_warm_hits = 0.0;
    double serve_cold_misses = 0.0;
    double serve_coalesced = 0.0;
    double net_client_encode_us = 0.0;
    double net_decode_us_small = 0.0;
    double net_decode_us_bert = 0.0;
    double net_server_ms = 0.0;
    double net_fast_path_ratio = 0.0;
    double net_reactor_imbalance = 0.0;
    double net_busy = 0.0;
    double gen_late_p99_ms = 0.0;
    double trace_overhead_pct = 0.0;
    /** End-to-end timings too noisy to gate (README), ungated here. */
    double hit_p99_ms = 0.0;
    double hit_slo_rps = 0.0;
    double cold_gpt3_p50_s = 0.0;
    double miss_p50_s = 0.0;
};

/** The run's metrics: the end-to-end set, or with @p layers (a traced
 *  run) the per-layer set. */
void publish(const EndToEnd &e2e, const Layers *layers, Result &result);

/** Fill the cold-path layer metrics from the spans of rebuilt requests. */
struct RebuildTotals
{
    std::size_t requests = 0;
    double stages = 0.0;
    double converged_share = 0.0;
    double evaluations = 0.0;
    double simulated_ops = 0.0;
};
void coldPathLayers(const std::vector<Span> &spans,
                    const RebuildTotals &totals, Layers &layers);

/** Share of hits on small requests, and the Zipf exponent of key
 *  popularity inside each size class, on every workload. */
constexpr double kSmallShare = 0.9;
constexpr double kZipfExponent = 1.0;

/**
 * The hit keys among the zoo @p requests, in Zipf rank order: the small
 * class (AlexNet, ResNet50: <= 600 operators) first, its ranks
 * alternating ResNet50, AlexNet so every seed sends the same byte mix
 * (the median lands inside the ResNet50 share), then the BERT-size
 * class.  GPT3 is never hit.  The seed only decides which loss target
 * holds which rank.  Returns indices into @p requests; @p small gets the
 * small class's size.
 */
std::vector<std::size_t> hitKeyOrder(const std::vector<ColdRequest> &requests,
                                     std::uint64_t seed, std::size_t &small);

/**
 * The zoo models as models::buildWorkload builds them (same order as
 * zooModels()).  Their content is the same in every run, so a run's
 * seed moves only the request seeds, not the stage counts.
 */
std::vector<opdvfs::models::Workload> zooInputs();

/**
 * The 16 (model, target) requests of pass @p pass in a fixed order,
 * target by target with the models interleaved, each with a fresh
 * seeded request seed: no two requests of a run share an identity, so
 * none is answered from the cache.  The order is fixed so that runs
 * differ only in their inputs; interleaving spreads each model's
 * samples over the run, so a slow spell of a shared machine does not
 * land on one model.
 */
std::vector<ColdRequest>
zooPass(const std::vector<opdvfs::models::Workload> &inputs,
        std::uint64_t seed, std::uint64_t pass);

/** A cold answer as the program returned it. */
struct ColdAnswer
{
    ColdRequest request;
    std::vector<double> best_mhz;
    double best_score = 0.0;
    opdvfs::dvfs::ExecutionPlan plan;
    std::size_t stages = 0;
    /** Submit to answer, seconds. */
    double latency_s = 0.0;
};

/**
 * The service runs each search on one worker with the other as fitness
 * helper; a pool of one plus the calling thread is the same.
 */
constexpr std::size_t kFitnessHelpers = kServiceWorkers - 1;

/**
 * Rebuild @p answer's cold path on @p pool and require a bit-equal
 * GaResult and plan.  With @p recorder the rebuild is traced; @p totals
 * collects its work counts.  Returns the rebuild's wall time.
 */
double verifyColdAnswer(const ColdAnswer &answer,
                        const opdvfs::dvfs::PipelineOptions &base,
                        opdvfs::serve::ThreadPool &pool,
                        SpanRecorder *recorder, std::uint64_t request_id,
                        Result &result, RebuildTotals &totals);

/** verifyColdAnswer over @p answers; @p rebuilt_seconds gets each
 *  rebuild's wall time. */
void verifyColdAnswers(const std::vector<ColdAnswer> &answers,
                       const opdvfs::dvfs::PipelineOptions &base,
                       SpanRecorder *recorder, Result &result,
                       RebuildTotals &totals,
                       std::vector<double> &rebuilt_seconds);

/** Replay the plans and summarise Table 3's row and the overshoot. */
ZooQuality measureQuality(const std::vector<ColdAnswer> &answers,
                          const opdvfs::dvfs::PipelineOptions &base);

/** Median duration of the spans named @p name, microseconds. */
double medianSpanMicros(const std::vector<Span> &spans,
                        const std::string &name);

/** The service's own counters, as per-layer metrics. */
void serviceLayers(const opdvfs::serve::ServiceStats &stats, Layers &layers);

/** Offline calibration under a "power.calibrate" span. */
opdvfs::power::CalibratedConstants calibrate(SpanRecorder *recorder);

/** Each sets `result` and, when tracing, appends its spans. */
void runColdZoo(const Args &args, Result &result, SpanRecorder &spans);
void runHitStorm(const Args &args, Result &result, SpanRecorder &spans);
void runMixedFleet(const Args &args, Result &result, SpanRecorder &spans);

} // namespace perfbench

#endif // OPDVFS_PERFBENCH_WORKLOADS_H
