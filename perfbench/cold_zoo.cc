/**
 * @file
 * cold_zoo: the paper's strategy generator, closed loop, one caller,
 * in-process StrategyService::submit.  Every request is a fresh
 * (model, target, seed) identity with warm starts off, so each one runs
 * the whole cold path.  From the second pass on, bursts of exact hits on
 * the first pass's answers, with the net workloads' key mix, time the
 * in-process hit path.
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>

#include "bench_common.h"
#include "serve/fingerprint.h"
#include "serve/service.h"
#include "workloads.h"

namespace perfbench {

using namespace opdvfs;

namespace {

/**
 * Share of the run spent on in-process exact hits.  They come in a burst
 * after each cold answer, so they sample the machine over the whole run,
 * and the pass deadline counts cold time only, so they do not change
 * how many passes fit.
 */
constexpr double kHitShare = 0.1;

serve::StrategyRequest
submission(const ColdRequest &request)
{
    serve::StrategyRequest submit;
    submit.workload = request.workload;
    submit.perf_loss_target = request.target;
    submit.seed = request.seed;
    submit.allow_warm_start = false;
    return submit;
}

/**
 * Asks the hit keys among the first @p key_count of @p answers
 * (hitKeyOrder: 90% small, 10% BERT-size, Zipf popularity, no GPT3).
 * Every hit must be an exact hit equal to its cold answer.
 */
class HitAsker
{
  public:
    HitAsker(serve::StrategyService &service,
             const std::vector<ColdAnswer> &answers, std::size_t key_count,
             std::uint64_t seed)
        : service_(service), answers_(answers),
          order_(keyOrder(answers, key_count, seed, small_)),
          mix_(small_, order_.size() - small_, kSmallShare, kZipfExponent,
               deriveSeed(seed, 0x200))
    {}

    /** Ask hits for @p seconds. */
    void ask(double seconds, Result &result)
    {
        Clock::time_point deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
        while (!order_.empty() && Clock::now() < deadline) {
            const ColdAnswer &answer = answers_[order_[mix_.next()]];
            ++result.attempted;
            Clock::time_point sent = Clock::now();
            try {
                serve::StrategyResponse hit =
                    service_.submit(submission(answer.request)).get();
                latency_s.push_back(secondsSince(sent));
                if (hit.provenance != serve::Provenance::ExactHit
                    || !sameAnswer(answer.best_mhz, answer.best_score, hit.ga)
                    || !samePlan(hit.strategy.plan, answer.plan))
                    result.fail("in-process hit differs from its cold answer ("
                                + answer.request.model + ")");
            } catch (const std::exception &) {
                ++result.failed;
                latency_s.push_back(kFailedLatency);
            }
        }
    }

    /** Each hit's latency, seconds; a failed hit is infinitely slow. */
    std::vector<double> latency_s;

  private:
    static std::vector<std::size_t>
    keyOrder(const std::vector<ColdAnswer> &answers, std::size_t key_count,
             std::uint64_t seed, std::size_t &small)
    {
        std::vector<ColdRequest> requests;
        for (std::size_t i = 0; i < key_count; ++i)
            requests.push_back(answers[i].request);
        return hitKeyOrder(requests, seed, small);
    }

    serve::StrategyService &service_;
    /** Grows while hits are asked; only the first keys are read. */
    const std::vector<ColdAnswer> &answers_;
    std::size_t small_ = 0;
    std::vector<std::size_t> order_;
    KeyMix mix_;
};

/** Span name of the fingerprint of one zoo model's request. */
std::string
fingerprintSpan(const std::string &model)
{
    if (model == "AlexNet" || model == "ResNet50")
        return "serve.fingerprint.small";
    if (model == "BERT")
        return "serve.fingerprint.bert";
    return "serve.fingerprint.gpt3";
}

/** Set-up repeats per run; setup_s is their median. */
constexpr int kSetupRepeats = 5;

/** Passes a traced run makes at least: 12 requests per model class. */
constexpr std::uint64_t kTracedPasses = 3;

} // namespace

void
runColdZoo(const Args &args, Result &result, SpanRecorder &spans)
{
    SpanRecorder *recorder = args.trace ? &spans : nullptr;
    std::vector<models::Workload> inputs = zooInputs();
    // standardPipeline() calibrates once per process on first use; pay
    // that before set-up is timed.
    bench::calibratedConstants();

    EndToEnd e2e;
    Layers layers;
    std::vector<double> calibrate_s;
    dvfs::PipelineOptions base;
    std::unique_ptr<serve::StrategyService> service;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        service.reset();
        Clock::time_point started = Clock::now();
        power::CalibratedConstants constants = calibrate(recorder);
        calibrate_s.push_back(secondsSince(started));
        base = servicePipeline(constants);
        serve::ServiceOptions options;
        options.pipeline = base;
        options.workers = kServiceWorkers;
        service = std::make_unique<serve::StrategyService>(options);
        e2e.setup_s.push_back(secondsSince(started));
    }

    // --- timed phase ------------------------------------------------------
    // A traced run rebuilds each answer right after the service gave it,
    // traced then untraced, so the service latency and the layer spans
    // it is compared with see the same machine load.
    serve::ThreadPool fitness_pool(kFitnessHelpers);
    RebuildTotals totals;
    RebuildTotals untraced_totals;
    std::vector<double> traced_s;
    std::vector<double> untraced_s;
    std::vector<ColdAnswer> answers;
    std::unique_ptr<HitAsker> hit_asker;
    double cold_budget_s = args.seconds * (1.0 - kHitShare);
    double cold_elapsed_s = 0.0;
    // Hit time owed, in proportion to cold latency; paid after each cold
    // answer once the first pass has given the keys.
    double hit_owed_s = 0.0;
    // Whole passes only, started until the cold share of the run time is
    // used, so every run has the same mix of models whatever the
    // machine's speed.  The first pass is the quality set and holds the
    // hit keys.  A single execution varies by ~10% on a shared machine,
    // so a traced run compares service and spans over kTracedPasses
    // passes.
    std::uint64_t min_passes = args.trace ? kTracedPasses : 1;
    for (std::uint64_t pass = 0;
         pass < min_passes || cold_elapsed_s < cold_budget_s; ++pass) {
        if (pass == 1)
            hit_asker = std::make_unique<HitAsker>(*service, answers,
                                                   answers.size(), args.seed);
        for (const ColdRequest &request : zooPass(inputs, args.seed, pass)) {
            ++result.attempted;
            Clock::time_point sent = Clock::now();
            serve::StrategyResponse cold;
            try {
                cold = service->submit(submission(request)).get();
            } catch (const std::exception &error) {
                ++result.failed;
                std::cout << "cold request failed: " << error.what() << "\n";
                cold_elapsed_s += secondsSince(sent);
                continue;
            }
            double latency = secondsSince(sent);
            if (cold.provenance != serve::Provenance::Cold)
                result.fail("cold_zoo request answered as "
                            + std::string(serve::provenanceToken(
                                cold.provenance)));
            answers.push_back(ColdAnswer{request, cold.ga.best_mhz,
                                         cold.ga.best_score,
                                         cold.strategy.plan,
                                         cold.strategy.stages.size(),
                                         latency});
            if (args.trace) {
                // The composed path: the service's fingerprint, then the
                // rebuilt pipeline.
                std::uint64_t id = answers.size() - 1;
                Clock::time_point fingerprinted = Clock::now();
                serve::fingerprintRequest(request.workload, base.chip,
                                          request.target, request.seed);
                long span = spans.add(fingerprintSpan(request.model),
                                      fingerprinted, Clock::now(), -1, id);
                traced_s.push_back(spans.spans()[span].duration()
                                   + verifyColdAnswer(answers.back(), base,
                                                      fitness_pool, &spans,
                                                      id, result, totals));
                untraced_s.push_back(verifyColdAnswer(
                    answers.back(), base, fitness_pool, nullptr, id, result,
                    untraced_totals));
            }
            cold_elapsed_s += secondsSince(sent);
            hit_owed_s += latency * kHitShare / (1.0 - kHitShare);
            if (hit_asker) {
                hit_asker->ask(hit_owed_s, result);
                hit_owed_s = 0.0;
            }
        }
    }
    if (!hit_asker)
        hit_asker = std::make_unique<HitAsker>(*service, answers,
                                               answers.size(), args.seed);
    hit_asker->ask(hit_owed_s, result);
    const std::vector<double> &hit_s = hit_asker->latency_s;
    serve::ServiceStats stats = service->stats();

    // --- checks and quality (untimed) -------------------------------------
    if (!args.trace)
        verifyColdAnswers(answers, base, nullptr, result, untraced_totals,
                          untraced_s);
    // The first pass is the quality set.
    std::vector<ColdAnswer> quality_set(
        answers.begin(),
        answers.begin()
            + static_cast<long>(std::min<std::size_t>(
                answers.size(), zooModels().size() * zooTargets().size())));
    ZooQuality quality = measureQuality(quality_set, base);

    // --- end-to-end metrics -----------------------------------------------
    double cold_total = 0.0;
    for (const ColdAnswer &answer : answers)
        cold_total += answer.latency_s;
    if (cold_total > 0.0)
        e2e.cold_strategies_per_s =
            static_cast<double>(answers.size()) / cold_total;
    e2e.aicore_saving_pct = quality.aicore_saving_pct;
    e2e.soc_saving_pct = quality.soc_saving_pct;
    e2e.loss_overshoot_pct = quality.loss_overshoot_pct;
    Percentiles hits = percentiles(hit_s, 0.99);
    e2e.hit_p50_ms = hits.p50 * 1e3;

    std::cout << "cold_zoo: " << answers.size() << " cold requests, "
              << hit_s.size() << " in-process hits, " << result.failed
              << " failed\n";

    if (!args.trace) {
        publish(e2e, nullptr, result);
        return;
    }

    // --- per-layer metrics ------------------------------------------------
    std::vector<double> cold_s;
    std::vector<double> gpt3_s;
    for (const ColdAnswer &answer : answers) {
        cold_s.push_back(answer.latency_s);
        if (answer.request.model == "GPT3")
            gpt3_s.push_back(answer.latency_s);
    }
    layers.cold_gpt3_p50_s = median(gpt3_s);
    layers.miss_p50_s = median(cold_s);
    layers.hit_p99_ms = hits.tail * 1e3;
    coldPathLayers(spans.spans(), totals, layers);
    layers.power_calibrate_s = median(calibrate_s);

    double untraced_total = 0.0;
    double traced_total = 0.0;
    double residual_total = 0.0;
    std::map<std::string, std::pair<double, double>> by_model;
    for (std::size_t i = 0; i < answers.size(); ++i) {
        untraced_total += untraced_s[i];
        traced_total += traced_s[i];
        double residual = answers[i].latency_s - traced_s[i];
        residual_total += residual;
        auto &[latency, unaccounted] = by_model[answers[i].request.model];
        latency += answers[i].latency_s;
        unaccounted += residual;
    }
    if (!answers.empty())
        layers.serve_overhead_s =
            residual_total / static_cast<double>(answers.size());
    for (const auto &[model, sums] : by_model) {
        double pct = sums.second / sums.first * 100.0;
        std::cout << "  " << model << ": service latency "
                  << sums.first << " s, unaccounted by layer spans "
                  << pct << "%\n";
        if (std::fabs(pct) > std::fabs(layers.serve_unaccounted_pct))
            layers.serve_unaccounted_pct = pct;
    }
    if (untraced_total > 0.0)
        layers.trace_overhead_pct =
            (traced_total - untraced_total) / untraced_total * 100.0;

    layers.serve_fingerprint_us_small =
        medianSpanMicros(spans.spans(), "serve.fingerprint.small");
    layers.serve_fingerprint_us_bert =
        medianSpanMicros(spans.spans(), "serve.fingerprint.bert");
    serviceLayers(stats, layers);
    publish(e2e, &layers, result);
}

} // namespace perfbench
