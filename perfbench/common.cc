#include "workloads.h"

#include <algorithm>
#include <utility>

#include "bench_common.h"
#include "models/model_zoo.h"
#include "power/offline_calibration.h"

namespace perfbench {

namespace {

void
publishEndToEnd(const EndToEnd &e2e, Result &result)
{
    result.set("setup_s", median(e2e.setup_s), "s");
    result.set("peak_rss_mb", peakRssMb(), "MB");
    result.set("cold_strategies_per_s", e2e.cold_strategies_per_s, "1/s");
    result.set("aicore_saving_pct", e2e.aicore_saving_pct, "%");
    result.set("soc_saving_pct", e2e.soc_saving_pct, "%");
    result.set("loss_overshoot_pct", e2e.loss_overshoot_pct, "pp");
    result.set("hit_p50_ms", e2e.hit_p50_ms, "ms");
}

void
publishLayers(const Layers &l, Result &result)
{
    result.set("power.calibrate_s", l.power_calibrate_s, "s");
    result.set("power.online_s", l.power_online_s, "s");
    result.set("perf.fit_s", l.perf_fit_s, "s");
    result.set("dvfs.preprocess_s", l.dvfs_preprocess_s, "s");
    result.set("dvfs.plan_s", l.dvfs_plan_s, "s");
    result.set("trace.profile_s", l.trace_profile_s, "s");
    result.set("trace.measure_s", l.trace_measure_s, "s");
    result.set("trace.sim_ops_per_s", l.trace_sim_ops_per_s, "1/s");
    result.set("dvfs.search_s", l.dvfs_search_s, "s");
    result.set("dvfs.evals_per_s", l.dvfs_evals_per_s, "1/s");
    result.set("dvfs.stages", l.dvfs_stages, "count");
    result.set("dvfs.converged_at_gen", l.dvfs_converged_at_gen, "ratio");
    result.set("serve.overhead_s", l.serve_overhead_s, "s");
    result.set("serve.unaccounted_pct", l.serve_unaccounted_pct, "%");
    result.set("serve.fingerprint_us.small", l.serve_fingerprint_us_small,
               "us");
    result.set("serve.fingerprint_us.bert", l.serve_fingerprint_us_bert,
               "us");
    result.set("serve.queue_wait_ms", l.serve_queue_wait_ms, "ms");
    result.set("serve.warm_ratio", l.serve_warm_ratio, "ratio");
    result.set("serve.similar_scanned_per_lookup",
               l.serve_similar_scanned_per_lookup, "count");
    result.set("serve.exact_hits", l.serve_exact_hits, "count");
    result.set("serve.warm_hits", l.serve_warm_hits, "count");
    result.set("serve.cold_misses", l.serve_cold_misses, "count");
    result.set("serve.coalesced", l.serve_coalesced, "count");
    result.set("net.client_encode_us", l.net_client_encode_us, "us");
    result.set("net.decode_us.small", l.net_decode_us_small, "us");
    result.set("net.decode_us.bert", l.net_decode_us_bert, "us");
    result.set("net.server_ms", l.net_server_ms, "ms");
    result.set("net.fast_path_ratio", l.net_fast_path_ratio, "ratio");
    result.set("net.reactor_imbalance", l.net_reactor_imbalance, "ratio");
    result.set("net.busy", l.net_busy, "count");
    result.set("gen.late_p99_ms", l.gen_late_p99_ms, "ms");
    result.set("trace.overhead_pct", l.trace_overhead_pct, "%");
    result.set("hit.p99_ms", l.hit_p99_ms, "ms");
    result.set("hit.slo_rps", l.hit_slo_rps, "1/s");
    result.set("cold.gpt3_p50_s", l.cold_gpt3_p50_s, "s");
    result.set("miss.p50_s", l.miss_p50_s, "s");
}

} // namespace

void
publish(const EndToEnd &e2e, const Layers *layers, Result &result)
{
    if (!layers) {
        publishEndToEnd(e2e, result);
        return;
    }
    publishLayers(*layers, result);
}

void
coldPathLayers(const std::vector<Span> &spans, const RebuildTotals &totals,
               Layers &layers)
{
    if (totals.requests == 0)
        return;
    std::map<std::string, double> self = selfTimeByName(spans);
    double n = static_cast<double>(totals.requests);
    auto perRequest = [&](const char *name) { return self[name] / n; };
    layers.power_online_s = perRequest("power.online");
    layers.perf_fit_s = perRequest("perf.fit");
    layers.dvfs_preprocess_s = perRequest("dvfs.preprocess");
    layers.dvfs_plan_s = perRequest("dvfs.plan");
    layers.trace_profile_s = perRequest("trace.profile");
    layers.trace_measure_s = perRequest("trace.measure");
    layers.dvfs_search_s = perRequest("dvfs.search");
    double sim_seconds = self["trace.profile"] + self["trace.measure"];
    if (sim_seconds > 0.0)
        layers.trace_sim_ops_per_s = totals.simulated_ops / sim_seconds;
    if (self["dvfs.search"] > 0.0)
        layers.dvfs_evals_per_s = totals.evaluations / self["dvfs.search"];
    layers.dvfs_stages = totals.stages / n;
    layers.dvfs_converged_at_gen = totals.converged_share / n;
}

std::vector<std::size_t>
hitKeyOrder(const std::vector<ColdRequest> &requests, std::uint64_t seed,
            std::size_t &small)
{
    std::uint64_t state = deriveSeed(seed, 0x500);
    auto shuffled = [&](const std::string &model) {
        std::vector<std::size_t> picks;
        for (std::size_t i = 0; i < requests.size(); ++i) {
            if (requests[i].model == model)
                picks.push_back(i);
        }
        for (std::size_t i = picks.size(); i > 1; --i)
            std::swap(picks[i - 1], picks[splitmix64(state) % i]);
        return picks;
    };
    std::vector<std::size_t> resnet = shuffled("ResNet50");
    std::vector<std::size_t> alexnet = shuffled("AlexNet");
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < std::max(resnet.size(), alexnet.size());
         ++i) {
        if (i < resnet.size())
            order.push_back(resnet[i]);
        if (i < alexnet.size())
            order.push_back(alexnet[i]);
    }
    small = order.size();
    std::vector<std::size_t> bert = shuffled("BERT");
    order.insert(order.end(), bert.begin(), bert.end());
    return order;
}

std::vector<opdvfs::models::Workload>
zooInputs()
{
    opdvfs::npu::MemorySystem memory(opdvfs::bench::standardChip().memory);
    std::vector<opdvfs::models::Workload> inputs;
    for (const std::string &model : zooModels())
        inputs.push_back(opdvfs::models::buildWorkload(model, memory, 1));
    return inputs;
}

std::vector<ColdRequest>
zooPass(const std::vector<opdvfs::models::Workload> &inputs,
        std::uint64_t seed, std::uint64_t pass)
{
    std::vector<ColdRequest> requests;
    for (double target : zooTargets()) {
        for (std::size_t m = 0; m < zooModels().size(); ++m) {
            std::uint64_t slot = requests.size();
            requests.push_back(ColdRequest{
                zooModels()[m], inputs[m], target,
                deriveSeed(seed, 0x10000 + pass * 16 + slot) % 4294967295u
                    + 1});
        }
    }
    return requests;
}

double
verifyColdAnswer(const ColdAnswer &answer,
                 const opdvfs::dvfs::PipelineOptions &base,
                 opdvfs::serve::ThreadPool &pool, SpanRecorder *recorder,
                 std::uint64_t request_id, Result &result,
                 RebuildTotals &totals)
{
    Rebuilt rebuilt = rebuildOptimize(
        answer.request.workload,
        requestPipeline(base, answer.request, &pool), recorder, request_id);
    if (!sameAnswer(answer.best_mhz, answer.best_score, rebuilt.ga)
        || !samePlan(answer.plan, rebuilt.plan)
        || answer.stages != rebuilt.stages) {
        result.fail("cold answer " + answer.request.model + " target "
                    + std::to_string(answer.request.target) + " seed "
                    + std::to_string(answer.request.seed)
                    + " differs from the rebuilt pipeline");
    }
    ++totals.requests;
    totals.stages += static_cast<double>(rebuilt.stages);
    totals.converged_share +=
        static_cast<double>(rebuilt.ga.converged_at) / rebuilt.generations;
    totals.evaluations +=
        static_cast<double>(rebuilt.population) * rebuilt.generations;
    totals.simulated_ops += static_cast<double>(rebuilt.simulated_ops);
    return rebuilt.seconds;
}

void
verifyColdAnswers(const std::vector<ColdAnswer> &answers,
                  const opdvfs::dvfs::PipelineOptions &base,
                  SpanRecorder *recorder, Result &result,
                  RebuildTotals &totals, std::vector<double> &rebuilt_seconds)
{
    opdvfs::serve::ThreadPool pool(kFitnessHelpers);
    for (std::size_t i = 0; i < answers.size(); ++i) {
        rebuilt_seconds.push_back(verifyColdAnswer(
            answers[i], base, pool, recorder, i, result, totals));
    }
}

ZooQuality
measureQuality(const std::vector<ColdAnswer> &answers,
               const opdvfs::dvfs::PipelineOptions &base)
{
    std::vector<ColdRequest> requests;
    std::vector<PlanQuality> quality;
    for (const ColdAnswer &answer : answers) {
        requests.push_back(answer.request);
        quality.push_back(replayPlan(answer.request.workload,
                                     requestPipeline(base, answer.request,
                                                     nullptr),
                                     answer.plan));
    }
    return summariseQuality(requests, quality);
}

double
medianSpanMicros(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> micros;
    for (const Span &span : spans) {
        if (span.name == name)
            micros.push_back(span.duration() * 1e6);
    }
    return median(micros);
}

void
serviceLayers(const opdvfs::serve::ServiceStats &stats, Layers &layers)
{
    layers.serve_exact_hits = static_cast<double>(stats.exact_hits);
    layers.serve_warm_hits = static_cast<double>(stats.warm_hits);
    layers.serve_cold_misses = static_cast<double>(stats.cold_misses);
    layers.serve_coalesced = static_cast<double>(stats.coalesced);
    layers.serve_queue_wait_ms = stats.sojourn_ewma_seconds * 1e3;
    double searches = static_cast<double>(stats.warm_hits + stats.cold_misses);
    if (searches > 0.0) {
        layers.serve_warm_ratio =
            static_cast<double>(stats.warm_hits) / searches;
        layers.serve_similar_scanned_per_lookup =
            static_cast<double>(stats.similar_scanned) / searches;
    }
}

opdvfs::power::CalibratedConstants
calibrate(SpanRecorder *recorder)
{
    ScopedSpan span(recorder, "power.calibrate", -1, 0);
    return opdvfs::power::calibrateOffline(opdvfs::bench::standardChip());
}

} // namespace perfbench
