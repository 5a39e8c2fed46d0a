#include "layers.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "bench_common.h"
#include "dvfs/evaluator.h"
#include "npu/freq_table.h"
#include "power/online_calibration.h"
#include "power/power_model.h"
#include "trace/workload_runner.h"

namespace perfbench {

using namespace opdvfs;

dvfs::PipelineOptions
servicePipeline(const power::CalibratedConstants &constants)
{
    dvfs::PipelineOptions options = bench::standardPipeline(0.02);
    options.constants = constants;
    return options;
}

dvfs::PipelineOptions
requestPipeline(const dvfs::PipelineOptions &base, const ColdRequest &request,
                serve::ThreadPool *fitness_pool)
{
    dvfs::PipelineOptions options = base;
    options.seed = request.seed;
    options.perf_loss_target = request.target;
    if (fitness_pool) {
        options.ga.parallel_for =
            [fitness_pool](std::size_t count,
                           const std::function<void(std::size_t)> &fn) {
                fitness_pool->parallelFor(count, fn);
            };
    }
    return options;
}

Rebuilt
rebuildOptimize(const models::Workload &workload,
                const dvfs::PipelineOptions &options, SpanRecorder *recorder,
                std::uint64_t request_id)
{
    if (!options.constants)
        throw std::invalid_argument("rebuildOptimize: constants unset");
    if (options.profile_freqs_mhz.size() < 2)
        throw std::invalid_argument("rebuildOptimize: need >= 2 profile "
                                    "frequencies");
    Clock::time_point started = Clock::now();
    ScopedSpan request(recorder, "request", -1, request_id);
    long parent = request.index();

    Rebuilt out;
    npu::FreqTable table(options.chip.freq);
    trace::WorkloadRunner runner(options.chip);
    power::PowerModel power_model(*options.constants, table);
    perf::PerfModelRepository perf_repo;
    power::OnlinePowerCalibrator online(power_model);
    double max_profile_freq = *std::max_element(
        options.profile_freqs_mhz.begin(), options.profile_freqs_mhz.end());

    trace::RunResult baseline;
    for (double f : options.profile_freqs_mhz) {
        trace::RunOptions run_options;
        run_options.initial_mhz = f;
        run_options.warmup_seconds = options.warmup_seconds;
        run_options.sample_period = options.profile_sample_period;
        run_options.seed = options.seed * 31 + static_cast<std::uint64_t>(f);
        trace::RunResult run;
        {
            ScopedSpan span(recorder, "trace.profile", parent, request_id);
            run = runner.run(workload, run_options);
        }
        out.simulated_ops += run.records.size();
        {
            ScopedSpan span(recorder, "perf.fit", parent, request_id);
            perf_repo.addProfile(f, run.records);
        }
        {
            ScopedSpan span(recorder, "power.online", parent, request_id);
            online.addRun(run);
        }
        if (f == max_profile_freq)
            baseline = std::move(run);
    }

    perf::PerfBuildOptions perf_options;
    perf_options.kind = options.fit_kind;
    {
        ScopedSpan span(recorder, "perf.fit", parent, request_id);
        perf_repo.fitAll(perf_options);
    }
    std::unordered_map<std::uint64_t, power::OpPowerModel> op_power;
    {
        ScopedSpan span(recorder, "power.online", parent, request_id);
        op_power = online.perOpModels();
    }
    dvfs::PreprocessResult prep;
    {
        ScopedSpan span(recorder, "dvfs.preprocess", parent, request_id);
        prep = dvfs::preprocess(baseline.records, options.preprocess);
    }
    out.stages = prep.stages.size();

    dvfs::GaOptions ga_options = options.ga;
    ga_options.perf_loss_target = options.perf_loss_target;
    ga_options.seed =
        options.ga_seed ? *options.ga_seed : options.seed * 7 + 13;
    out.generations = ga_options.generations;
    out.population = ga_options.population;
    {
        ScopedSpan span(recorder, "dvfs.search", parent, request_id);
        dvfs::StageEvaluator evaluator(prep.stages, perf_repo, power_model,
                                       op_power, table);
        out.ga = dvfs::searchStrategy(evaluator, prep.stages, ga_options);
    }
    {
        ScopedSpan span(recorder, "dvfs.plan", parent, request_id);
        out.plan = dvfs::planExecution(prep.stages, out.ga.best_mhz,
                                       baseline.records, options.executor);
    }
    trace::RunOptions dvfs_options;
    dvfs_options.initial_mhz = out.plan.initial_mhz;
    dvfs_options.warmup_seconds = options.warmup_seconds;
    dvfs_options.seed = options.seed * 131 + 7;
    {
        ScopedSpan span(recorder, "trace.measure", parent, request_id);
        trace::RunResult measured =
            runner.run(workload, dvfs_options, out.plan.triggers);
        out.simulated_ops += measured.records.size();
    }
    out.seconds = secondsSince(started);
    return out;
}

namespace {

bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

} // namespace

bool
sameAnswer(const std::vector<double> &best_mhz, double best_score,
           const dvfs::GaResult &ga)
{
    if (!bitEqual(best_score, ga.best_score)
        || best_mhz.size() != ga.best_mhz.size())
        return false;
    for (std::size_t i = 0; i < best_mhz.size(); ++i) {
        if (!bitEqual(best_mhz[i], ga.best_mhz[i]))
            return false;
    }
    return true;
}

bool
samePlan(const dvfs::ExecutionPlan &a, const dvfs::ExecutionPlan &b)
{
    if (!bitEqual(a.initial_mhz, b.initial_mhz)
        || a.triggers.size() != b.triggers.size())
        return false;
    for (std::size_t i = 0; i < a.triggers.size(); ++i) {
        if (a.triggers[i].after_op_index != b.triggers[i].after_op_index
            || !bitEqual(a.triggers[i].mhz, b.triggers[i].mhz))
            return false;
    }
    return true;
}

PlanQuality
replayPlan(const models::Workload &workload,
           const dvfs::PipelineOptions &options,
           const dvfs::ExecutionPlan &plan)
{
    trace::WorkloadRunner runner(options.chip);
    double max_profile_freq = *std::max_element(
        options.profile_freqs_mhz.begin(), options.profile_freqs_mhz.end());
    trace::RunOptions base_options;
    base_options.initial_mhz = max_profile_freq;
    base_options.warmup_seconds = options.warmup_seconds;
    base_options.sample_period = options.profile_sample_period;
    base_options.seed =
        options.seed * 31 + static_cast<std::uint64_t>(max_profile_freq);
    trace::RunResult baseline = runner.run(workload, base_options);

    trace::RunOptions dvfs_options;
    dvfs_options.initial_mhz = plan.initial_mhz;
    dvfs_options.warmup_seconds = options.warmup_seconds;
    dvfs_options.seed = options.seed * 131 + 7;
    trace::RunResult measured = runner.run(workload, dvfs_options,
                                           plan.triggers);

    PlanQuality quality;
    quality.loss = measured.iteration_seconds / baseline.iteration_seconds
        - 1.0;
    quality.aicore_saving = 1.0 - measured.aicore_avg_w / baseline.aicore_avg_w;
    quality.soc_saving = 1.0 - measured.soc_avg_w / baseline.soc_avg_w;
    return quality;
}

ZooQuality
summariseQuality(const std::vector<ColdRequest> &requests,
                 const std::vector<PlanQuality> &quality)
{
    ZooQuality out;
    double aicore = 0.0;
    double soc = 0.0;
    int at_two = 0;
    for (std::size_t i = 0; i < requests.size() && i < quality.size(); ++i) {
        out.loss_overshoot_pct = std::max(
            out.loss_overshoot_pct,
            (quality[i].loss - requests[i].target) * 100.0);
        if (requests[i].target == 0.02) {
            aicore += quality[i].aicore_saving;
            soc += quality[i].soc_saving;
            ++at_two;
        }
    }
    if (at_two > 0) {
        out.aicore_saving_pct = aicore / at_two * 100.0;
        out.soc_saving_pct = soc / at_two * 100.0;
    }
    return out;
}

} // namespace perfbench
