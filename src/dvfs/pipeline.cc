#include "dvfs/pipeline.h"

#include <algorithm>
#include <stdexcept>

#include "power/online_calibration.h"
#include "power/power_model.h"
#include "trace/workload_runner.h"

namespace opdvfs::dvfs {

double
PipelineResult::perfLoss() const
{
    return dvfs.iteration_seconds / baseline.iteration_seconds - 1.0;
}

double
PipelineResult::aicoreReduction() const
{
    return 1.0 - dvfs.aicore_avg_w / baseline.aicore_avg_w;
}

double
PipelineResult::socReduction() const
{
    return 1.0 - dvfs.soc_avg_w / baseline.soc_avg_w;
}

Strategy
PipelineResult::strategy() const
{
    Strategy out;
    out.stages = prep.stages;
    out.mhz_per_stage = ga.best_mhz;
    out.plan = plan;
    return out;
}

StageEvaluator
PreparedWorkload::evaluator(const npu::FreqTable &table) const
{
    power::PowerModel power_model(constants, table);
    return StageEvaluator(prep.stages, perf_models, power_model, op_power,
                          table);
}

PreparedWorkload
EnergyPipeline::prepare(const models::Workload &workload) const
{
    PreparedWorkload prepared;
    npu::FreqTable table(options_.chip.freq);
    trace::WorkloadRunner runner(options_.chip);

    // --- power-model construction: offline half (Fig. 11) ----------------
    prepared.constants = options_.constants
        ? *options_.constants
        : power::calibrateOffline(options_.chip);
    power::PowerModel power_model(prepared.constants, table);

    // --- profiling runs at the model-building frequencies ----------------
    const std::vector<double> &freqs = options_.profile_freqs_mhz;
    if (freqs.size() < 2)
        throw std::invalid_argument("EnergyPipeline: need >= 2 profile "
                                    "frequencies");

    // Each run owns its simulator and noise streams, so the runs are
    // independent and may execute concurrently.
    std::vector<trace::RunResult> runs(freqs.size());
    auto profile = [&](std::size_t i) {
        trace::RunOptions run_options;
        run_options.initial_mhz = freqs[i];
        run_options.warmup_seconds = options_.warmup_seconds;
        run_options.sample_period = options_.profile_sample_period;
        run_options.seed =
            options_.seed * 31 + static_cast<std::uint64_t>(freqs[i]);
        runs[i] = runner.run(workload, run_options);
    };
    if (options_.ga.parallel_for) {
        options_.ga.parallel_for(freqs.size(), profile);
    } else {
        for (std::size_t i = 0; i < freqs.size(); ++i)
            profile(i);
    }

    // Fold the runs into the models serially, in configured order.
    perf::PerfModelRepository perf_repo;
    power::OnlinePowerCalibrator online(power_model);
    double max_profile_freq = *std::max_element(freqs.begin(), freqs.end());
    for (std::size_t i = 0; i < freqs.size(); ++i) {
        perf_repo.addProfile(freqs[i], runs[i].records);
        online.addRun(runs[i]);
        if (freqs[i] == max_profile_freq)
            prepared.baseline = std::move(runs[i]);
    }

    perf::PerfBuildOptions perf_options;
    perf_options.kind = options_.fit_kind;
    perf_repo.fitAll(perf_options);
    prepared.perf_models = std::move(perf_repo);

    prepared.op_power = online.perOpModels();

    // --- classification + preprocessing (Sect. 6.1/6.2) -------------------
    prepared.prep = preprocess(prepared.baseline.records,
                               options_.preprocess);
    return prepared;
}

SearchResult
EnergyPipeline::search(const PreparedWorkload &prepared) const
{
    return search(prepared,
                  prepared.evaluator(npu::FreqTable(options_.chip.freq)));
}

SearchResult
EnergyPipeline::search(const PreparedWorkload &prepared,
                       const StageEvaluator &evaluator) const
{
    // --- genetic strategy search (Sect. 6.3) ------------------------------
    GaOptions ga_options = options_.ga;
    ga_options.perf_loss_target = options_.perf_loss_target;
    ga_options.seed =
        options_.ga_seed ? *options_.ga_seed : options_.seed * 7 + 13;

    SearchResult found;
    found.ga = searchStrategy(evaluator, prepared.prep.stages, ga_options);
    found.plan = planExecution(prepared.prep.stages, found.ga.best_mhz,
                               prepared.baseline.records,
                               options_.executor);
    return found;
}

PipelineResult
EnergyPipeline::optimize(const models::Workload &workload) const
{
    PreparedWorkload prepared = prepare(workload);
    SearchResult found = search(prepared);

    PipelineResult result;
    result.constants = prepared.constants;
    result.baseline = std::move(prepared.baseline);
    result.perf_models = std::move(prepared.perf_models);
    result.op_power = std::move(prepared.op_power);
    result.prep = std::move(prepared.prep);
    result.ga = std::move(found.ga);
    result.plan = std::move(found.plan);

    // --- execute the strategy (Sect. 7.1) ---------------------------------
    trace::RunOptions dvfs_options;
    dvfs_options.initial_mhz = result.plan.initial_mhz;
    dvfs_options.warmup_seconds = options_.warmup_seconds;
    dvfs_options.seed = options_.seed * 131 + 7;
    result.dvfs = trace::WorkloadRunner(options_.chip)
                      .run(workload, dvfs_options, result.plan.triggers);

    // --- optional guarded assessment (faults honoured) --------------------
    if (options_.assess_guarded) {
        GuardedRunOptions guarded_options;
        guarded_options.guard = options_.guard;
        guarded_options.guard.perf_loss_target = options_.perf_loss_target;
        guarded_options.iterations = options_.guarded_iterations;
        guarded_options.run = dvfs_options;
        guarded_options.run.initial_mhz = result.plan.initial_mhz;
        result.guarded = runGuarded(options_.chip, workload,
                                    result.plan.triggers,
                                    result.baseline.iteration_seconds,
                                    guarded_options);
    }

    return result;
}

} // namespace opdvfs::dvfs
