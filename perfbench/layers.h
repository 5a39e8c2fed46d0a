/**
 * @file
 * The cold path rebuilt from its public steps, with a span around each
 * call into a layer, plus the plan replay that measures a strategy's
 * savings.  The rebuild follows EnergyPipeline::prepare() and
 * optimize() call for call so its GaResult is bit-equal to the
 * service's answer for the same request.
 */

#ifndef OPDVFS_PERFBENCH_LAYERS_H
#define OPDVFS_PERFBENCH_LAYERS_H

#include <cstdint>
#include <string>
#include <vector>

#include "dvfs/pipeline.h"
#include "harness.h"
#include "models/workload.h"
#include "serve/thread_pool.h"

namespace perfbench {

/** The paper's model classes and the loss targets of Table 3. */
inline const std::vector<std::string> &
zooModels()
{
    static const std::vector<std::string> models = {"AlexNet", "ResNet50",
                                                    "BERT", "GPT3"};
    return models;
}
inline const std::vector<double> &
zooTargets()
{
    static const std::vector<double> targets = {0.02, 0.04, 0.06, 0.08};
    return targets;
}

/** One strategy request of the benchmark, with its generated input. */
struct ColdRequest
{
    std::string model;
    opdvfs::models::Workload workload;
    double target = 0.02;
    std::uint64_t seed = 1;
};

/**
 * The service's settings: bench::standardPipeline with freshly
 * calibrated @p constants, two workers, everything else as deployed.
 */
constexpr std::size_t kServiceWorkers = 2;
opdvfs::dvfs::PipelineOptions servicePipeline(
    const opdvfs::power::CalibratedConstants &constants);

/** The options StrategyService::computeFresh runs a cold request with. */
opdvfs::dvfs::PipelineOptions requestPipeline(const opdvfs::dvfs::PipelineOptions &base,
                                      const ColdRequest &request,
                                      opdvfs::serve::ThreadPool *fitness_pool);

/** What the rebuilt cold path produced. */
struct Rebuilt
{
    opdvfs::dvfs::GaResult ga;
    opdvfs::dvfs::ExecutionPlan plan;
    std::size_t stages = 0;
    int generations = 0;
    int population = 0;
    /** Operators in the measured iterations of the four simulated runs. */
    std::size_t simulated_ops = 0;
    double seconds = 0.0;
};

/**
 * EnergyPipeline::optimize() rebuilt from its public steps:
 * WorkloadRunner::run per profile frequency, addProfile/addRun,
 * fitAll, perOpModels, preprocess, searchStrategy, planExecution and
 * the final measured run.  With a recorder, each call gets a span under
 * one "request" span.
 */
Rebuilt rebuildOptimize(const opdvfs::models::Workload &workload,
                        const opdvfs::dvfs::PipelineOptions &options,
                        SpanRecorder *recorder, std::uint64_t request_id);

/** True when @p ga found bit-identically this answer. */
bool sameAnswer(const std::vector<double> &best_mhz, double best_score,
                const opdvfs::dvfs::GaResult &ga);
bool samePlan(const opdvfs::dvfs::ExecutionPlan &a, const opdvfs::dvfs::ExecutionPlan &b);

/** A plan's effect, measured by replay against the profiled baseline. */
struct PlanQuality
{
    /** Measured relative performance loss. */
    double loss = 0.0;
    double aicore_saving = 0.0;
    double soc_saving = 0.0;
};

/**
 * Replay @p plan with WorkloadRunner::run: the baseline is the run the
 * pipeline profiles at its highest frequency, the DVFS run is the one
 * its measurement step makes, both with the request's seeds.
 */
PlanQuality replayPlan(const opdvfs::models::Workload &workload,
                       const opdvfs::dvfs::PipelineOptions &options,
                       const opdvfs::dvfs::ExecutionPlan &plan);

/** Table 3's headline row and the loss-target defect over a request set. */
struct ZooQuality
{
    /** Mean over the 2%-target requests, percent. */
    double aicore_saving_pct = 0.0;
    double soc_saving_pct = 0.0;
    /** Max over requests of max(0, loss - target), percentage points. */
    double loss_overshoot_pct = 0.0;
};
ZooQuality summariseQuality(const std::vector<ColdRequest> &requests,
                            const std::vector<PlanQuality> &quality);

} // namespace perfbench

#endif // OPDVFS_PERFBENCH_LAYERS_H
