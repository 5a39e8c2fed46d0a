/**
 * @file
 * The end-to-end energy-optimisation pipeline of paper Fig. 1:
 *
 *   profile the workload -> build performance and power models ->
 *   classify + preprocess -> genetic strategy search -> execute the
 *   strategy with fine-grained SetFreq -> measure.
 *
 * This is the library's top-level entry point; the Table 3 / Fig. 18
 * benches and the examples all drive it.
 */

#ifndef OPDVFS_DVFS_PIPELINE_H
#define OPDVFS_DVFS_PIPELINE_H

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dvfs/executor.h"
#include "dvfs/genetic.h"
#include "dvfs/guard.h"
#include "dvfs/preprocess.h"
#include "dvfs/strategy_io.h"
#include "models/workload.h"
#include "npu/npu_chip.h"
#include "perf/perf_model.h"
#include "power/offline_calibration.h"
#include "power/online_calibration.h"

namespace opdvfs::dvfs {

/** Pipeline configuration. */
struct PipelineOptions
{
    /** The device under optimisation. */
    npu::NpuConfig chip;
    /** Allowed relative performance loss. */
    double perf_loss_target = 0.02;
    PreprocessOptions preprocess;
    /**
     * GA hyper-parameters.  `ga.seed` is *not* used by the pipeline:
     * the search seed is derived from `seed` below unless `ga_seed`
     * pins it explicitly (seed-forwarding audit: a request-supplied
     * seed reproduces the same GaResult through every path).
     * `ga.parallel_for`, when set, also runs prepare()'s profiling
     * runs concurrently.
     */
    GaOptions ga;
    /** When set, the GA uses exactly this seed instead of the
     *  `seed`-derived one. */
    std::optional<std::uint64_t> ga_seed;
    ExecutorOptions executor;
    perf::FitFunction fit_kind = perf::FitFunction::QuadOverF;
    /** Frequencies profiled to build the models (Sect. 7.4). */
    std::vector<double> profile_freqs_mhz = {1000.0, 1800.0};
    /** Warm-up before each profiled/measured iteration, seconds. */
    double warmup_seconds = 20.0;
    /** Fine-grained telemetry period for alpha calibration. */
    Tick profile_sample_period = 2 * kTicksPerMs;
    /** Reuse previously calibrated constants (skip offline pass). */
    std::optional<power::CalibratedConstants> constants;
    /**
     * Also assess the generated strategy under the runtime guard
     * (multi-iteration run honouring `chip.faults`).  Off by default:
     * the classic pipeline path stays bit-for-bit unchanged.
     */
    bool assess_guarded = false;
    /** Guard tuning for the assessment run. */
    GuardOptions guard;
    /** Measured iterations of the guarded assessment. */
    int guarded_iterations = 12;
    std::uint64_t seed = 1;
};

/**
 * The profile-and-model half of the pipeline: everything a strategy
 * search — or a surrogate prediction — needs, with no search run yet.
 * Produced by EnergyPipeline::prepare(); reused by the serving layer
 * so a predicted first answer and its asynchronous GA refinement
 * share one profiling pass instead of re-profiling the workload.
 */
struct PreparedWorkload
{
    power::CalibratedConstants constants;
    /** Baseline measurement at the maximum profile frequency. */
    trace::RunResult baseline;
    perf::PerfModelRepository perf_models;
    std::unordered_map<std::uint64_t, power::OpPowerModel> op_power;
    PreprocessResult prep;

    /** The model-based stage evaluator the strategy search scores
     *  genomes with. */
    StageEvaluator evaluator(const npu::FreqTable &table) const;
};

/** The search half's output: the strategy and how to execute it. */
struct SearchResult
{
    GaResult ga;
    ExecutionPlan plan;
};

/** Everything the pipeline produced. */
struct PipelineResult
{
    power::CalibratedConstants constants;
    /** Baseline measurement at the maximum frequency. */
    trace::RunResult baseline;
    /** Measurement under the generated DVFS strategy. */
    trace::RunResult dvfs;
    PreprocessResult prep;
    GaResult ga;
    ExecutionPlan plan;
    /** Guarded multi-iteration assessment (when `assess_guarded`). */
    std::optional<GuardedRunResult> guarded;
    /**
     * The fitted per-operator performance models and per-operator
     * power corrections the search ran on.  Exposed so downstream
     * consumers (the drift watchdog, strategy regeneration) can score
     * residuals against — and recalibrate — exactly the models that
     * produced the strategy.
     */
    perf::PerfModelRepository perf_models;
    std::unordered_map<std::uint64_t, power::OpPowerModel> op_power;

    /** Relative iteration-time increase under DVFS. */
    double perfLoss() const;
    /** Relative AICore average-power reduction. */
    double aicoreReduction() const;
    /** Relative SoC average-power reduction. */
    double socReduction() const;

    /** The generated strategy, ready for saveStrategy()/re-execution. */
    Strategy strategy() const;
};

/** Runs the Fig. 1 pipeline against a simulated chip. */
class EnergyPipeline
{
  public:
    explicit EnergyPipeline(PipelineOptions options)
        : options_(std::move(options))
    {}

    /**
     * Optimise one workload end to end: prepare(), search(), then a
     * measured run of the plan (and the guarded assessment when
     * `assess_guarded`).  The measured run only reports; the served
     * cold path calls prepare() and search() and skips it.
     */
    PipelineResult optimize(const models::Workload &workload) const;

    /**
     * Run only the profile-and-model half: calibrate, profile at the
     * configured frequencies, fit performance/power models and
     * preprocess into candidate stages.  The profiling runs go
     * through `ga.parallel_for` when one is injected and are folded
     * into the models in `profile_freqs_mhz` order, so the result is
     * the same under any thread count.
     */
    PreparedWorkload prepare(const models::Workload &workload) const;

    /**
     * The search half: GA strategy search over the prepared stages
     * and the execution plan of its best genome.  The GA seed is
     * derived here from `seed` (or pinned by `ga_seed`); every caller
     * — optimize(), the serving layer's cold and refine paths — gets
     * it from this one place.
     */
    SearchResult search(const PreparedWorkload &prepared) const;

    /** search() scoring with @p evaluator, which must be
     *  prepared.evaluator() over this pipeline's frequency table —
     *  for callers that also hand it to a fitness backend. */
    SearchResult search(const PreparedWorkload &prepared,
                        const StageEvaluator &evaluator) const;

    const PipelineOptions &options() const { return options_; }

  private:
    PipelineOptions options_;
};

} // namespace opdvfs::dvfs

#endif // OPDVFS_DVFS_PIPELINE_H
