/**
 * @file
 * Genetic-algorithm strategy search (paper Sect. 6.3).
 *
 * A genome assigns one supported frequency to each candidate stage.
 * The first generation holds the all-max baseline, a prior individual
 * (LFC at 1600 MHz, HFC at 1800 MHz) and random individuals.  Each
 * generation scores individuals via the model-based evaluator using
 * the piecewise scoring of Eq. 17 — individuals missing the
 * performance lower bound are penalised — then breeds the next
 * generation with score-proportional selection, tail-swap crossover
 * and point mutation.
 */

#ifndef OPDVFS_DVFS_GENETIC_H
#define OPDVFS_DVFS_GENETIC_H

#include <cstdint>
#include <functional>
#include <vector>

#include "common/random.h"
#include "dvfs/evaluator.h"

namespace opdvfs::dvfs {

/**
 * Data-parallel index loop: run fn(0) .. fn(count - 1), each exactly
 * once, in any order, returning when all completed.  The strategy
 * service injects a thread-pool-backed implementation to score GA
 * populations concurrently.
 */
using ParallelFor =
    std::function<void(std::size_t count,
                       const std::function<void(std::size_t)> &fn)>;

/** Half-open span [begin, end) of genome indices a child rewrote. */
struct GeneSpan
{
    std::size_t begin = 0;
    std::size_t end = 0;
};

/**
 * Breeding lineage of one individual within a generation: which slot
 * of the previously scored generation it descends from, and which
 * gene spans the crossover/mutation operators touched.  Outside the
 * dirty spans the child's genome is bitwise equal to the parent's —
 * the invariant an incremental fitness backend relies on to re-score
 * only changed stages.  Elites carry their slot with no dirty spans;
 * generation 0 and any individual without a tracked parent use
 * kNoParent (full evaluation).
 */
struct GenomeLineage
{
    static constexpr std::size_t kNoParent =
        static_cast<std::size_t>(-1);
    std::size_t parent = kNoParent;
    std::vector<GeneSpan> dirty;
};

/**
 * Pluggable population-fitness evaluator.  The GA calls
 * scoreGeneration() once per generation with the full population and
 * its lineage; an incremental backend (tune::IncrementalFitness)
 * keeps per-individual cached timeline/power sums and re-scores only
 * the dirty spans against the parent's cache.  scoreOne() is the
 * stand-alone path used by the memetic refinement probes; it must be
 * bit-consistent with scoreGeneration() (the backend's full and
 * incremental evaluations agree bitwise — property-tested).
 *
 * A backend instance is stateful across generations of ONE search:
 * do not share it between concurrent searchStrategy() calls.
 */
class FitnessBackend
{
  public:
    virtual ~FitnessBackend() = default;

    /**
     * Score every individual: write evals[i]/scores[i] for each i.
     * @p lineage aligns with @p genomes; @p parallel_for, when set,
     * must be used index-parallel exactly like the built-in path so
     * scoring stays deterministic under any thread count.
     */
    virtual void
    scoreGeneration(const std::vector<std::vector<std::uint8_t>> &genomes,
                    const std::vector<GenomeLineage> &lineage,
                    double perf_lower_bound,
                    const ParallelFor &parallel_for,
                    std::vector<double> &scores,
                    std::vector<StrategyEvaluation> &evals) = 0;

    /** Score one genome from scratch (refinement probes). */
    virtual void scoreOne(const std::vector<std::uint8_t> &genome,
                          double perf_lower_bound, double &score,
                          StrategyEvaluation &eval) = 0;
};

/** GA hyper-parameters (paper defaults from Sect. 7.4). */
struct GaOptions
{
    int population = 200;
    int generations = 600;
    double mutation_rate = 0.15;
    double crossover_rate = 0.7;
    /** Elite individuals copied unchanged each generation. */
    int elite = 2;
    /** Allowed relative performance loss, e.g. 0.02. */
    double perf_loss_target = 0.02;
    /** Prior individual: LFC stages start here. */
    double prior_lfc_mhz = 1600.0;
    /** Prior individual: HFC stages start here. */
    double prior_hfc_mhz = 1800.0;
    /**
     * Seed one extra prior individual per supported LFC level (all
     * HFC stages at max); the infeasible ones die off via Eq. 17's
     * penalty branch.
     */
    bool multi_level_priors = true;
    /** Probability of a contiguous block mutation per child. */
    double block_mutation_rate = 0.10;
    /**
     * Post-search memetic refinement: hill-climbing sweeps over the
     * genome, accepting single-gene moves that improve the Eq. 17
     * score.  0 disables (pure GA, as in the paper).
     */
    int refine_sweeps = 12;
    std::uint64_t seed = 7;
    /**
     * Extra prior individuals seeded into generation 0, as MHz per
     * stage — e.g. cached strategies of similar workloads (warm
     * start).  Frequencies snap to the nearest supported point; a
     * prior whose length differs from the stage count is adapted by
     * nearest-position resampling.  Empty priors are rejected.
     */
    std::vector<std::vector<double>> prior_individuals;
    /**
     * When set, population fitness is scored through this loop (one
     * index per individual).  Scoring is written by index and reduced
     * serially afterwards, so the result is bit-identical to the
     * serial path regardless of evaluation order or thread count.
     */
    ParallelFor parallel_for;
    /**
     * Optional fitness backend (non-owning; must outlive the search).
     * nullptr keeps the classic serial-sum evaluator path bit-for-bit
     * unchanged.  A backend's pairwise-reduction sums differ from the
     * serial path in final ulps, so switching backends is a search
     * variant, not a bit-identical drop-in — within one backend, full
     * and incremental evaluation are bit-identical.
     */
    FitnessBackend *fitness_backend = nullptr;
};

/** Search output. */
struct GaResult
{
    /** Best genome: frequency index per stage. */
    std::vector<std::uint8_t> best_genome;
    /** Best genome as MHz per stage. */
    std::vector<double> best_mhz;
    double best_score = 0.0;
    StrategyEvaluation best_eval;
    StrategyEvaluation baseline_eval;
    /** Fittest score after each generation (Fig. 17). */
    std::vector<double> score_history;
    /** Generation at which the best score was first reached. */
    int converged_at = 0;
    /** Score before the memetic refinement pass. */
    double pre_refine_score = 0.0;
};

/** Eq. 17 score of an evaluation against the baseline bound. */
double strategyScore(const StrategyEvaluation &eval, double perf_lower_bound);

/** Eq. 17's performance lower bound: the baseline's iterations per
 *  microsecond, less the allowed relative loss. */
double perfLowerBound(const StrategyEvaluation &baseline,
                      double perf_loss_target);

/** Run the search. */
GaResult searchStrategy(const StageEvaluator &evaluator,
                        const std::vector<Stage> &stages,
                        const GaOptions &options = {});

} // namespace opdvfs::dvfs

#endif // OPDVFS_DVFS_GENETIC_H
