#include "tune/surrogate.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "dvfs/genetic.h"
#include "math/linear_solve.h"
#include "tune/features.h"

namespace opdvfs::tune {

Surrogate::Surrogate(SurrogateOptions options)
    : options_(std::move(options))
{
    if (options_.min_rows == 0)
        options_.min_rows = 1;
    if (options_.refit_interval_rows == 0)
        options_.refit_interval_rows = 1;
    if (options_.max_rows < options_.min_rows)
        options_.max_rows = options_.min_rows;
    if (options_.boost_rounds < 0 || options_.learning_rate <= 0.0
        || options_.ridge_lambda < 0.0 || options_.quantile_cuts < 1)
        throw std::invalid_argument("Surrogate: bad options");
}

std::size_t
Surrogate::loadCorpus()
{
    if (options_.corpus_path.empty())
        return 0;
    std::vector<Observation> corpus = loadCorpusFile(options_.corpus_path);
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Observation &observation : corpus)
        ingestLocked(observation);
    maybeRefitLocked();
    return corpus.size();
}

void
Surrogate::seedCorpus(const std::vector<Observation> &corpus)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Observation &observation : corpus)
        ingestLocked(observation);
    maybeRefitLocked();
}

void
Surrogate::observe(const Observation &observation)
{
    if (observation.empty())
        return;
    if (!options_.corpus_path.empty()) {
        try {
            appendObservationFile(options_.corpus_path, observation);
        } catch (const std::exception &) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++counters_.corpus_write_failures;
        }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ingestLocked(observation);
    maybeRefitLocked();
}

void
Surrogate::ingestLocked(const Observation &observation)
{
    ++counters_.observations;
    for (const StageSample &sample : observation) {
        rows_.push_back(sample);
        ++counters_.rows;
        ++rows_since_fit_;
        while (rows_.size() > options_.max_rows)
            rows_.pop_front();
    }
}

void
Surrogate::maybeRefitLocked()
{
    if (rows_.size() < options_.min_rows)
        return;
    if (model_ && rows_since_fit_ < options_.refit_interval_rows)
        return;
    refitLocked();
}

void
Surrogate::refitLocked()
{
    std::size_t count = rows_.size();
    std::size_t features = rows_.front().features.size();
    for (const StageSample &row : rows_) {
        if (row.features.size() != features)
            throw std::invalid_argument("Surrogate: ragged feature rows");
    }

    auto model = std::make_shared<Model>();
    model->features = features;

    // --- ridge half: global linear trend ----------------------------------
    math::Matrix design(count, features + 1);
    std::vector<double> target(count);
    std::size_t r = 0;
    for (const StageSample &row : rows_) {
        for (std::size_t f = 0; f < features; ++f)
            design(r, f) = row.features[f];
        design(r, features) = 1.0; // bias
        target[r] = row.target_mhz;
        ++r;
    }
    // Ridge normal equations with relative + absolute damping.  Real
    // feature rows routinely contain identically-zero columns (a
    // bottleneck class the fleet never produced) and collinear ones
    // (workload-context features repeat across every row of an
    // observation); relative-only damping leaves that Gram matrix
    // singular, while the absolute term makes it positive definite and
    // pins dead features' weights at zero.
    math::Matrix normal = design.gram();
    std::vector<double> rhs = design.transposeTimes(target);
    for (std::size_t i = 0; i < normal.rows(); ++i) {
        normal(i, i) = normal(i, i) * (1.0 + options_.ridge_lambda)
                       + options_.ridge_lambda;
    }
    model->weights = math::solve(std::move(normal), std::move(rhs));

    // --- boosted stumps on the residuals ----------------------------------
    std::vector<double> residual(count);
    for (std::size_t i = 0; i < count; ++i)
        residual[i] = target[i] - predictRow(*model, rows_[i].features);

    // Deterministic quantile grid per feature, computed once.
    auto cuts = static_cast<std::size_t>(options_.quantile_cuts);
    std::vector<std::vector<double>> thresholds(features);
    std::vector<double> column(count);
    for (std::size_t f = 0; f < features; ++f) {
        for (std::size_t i = 0; i < count; ++i)
            column[i] = rows_[i].features[f];
        std::sort(column.begin(), column.end());
        std::vector<double> &grid = thresholds[f];
        for (std::size_t q = 1; q <= cuts; ++q) {
            double value = column[(count - 1) * q / (cuts + 1)];
            if (grid.empty() || value > grid.back())
                grid.push_back(value);
        }
        // A constant column yields one threshold that splits nothing;
        // the gain scan skips degenerate partitions below.
    }

    double total_sq = 0.0;
    for (double v : residual)
        total_sq += v * v;

    for (int round = 0; round < options_.boost_rounds; ++round) {
        // Find the (feature, threshold) split minimising residual SSE;
        // the scan is index-ordered and only a strictly better gain
        // replaces the incumbent, so fitting is order-deterministic.
        bool found = false;
        std::size_t best_f = 0;
        double best_threshold = 0.0;
        double best_gain = 0.0;
        double best_left = 0.0;
        double best_right = 0.0;
        for (std::size_t f = 0; f < features; ++f) {
            for (double threshold : thresholds[f]) {
                double sum_l = 0.0;
                double sum_r = 0.0;
                std::size_t n_l = 0;
                std::size_t n_r = 0;
                for (std::size_t i = 0; i < count; ++i) {
                    if (rows_[i].features[f] <= threshold) {
                        sum_l += residual[i];
                        ++n_l;
                    } else {
                        sum_r += residual[i];
                        ++n_r;
                    }
                }
                if (n_l == 0 || n_r == 0)
                    continue;
                double gain =
                    sum_l * sum_l / static_cast<double>(n_l)
                    + sum_r * sum_r / static_cast<double>(n_r);
                if (!found || gain > best_gain) {
                    found = true;
                    best_f = f;
                    best_threshold = threshold;
                    best_gain = gain;
                    best_left = sum_l / static_cast<double>(n_l);
                    best_right = sum_r / static_cast<double>(n_r);
                }
            }
        }
        // Stop once no split explains a meaningful residual fraction.
        if (!found || best_gain <= 1e-12 * std::max(total_sq, 1.0))
            break;

        Stump stump;
        stump.feature = best_f;
        stump.threshold = best_threshold;
        stump.left = options_.learning_rate * best_left;
        stump.right = options_.learning_rate * best_right;
        for (std::size_t i = 0; i < count; ++i) {
            residual[i] -= rows_[i].features[best_f] <= best_threshold
                               ? stump.left
                               : stump.right;
        }
        model->stumps.push_back(stump);
    }

    model_ = std::move(model);
    rows_since_fit_ = 0;
    ++counters_.refits;
}

bool
Surrogate::ready() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return model_ != nullptr;
}

double
Surrogate::predictRow(const Model &model,
                      const std::vector<double> &features)
{
    double value = model.weights[model.features]; // bias
    for (std::size_t f = 0; f < model.features; ++f)
        value += model.weights[f] * features[f];
    for (const Stump &stump : model.stumps) {
        value += features[stump.feature] <= stump.threshold ? stump.left
                                                            : stump.right;
    }
    return value;
}

std::vector<double>
Surrogate::predictMhz(const std::vector<StageSample> &rows) const
{
    std::shared_ptr<const Model> model;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        model = model_;
    }
    if (!model)
        throw std::logic_error("Surrogate: no model fitted yet");
    std::vector<double> predicted;
    predicted.reserve(rows.size());
    for (const StageSample &row : rows) {
        if (row.features.size() != model->features)
            throw std::invalid_argument(
                "Surrogate: feature length mismatch");
        predicted.push_back(predictRow(*model, row.features));
    }
    return predicted;
}

SurrogateCounters
Surrogate::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

PredictedStrategy
predictStrategy(const Surrogate &surrogate,
                const std::vector<StageSample> &rows,
                const dvfs::StageEvaluator &evaluator,
                double perf_loss_target)
{
    std::size_t n = evaluator.stageCount();
    if (rows.size() != n)
        throw std::invalid_argument("predictStrategy: row/stage mismatch");

    const std::vector<double> &freqs = evaluator.frequenciesMhz();
    auto max_index = static_cast<std::uint8_t>(freqs.size() - 1);
    std::vector<double> raw = surrogate.predictMhz(rows);

    PredictedStrategy out;
    out.genome.resize(n);
    for (std::size_t s = 0; s < n; ++s) {
        std::size_t best = 0;
        for (std::size_t f = 1; f < freqs.size(); ++f) {
            if (std::abs(freqs[f] - raw[s]) < std::abs(freqs[best] - raw[s]))
                best = f;
        }
        out.genome[s] = static_cast<std::uint8_t>(best);
    }

    out.baseline_eval = evaluator.evaluateBaseline();
    double per_lb = dvfs::perfLowerBound(out.baseline_eval, perf_loss_target);

    out.eval = evaluator.evaluate(out.genome);
    // Feasibility repair: raise the gene saving the most time per
    // step until the performance bound holds.  The all-max genome is
    // the baseline itself, so the loop always terminates feasible.
    while (1e-6 / out.eval.seconds < per_lb) {
        std::size_t pick = n;
        double best_gain = -std::numeric_limits<double>::infinity();
        for (std::size_t s = 0; s < n; ++s) {
            if (out.genome[s] >= max_index)
                continue;
            double gain =
                evaluator.cellAt(s, out.genome[s]).seconds
                - evaluator.cellAt(s, out.genome[s] + 1u).seconds;
            if (pick == n || gain > best_gain) {
                pick = s;
                best_gain = gain;
            }
        }
        if (pick == n)
            break; // already all-max: nothing left to raise
        ++out.genome[pick];
        ++out.repair_steps;
        out.eval = evaluator.evaluate(out.genome);
    }

    out.score = dvfs::strategyScore(out.eval, per_lb);
    out.mhz.reserve(n);
    for (std::uint8_t gene : out.genome)
        out.mhz.push_back(freqs[gene]);
    return out;
}

} // namespace opdvfs::tune
