/**
 * The served cold path (EnergyPipeline::prepare + search) against the
 * full pipeline (optimize): for ResNet50 and BERT the answer — best
 * genome, score and execution plan — must be bit-identical whether
 * the profiling runs and the GA scoring go through a thread pool or
 * run serially.  A golden CRC per model, captured before the split,
 * pins the answers themselves.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/crc32.h"
#include "dvfs/pipeline.h"
#include "models/model_zoo.h"
#include "power/offline_calibration.h"
#include "serve/thread_pool.h"

namespace opdvfs::dvfs {
namespace {

const power::CalibratedConstants &
constants()
{
    static const power::CalibratedConstants calibrated =
        power::calibrateOffline(npu::NpuConfig{});
    return calibrated;
}

PipelineOptions
pipelineOptions(std::uint64_t seed)
{
    PipelineOptions options;
    options.constants = constants();
    options.warmup_seconds = 15.0;
    options.fit_kind = perf::FitFunction::PwlCycles;
    options.profile_freqs_mhz = {1000.0, 1400.0, 1800.0};
    options.preprocess.fai = 5 * kTicksPerMs;
    options.ga.population = 60;
    options.ga.generations = 120;
    options.seed = seed;
    return options;
}

models::Workload
zooWorkload(const std::string &name)
{
    npu::NpuConfig config;
    npu::MemorySystem memory(config.memory);
    return models::buildWorkload(name, memory, 1);
}

template <typename T>
void
fold(Crc32 &crc, const T &value)
{
    char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    crc.update(std::string_view(bytes, sizeof(T)));
}

std::uint32_t
answerCrc(const GaResult &ga, const ExecutionPlan &plan)
{
    Crc32 crc;
    fold(crc, ga.best_score);
    for (double mhz : ga.best_mhz)
        fold(crc, mhz);
    fold(crc, plan.initial_mhz);
    for (const trace::SetFreqTrigger &t : plan.triggers) {
        fold(crc, t.after_op_index);
        fold(crc, t.mhz);
    }
    return crc.value();
}

struct GoldenCase
{
    const char *model;
    std::uint64_t seed;
    std::uint32_t crc;
};

class PipelineSplit : public ::testing::TestWithParam<GoldenCase>
{};

bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST_P(PipelineSplit, OptimizeMatchesGolden)
{
    const GoldenCase &golden = GetParam();
    models::Workload workload = zooWorkload(golden.model);
    PipelineResult full =
        EnergyPipeline(pipelineOptions(golden.seed)).optimize(workload);
    EXPECT_EQ(answerCrc(full.ga, full.plan), golden.crc);
}

TEST_P(PipelineSplit, PooledPrepareAndSearchEqualSerialOptimize)
{
    const GoldenCase &golden = GetParam();
    models::Workload workload = zooWorkload(golden.model);
    PipelineResult serial =
        EnergyPipeline(pipelineOptions(golden.seed)).optimize(workload);

    serve::ThreadPool pool(2);
    PipelineOptions pooled_options = pipelineOptions(golden.seed);
    pooled_options.ga.parallel_for =
        [&pool](std::size_t count,
                const std::function<void(std::size_t)> &fn) {
            pool.parallelFor(count, fn);
        };
    EnergyPipeline pooled(pooled_options);
    PreparedWorkload prepared = pooled.prepare(workload);
    SearchResult found = pooled.search(prepared);

    ASSERT_EQ(found.ga.best_mhz.size(), serial.ga.best_mhz.size());
    EXPECT_TRUE(bitEqual(found.ga.best_score, serial.ga.best_score));
    for (std::size_t s = 0; s < found.ga.best_mhz.size(); ++s)
        EXPECT_TRUE(bitEqual(found.ga.best_mhz[s], serial.ga.best_mhz[s]));
    EXPECT_TRUE(bitEqual(found.plan.initial_mhz, serial.plan.initial_mhz));
    ASSERT_EQ(found.plan.triggers.size(), serial.plan.triggers.size());
    for (std::size_t t = 0; t < found.plan.triggers.size(); ++t) {
        EXPECT_EQ(found.plan.triggers[t].after_op_index,
                  serial.plan.triggers[t].after_op_index);
        EXPECT_TRUE(bitEqual(found.plan.triggers[t].mhz,
                             serial.plan.triggers[t].mhz));
    }
    EXPECT_EQ(answerCrc(found.ga, found.plan), golden.crc);

    // The models the search ran on come from the same profiles.
    EXPECT_EQ(prepared.prep.stages.size(), serial.prep.stages.size());
    EXPECT_TRUE(bitEqual(prepared.baseline.iteration_seconds,
                         serial.baseline.iteration_seconds));
    EXPECT_TRUE(bitEqual(prepared.baseline.soc_avg_w,
                         serial.baseline.soc_avg_w));
}

std::string
caseName(const ::testing::TestParamInfo<GoldenCase> &param_info)
{
    return param_info.param.model;
}

// Golden CRCs of answerCrc() captured from the serial optimize()
// before it was split into prepare() + search().
INSTANTIATE_TEST_SUITE_P(
    Zoo, PipelineSplit,
    ::testing::Values(GoldenCase{"ResNet50", 11, 3019380611u},
                      GoldenCase{"BERT", 12, 226264666u}),
    caseName);

} // namespace
} // namespace opdvfs::dvfs
