/**
 * Bit-identity pins for the simulator's measurement protocol.
 *
 * The golden CRCs fold every field of WorkloadRunner::run's measured
 * output — operator records, telemetry samples and the energy /
 * iteration summary — for fixed (workload, seed, warm-up).  They were
 * captured before the profiler stopped materialising warm-up records,
 * so they prove the warm-up still consumes exactly the noise draws a
 * recorded retirement would: any drift in RNG consumption changes the
 * measured iteration's noise and therefore the CRC.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "models/model_zoo.h"
#include "npu/aicore_timeline.h"
#include "npu/freq_table.h"
#include "trace/workload_runner.h"

namespace opdvfs::trace {
namespace {

class RunCrc
{
  public:
    template <typename T>
    void
    add(const T &value)
    {
        char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        crc_.update(std::string_view(bytes, sizeof(T)));
    }

    void
    add(const std::string &text)
    {
        add(text.size());
        crc_.update(text);
    }

    std::uint32_t value() const { return crc_.value(); }

  private:
    Crc32 crc_;
};

std::uint32_t
runCrc(const RunResult &run)
{
    RunCrc crc;
    crc.add(run.iteration_seconds);
    crc.add(run.aicore_energy_j);
    crc.add(run.soc_energy_j);
    crc.add(run.aicore_avg_w);
    crc.add(run.soc_avg_w);
    crc.add(run.avg_temperature_c);
    crc.add(run.set_freq_count);
    crc.add(run.records.size());
    for (const OpRecord &r : run.records) {
        crc.add(r.op_id);
        crc.add(r.type);
        crc.add(static_cast<int>(r.category));
        crc.add(r.start);
        crc.add(r.end);
        crc.add(r.duration_s);
        crc.add(r.f_mhz);
        crc.add(r.ratios.cube);
        crc.add(r.ratios.vector);
        crc.add(r.ratios.scalar);
        crc.add(r.ratios.mte1);
        crc.add(r.ratios.mte2);
        crc.add(r.ratios.mte3);
    }
    crc.add(run.samples.size());
    for (const PowerSample &s : run.samples) {
        crc.add(s.tick);
        crc.add(s.soc_watts);
        crc.add(s.aicore_watts);
        crc.add(s.temperature_c);
        crc.add(s.f_mhz);
    }
    return crc.value();
}

models::Workload
zooWorkload(const std::string &name)
{
    npu::NpuConfig config;
    npu::MemorySystem memory(config.memory);
    return models::buildWorkload(name, memory, 1);
}

TEST(ProfilerGolden, ResNet50ProfilingRunAfterWarmup)
{
    models::Workload workload = zooWorkload("ResNet50");
    WorkloadRunner runner{npu::NpuConfig{}};
    RunOptions options;
    options.initial_mhz = 1000.0;
    options.warmup_seconds = 15.0;
    options.sample_period = 2 * kTicksPerMs;
    options.seed = 31 * 5 + 1000;
    RunResult run = runner.run(workload, options);
    ASSERT_EQ(run.records.size(), workload.opCount());
    EXPECT_EQ(runCrc(run), 439528798u);
}

TEST(ProfilerGolden, BertRunWithTriggersAfterWarmup)
{
    models::Workload workload = zooWorkload("BERT");
    WorkloadRunner runner{npu::NpuConfig{}};
    RunOptions options;
    options.initial_mhz = 1800.0;
    options.warmup_seconds = 5.0;
    options.seed = 5 * 131 + 7;
    std::vector<SetFreqTrigger> triggers = {
        {workload.opCount() / 4, 1400.0},
        {workload.opCount() / 2, 1000.0},
        {workload.opCount() - 2, 1800.0}};
    RunResult run = runner.run(workload, options, triggers);
    ASSERT_EQ(run.records.size(), workload.opCount());
    EXPECT_EQ(run.set_freq_count, triggers.size());
    EXPECT_EQ(runCrc(run), 4174998162u);
}

// The profiler draws one ratio deviate per pipe in activePipes()
// whether or not it records, so the mask must agree with the
// ratios it stands in for at every frequency the chip can run.
TEST(ProfilerGolden, ActivePipesMatchRatiosOverZooAndTable)
{
    npu::NpuConfig config;
    npu::MemorySystem memory(config.memory);
    std::vector<double> freqs = npu::FreqTable(config.freq).frequenciesMhz();
    std::size_t compute_ops = 0;
    for (const std::string &name : models::workloadNames()) {
        models::Workload workload = models::buildWorkload(name, memory, 1);
        for (std::size_t i = 0; i < workload.iteration.size(); ++i) {
            const ops::Op &op = workload.iteration[i];
            // Op ids are sequence indices: the profiler indexes by them.
            ASSERT_EQ(op.id, i) << name;
            npu::AicoreTimeline timeline(op.hw, memory);
            unsigned mask = timeline.activePipes();
            compute_ops += op.hw.category == npu::OpCategory::Compute;
            for (double f : freqs) {
                npu::PipelineRatios r = timeline.ratios(f);
                SCOPED_TRACE(name + " op " + std::to_string(i) + " at "
                             + std::to_string(f) + " MHz");
                EXPECT_EQ((mask & npu::kPipeCube) != 0, r.cube > 0.0);
                EXPECT_EQ((mask & npu::kPipeVector) != 0, r.vector > 0.0);
                EXPECT_EQ((mask & npu::kPipeScalar) != 0, r.scalar > 0.0);
                EXPECT_EQ((mask & npu::kPipeMte1) != 0, r.mte1 > 0.0);
                EXPECT_EQ((mask & npu::kPipeMte2) != 0, r.mte2 > 0.0);
                EXPECT_EQ((mask & npu::kPipeMte3) != 0, r.mte3 > 0.0);
            }
        }
    }
    EXPECT_GT(compute_ops, 0u);
}

} // namespace
} // namespace opdvfs::trace
