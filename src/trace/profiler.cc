#include "trace/profiler.h"

#include <algorithm>
#include <stdexcept>

#include "npu/aicore_timeline.h"

namespace opdvfs::trace {

Profiler::Profiler(npu::NpuChip &chip, ProfilerNoise noise,
                   std::uint64_t seed)
    : chip_(chip), noise_(noise), rng_(seed)
{
    chip.setObserver(this);
}

void
Profiler::registerSequence(const ops::OpSequence &sequence)
{
    for (const auto &op : sequence) {
        if (op.id >= metadata_.size())
            metadata_.resize(op.id + 1);
        npu::AicoreTimeline timeline(op.hw, chip_.memorySystem());
        metadata_[op.id] = OpMeta{&op, timeline.activePipes()};
    }
    records_.reserve(records_.size() + sequence.size());
}

void
Profiler::opStarted(std::uint64_t, Tick)
{
}

void
Profiler::opFinished(std::uint64_t op_id, Tick start, Tick end,
                     double f_mhz_at_end)
{
    if (op_id >= metadata_.size() || !metadata_[op_id].op)
        return; // Unregistered helper op (e.g. a cool-down idle tail).
    const ops::Op &op = *metadata_[op_id].op;
    const unsigned busy = metadata_[op_id].busy_pipes;

    if (!recording_) {
        rng_.noiseFactor(noise_.duration_sigma);
        for (unsigned pipes = busy; pipes != 0; pipes &= pipes - 1)
            rng_.gaussian(0.0, noise_.ratio_sigma);
        return;
    }

    OpRecord record;
    record.op_id = op_id;
    record.type = op.type;
    record.category = op.hw.category;
    record.start = start;
    record.end = end;
    record.f_mhz = f_mhz_at_end;
    record.duration_s = ticksToSeconds(end - start)
        * rng_.noiseFactor(noise_.duration_sigma);

    if (busy != 0) {
        npu::AicoreTimeline timeline(op.hw, chip_.memorySystem());
        npu::PipelineRatios truth = timeline.ratios(f_mhz_at_end);
        auto jitter = [this, busy](npu::PipeBit pipe, double r) {
            if (!(busy & pipe))
                return 0.0;
            return std::clamp(r + rng_.gaussian(0.0, noise_.ratio_sigma),
                              0.0, 1.0);
        };
        record.ratios.cube = jitter(npu::kPipeCube, truth.cube);
        record.ratios.vector = jitter(npu::kPipeVector, truth.vector);
        record.ratios.scalar = jitter(npu::kPipeScalar, truth.scalar);
        record.ratios.mte1 = jitter(npu::kPipeMte1, truth.mte1);
        record.ratios.mte2 = jitter(npu::kPipeMte2, truth.mte2);
        record.ratios.mte3 = jitter(npu::kPipeMte3, truth.mte3);
    }

    records_.push_back(std::move(record));
}

} // namespace opdvfs::trace
