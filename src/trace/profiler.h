/**
 * @file
 * Operator-level profiler: the stand-in for the CANN profiler the
 * paper uses to collect execution sequences, per-operator timings and
 * pipeline-utilisation ratios (Sect. 6.2 step 1).
 *
 * Records carry realistic measurement noise; downstream model fitting
 * and classification never see the simulator's ground truth directly.
 */

#ifndef OPDVFS_TRACE_PROFILER_H
#define OPDVFS_TRACE_PROFILER_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "npu/npu_chip.h"
#include "ops/op.h"

namespace opdvfs::trace {

/** One profiled operator execution. */
struct OpRecord
{
    /** Operator id: its index within the iteration sequence. */
    std::uint64_t op_id = 0;
    std::string type;
    npu::OpCategory category = npu::OpCategory::Compute;
    Tick start = 0;
    Tick end = 0;
    /** Measured (noisy) duration in seconds. */
    double duration_s = 0.0;
    /** Core frequency when the operator retired. */
    double f_mhz = 0.0;
    /** Measured (noisy) pipeline-utilisation ratios. */
    npu::PipelineRatios ratios;
};

/** Profiler noise configuration. */
struct ProfilerNoise
{
    /** Relative sigma of duration measurements. */
    double duration_sigma = 0.006;
    /** Absolute sigma of pipeline ratios. */
    double ratio_sigma = 0.015;
};

/**
 * Observes a chip and accumulates operator records.
 *
 * Every retirement of a registered operator makes the same noise
 * draws — one duration factor plus one ratio deviate per busy pipe —
 * whether or not it is recorded, so pausing recording (warm-up) never
 * shifts the noise of the iterations that are recorded.
 */
class Profiler : public npu::NpuChip::OpObserver
{
  public:
    Profiler(npu::NpuChip &chip, ProfilerNoise noise, std::uint64_t seed);

    /**
     * Register the metadata of the ops about to run.  Op ids are
     * sequence indices (dense from 0); ids outside every registered
     * sequence are ignored at retirement.
     */
    void registerSequence(const ops::OpSequence &sequence);

    /**
     * Turn record keeping on or off (on by default).  While off,
     * retirements only advance the noise stream: no record is built.
     */
    void setRecording(bool on) { recording_ = on; }

    void opStarted(std::uint64_t op_id, Tick start) override;
    void opFinished(std::uint64_t op_id, Tick start, Tick end,
                    double f_mhz_at_end) override;

    /** All records so far, in completion order. */
    const std::vector<OpRecord> &records() const { return records_; }

    /** Move the records out, leaving none behind. */
    std::vector<OpRecord> takeRecords() { return std::exchange(records_, {}); }

    /** Drop accumulated records (e.g. between measured iterations). */
    void clear() { records_.clear(); }

  private:
    /** Registered operator plus its npu::PipeBit mask of busy pipes. */
    struct OpMeta
    {
        const ops::Op *op = nullptr;
        unsigned busy_pipes = 0;
    };

    npu::NpuChip &chip_;
    ProfilerNoise noise_;
    Rng rng_;
    bool recording_ = true;
    /** Indexed by op id. */
    std::vector<OpMeta> metadata_;
    std::vector<OpRecord> records_;
};

} // namespace opdvfs::trace

#endif // OPDVFS_TRACE_PROFILER_H
