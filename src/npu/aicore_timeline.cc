#include "npu/aicore_timeline.h"

#include <algorithm>
#include <stdexcept>

#include "common/units.h"

namespace opdvfs::npu {

double
PipelineRatios::maxRatio() const
{
    return std::max({cube, vector, scalar, mte1, mte2, mte3});
}

AicoreTimeline::AicoreTimeline(const HwOpParams &params,
                               const MemorySystem &memory)
    : params_(params),
      ld_(memory.ldStCoefficients(params.ld_volume_bytes, params.ld_l2_hit)),
      st_(memory.ldStCoefficients(params.st_volume_bytes, params.st_l2_hit))
{
    if (params.n < 1)
        throw std::invalid_argument("AicoreTimeline: n must be >= 1");
    if (params.core_cycles < 0.0 || params.t0_seconds < 0.0)
        throw std::invalid_argument("AicoreTimeline: negative parameter");
}

namespace {

/** max(a*f, c) for one transfer; zero when there is no traffic. */
double
rawTransferCycles(const LdStCycleCoefficients &coeff, double f_hz)
{
    if (coeff.floor_cycles == 0.0)
        return 0.0;
    return std::max(coeff.slope_per_hz * f_hz, coeff.floor_cycles);
}

} // namespace

double
AicoreTimeline::ldCycles(double f_mhz) const
{
    double f_hz = mhzToHz(f_mhz);
    if (ld_.floor_cycles == 0.0)
        return 0.0;
    return rawTransferCycles(ld_, f_hz) + params_.t0_seconds * f_hz;
}

double
AicoreTimeline::stCycles(double f_mhz) const
{
    double f_hz = mhzToHz(f_mhz);
    if (st_.floor_cycles == 0.0)
        return 0.0;
    return rawTransferCycles(st_, f_hz) + params_.t0_seconds * f_hz;
}

double
AicoreTimeline::cyclesScenario(double f_hz) const
{
    const double n = static_cast<double>(params_.n);
    const double core = params_.core_cycles;
    const double t0f = params_.t0_seconds * f_hz;
    const bool has_ld = ld_.floor_cycles > 0.0;
    const bool has_st = st_.floor_cycles > 0.0;
    const double raw_ld = rawTransferCycles(ld_, f_hz);
    const double raw_st = rawTransferCycles(st_, f_hz);
    const double t0_ld = has_ld ? t0f : 0.0;
    const double t0_st = has_st ? t0f : 0.0;

    switch (params_.scenario) {
      case Scenario::PingPongFreeIndependent:
        // Eq. 5: head Ld + tail St + n core computations + (n-1)
        // overlapped move-in/move-out slots + (n+1) T0 overheads.
        return raw_ld + raw_st + n * core
            + (n - 1.0) * std::max(raw_ld, raw_st)
            + t0_ld + t0_st
            + (n - 1.0) * ((has_ld || has_st) ? t0f : 0.0);

      case Scenario::PingPongFreeDependent:
        // Eq. 6: fully serialised Ld -> core -> St chains.
        return n * (raw_ld + raw_st + core + t0_ld + t0_st);

      case Scenario::PingPongIndependent:
        // Eq. 7: head/tail exposed once; the steady state is paced by
        // the slowest of {Ld, core, St}.
        return raw_ld + core + raw_st
            + (n - 1.0)
                * std::max({raw_ld + t0_ld, raw_st + t0_st, core})
            + t0_ld + t0_st;

      case Scenario::PingPongDependent:
        // Eq. 8: double buffering halves the serialised chain count;
        // one un-overlapped max() segment remains.
        return (n / 2.0) * (raw_ld + raw_st + core)
            + std::max({raw_ld + t0_ld, raw_st + t0_st, core})
            + (n / 2.0) * (t0_ld + t0_st);
    }
    throw std::logic_error("AicoreTimeline: unknown scenario");
}

double
AicoreTimeline::cycles(double f_mhz) const
{
    if (params_.category != OpCategory::Compute)
        return 0.0;
    double f_hz = mhzToHz(f_mhz);
    return cyclesScenario(f_hz) + params_.overhead_seconds * f_hz;
}

double
AicoreTimeline::seconds(double f_mhz) const
{
    if (params_.category != OpCategory::Compute)
        return params_.fixed_seconds;
    return cycles(f_mhz) / mhzToHz(f_mhz);
}

math::ConvexPwl
AicoreTimeline::cyclePwl() const
{
    return math::ConvexPwl::sum(
        cyclePwlScenario(),
        math::ConvexPwl::affine(params_.overhead_seconds, 0.0));
}

math::ConvexPwl
AicoreTimeline::cyclePwlScenario() const
{
    using math::ConvexPwl;

    const double n = static_cast<double>(params_.n);
    const bool has_ld = ld_.floor_cycles > 0.0;
    const bool has_st = st_.floor_cycles > 0.0;
    const double t0 = params_.t0_seconds;

    auto raw = [](const LdStCycleCoefficients &coeff) {
        if (coeff.floor_cycles == 0.0)
            return ConvexPwl::constant(0.0);
        return ConvexPwl::max(ConvexPwl::affine(coeff.slope_per_hz, 0.0),
                              ConvexPwl::constant(coeff.floor_cycles));
    };

    ConvexPwl raw_ld = raw(ld_);
    ConvexPwl raw_st = raw(st_);
    ConvexPwl core = ConvexPwl::constant(params_.core_cycles);
    ConvexPwl t0f = ConvexPwl::affine(t0, 0.0);
    ConvexPwl ld_full = has_ld ? ConvexPwl::sum(raw_ld, t0f) : raw_ld;
    ConvexPwl st_full = has_st ? ConvexPwl::sum(raw_st, t0f) : raw_st;

    switch (params_.scenario) {
      case Scenario::PingPongFreeIndependent: {
        ConvexPwl mid = ConvexPwl::max(raw_ld, raw_st).scaled(n - 1.0);
        double t0_slope = t0 * ((has_ld ? 1.0 : 0.0) + (has_st ? 1.0 : 0.0)
                                + ((has_ld || has_st) ? n - 1.0 : 0.0));
        ConvexPwl acc = ConvexPwl::sum(raw_ld, raw_st);
        acc = ConvexPwl::sum(acc, core.scaled(n));
        acc = ConvexPwl::sum(acc, mid);
        return ConvexPwl::sum(acc, ConvexPwl::affine(t0_slope, 0.0));
      }

      case Scenario::PingPongFreeDependent: {
        ConvexPwl acc = ConvexPwl::sum(raw_ld, raw_st);
        acc = ConvexPwl::sum(acc, core);
        double t0_slope = t0 * ((has_ld ? 1.0 : 0.0) + (has_st ? 1.0 : 0.0));
        acc = ConvexPwl::sum(acc, ConvexPwl::affine(t0_slope, 0.0));
        return acc.scaled(n);
      }

      case Scenario::PingPongIndependent: {
        ConvexPwl pace =
            ConvexPwl::max({ld_full, st_full, core}).scaled(n - 1.0);
        ConvexPwl acc = ConvexPwl::sum(raw_ld, raw_st);
        acc = ConvexPwl::sum(acc, core);
        acc = ConvexPwl::sum(acc, pace);
        double t0_slope = t0 * ((has_ld ? 1.0 : 0.0) + (has_st ? 1.0 : 0.0));
        return ConvexPwl::sum(acc, ConvexPwl::affine(t0_slope, 0.0));
      }

      case Scenario::PingPongDependent: {
        ConvexPwl chain = ConvexPwl::sum(ConvexPwl::sum(raw_ld, raw_st), core)
                              .scaled(n / 2.0);
        ConvexPwl head = ConvexPwl::max({ld_full, st_full, core});
        double t0_slope = t0 * (n / 2.0)
            * ((has_ld ? 1.0 : 0.0) + (has_st ? 1.0 : 0.0));
        ConvexPwl acc = ConvexPwl::sum(chain, head);
        return ConvexPwl::sum(acc, ConvexPwl::affine(t0_slope, 0.0));
      }
    }
    throw std::logic_error("AicoreTimeline: unknown scenario");
}

PipelineRatios
AicoreTimeline::ratios(double f_mhz) const
{
    PipelineRatios out;
    if (params_.category != OpCategory::Compute)
        return out;

    double total = cycles(f_mhz);
    if (total <= 0.0)
        return out;

    const double n = static_cast<double>(params_.n);
    double ld_busy = std::min(n * ldCycles(f_mhz), total);
    double st_busy = std::min(n * stCycles(f_mhz), total);
    double core_busy = std::min(n * params_.core_cycles, total);

    out.mte2 = ld_busy / total;
    out.mte3 = st_busy / total;

    double core_ratio = core_busy / total;
    switch (params_.core_pipe) {
      case CorePipe::Cube:   out.cube = core_ratio; break;
      case CorePipe::Vector: out.vector = core_ratio; break;
      case CorePipe::Scalar: out.scalar = core_ratio; break;
      case CorePipe::Mte1:   out.mte1 = core_ratio; break;
    }
    return out;
}

unsigned
AicoreTimeline::activePipes() const
{
    if (params_.category != OpCategory::Compute)
        return 0;
    unsigned mask = 0;
    if (ld_.floor_cycles > 0.0)
        mask |= kPipeMte2;
    if (st_.floor_cycles > 0.0)
        mask |= kPipeMte3;
    if (params_.core_cycles > 0.0) {
        switch (params_.core_pipe) {
          case CorePipe::Cube:   mask |= kPipeCube; break;
          case CorePipe::Vector: mask |= kPipeVector; break;
          case CorePipe::Scalar: mask |= kPipeScalar; break;
          case CorePipe::Mte1:   mask |= kPipeMte1; break;
        }
    }
    return mask;
}

} // namespace opdvfs::npu
