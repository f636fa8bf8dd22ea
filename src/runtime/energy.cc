#include "runtime/energy.hh"

namespace archytas::runtime {

EnergyAccountant::EnergyAccountant(const hw::HwConfig &built,
                                   const synth::PowerModel &power)
    : built_(built), built_accel_(built), power_(power)
{
}

double
EnergyAccountant::chargeStatic(const slam::WindowWorkload &workload,
                               std::size_t full_iterations)
{
    const double mj =
        built_accel_.windowTiming(workload, full_iterations).totalMs() *
        power_.watts(built_);
    static_mj_ += mj;
    ++windows_;
    return mj;
}

double
EnergyAccountant::chargeDynamic(const slam::WindowWorkload &workload,
                                const ControllerDecision &decision)
{
    const hw::Accelerator gated(decision.gated);
    const double mj =
        gated.windowTiming(workload, decision.iterations).totalMs() *
        power_.gatedWatts(built_, decision.gated);
    dynamic_mj_ += mj;
    return mj;
}

double
EnergyAccountant::saving() const
{
    if (static_mj_ <= 0.0)
        return 0.0;
    return 1.0 - dynamic_mj_ / static_mj_;
}

} // namespace archytas::runtime
