/**
 * @file
 * Per-window energy accounting for the deployed accelerator, with and
 * without the run-time system (Sec. 7.6's measurement methodology).
 * Centralizes the arithmetic the benches, examples and integration
 * tests share: energy = window latency at the active configuration x
 * the (possibly gated) power of Eq. 17.
 */

#ifndef ARCHYTAS_RUNTIME_ENERGY_HH
#define ARCHYTAS_RUNTIME_ENERGY_HH

#include "hw/accelerator.hh"
#include "runtime/controller.hh"
#include "synth/models.hh"

namespace archytas::runtime {

/** Accumulates static-vs-dynamic energy over a trace. */
class EnergyAccountant
{
  public:
    /**
     * @param built Statically synthesized configuration.
     * @param power Calibrated power model.
     */
    EnergyAccountant(const hw::HwConfig &built,
                     const synth::PowerModel &power);

    /**
     * Charges one window executed at full effort on the full design.
     * @return The window's charge in mJ.
     */
    double chargeStatic(const slam::WindowWorkload &workload,
                        std::size_t full_iterations = 6);

    /**
     * Charges one window executed under a controller decision.
     * @return The window's charge in mJ.
     */
    double chargeDynamic(const slam::WindowWorkload &workload,
                         const ControllerDecision &decision);

    double staticMj() const { return static_mj_; }
    double dynamicMj() const { return dynamic_mj_; }

    /** Fractional saving in [0, 1); 0 when nothing charged. */
    double saving() const;

    std::size_t windows() const { return windows_; }

  private:
    hw::HwConfig built_;
    hw::Accelerator built_accel_;
    synth::PowerModel power_;
    double static_mj_ = 0.0;
    double dynamic_mj_ = 0.0;
    std::size_t windows_ = 0;
};

} // namespace archytas::runtime

#endif // ARCHYTAS_RUNTIME_ENERGY_HH
