/**
 * @file
 * The assembled accelerator (Fig. 5): all template blocks wired together
 * behind the paper's end-to-end latency model (Eq. 13-15), including the
 * pipeline overlap between the Jacobian and D-type Schur blocks (the max
 * term of Eq. 14) and the per-block busy-cycle accounting used for
 * utilization and clock-gated energy.
 *
 * The accelerator's functional path *is* the software solve: it runs
 * the same M-DFG (Fig. 3b), so hw::HwWindowSolver hands every window to
 * slam::solveBlockedSystem. hw:: models its timing (here) and its faults
 * (hw/host_interface.hh, hw/hw_solver.hh).
 */

#ifndef ARCHYTAS_HW_ACCELERATOR_HH
#define ARCHYTAS_HW_ACCELERATOR_HH

#include "hw/cholesky_unit.hh"
#include "hw/config.hh"
#include "hw/jacobian_unit.hh"
#include "hw/schur_units.hh"
#include "slam/state.hh"

namespace archytas::hw {

/** Cycle breakdown of one sliding window on the accelerator. */
struct WindowTiming
{
    double nls_cycles_per_iter = 0.0;   //!< L_NLS (Eq. 14).
    double marg_cycles = 0.0;           //!< L_Marg (Eq. 15).
    double total_cycles = 0.0;          //!< Eq. 13.
    std::size_t iterations = 0;

    /** Busy cycles per block (for utilization / gating accounting). */
    double jacobian_busy = 0.0;
    double dschur_busy = 0.0;
    double mschur_busy = 0.0;
    double cholesky_busy = 0.0;
    double bsub_busy = 0.0;

    double totalMs(const HwConstants &env = {}) const
    {
        return cyclesToMs(total_cycles, env);
    }
};

/** The accelerator instance generated for a configuration. */
class Accelerator
{
  public:
    Accelerator(const HwConfig &config, const HwConstants &env = {});

    const HwConfig &config() const { return config_; }
    const HwConstants &constants() const { return env_; }

    /**
     * End-to-end timing of one sliding window (Eq. 13): Iter NLS solver
     * iterations plus marginalization.
     *
     * @param w    Per-window workload statistics.
     * @param iterations Iter; when 0, w.nls_iterations is used.
     */
    WindowTiming windowTiming(const slam::WindowWorkload &w,
                              std::size_t iterations = 0) const;

    const JacobianUnit &jacobianUnit() const { return jacobian_; }
    const CholeskyUnit &choleskyUnit() const { return cholesky_; }
    const DSchurUnit &dschurUnit() const { return dschur_; }
    const MSchurUnit &mschurUnit() const { return mschur_; }

    /** Back-substitution latency (fixed-function logic, Sec. 5). */
    double backSubstitutionCycles(std::size_t dim) const;

  private:
    HwConfig config_;
    HwConstants env_;
    JacobianUnit jacobian_;
    CholeskyUnit cholesky_;
    DSchurUnit dschur_;
    MSchurUnit mschur_;
};

} // namespace archytas::hw

#endif // ARCHYTAS_HW_ACCELERATOR_HH
