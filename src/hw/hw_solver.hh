/**
 * @file
 * The fault-tolerant hardware window solver: hands each sliding window
 * to the accelerator through the host link, exactly as the deployed
 * system would (Sec. 6.2) — and survives the faults a deployment sees.
 * The accelerator runs the same M-DFG as the software solver, so its
 * functional path is slam::solveWindow on this solver's own scratch;
 * what this layer adds is the link and its faults. Per window it runs
 * the host DMA transaction (with deadline / bounded retry / exponential
 * backoff from hw/host_interface.hh); when the retry budget is
 * exhausted the window is flagged as a software fallback (graceful
 * degradation), and injected result-word bit-flips corrupt the
 * accelerator's step so the estimator's step-rejection and
 * divergence-recovery machinery is exercised end to end. solveWindow is
 * the one host-link path: the traced benchmark stack, the tests and
 * every service session (service/session.hh) call it, and a session
 * reads the window's transaction back through lastTransaction() to
 * place it on the service's simulated timeline. Plugs into
 * slam::SlidingWindowEstimator::setWindowSolver.
 */

#ifndef ARCHYTAS_HW_HW_SOLVER_HH
#define ARCHYTAS_HW_HW_SOLVER_HH

#include "common/fault.hh"
#include "hw/accelerator.hh"
#include "hw/host_interface.hh"
#include "slam/estimator.hh"

namespace archytas::hw {

/** Lifetime statistics of the hardware window solver. */
struct HwSolveStats
{
    std::size_t windows = 0;            //!< Windows presented.
    std::size_t hw_windows = 0;         //!< Solved on the accelerator.
    std::size_t retried_windows = 0;    //!< DMA recovered after retry.
    std::size_t fallback_windows = 0;   //!< Solved in software after the
                                        //!< retry budget was exhausted.
    std::size_t bit_flips_injected = 0; //!< Result words corrupted.
    double link_seconds = 0.0;          //!< Accumulated transfer time,
                                        //!< failed attempts included.
};

/**
 * Executes each window's NLS solve on the accelerator behind the host
 * link, with fault injection and software fallback.
 */
class HwWindowSolver
{
  public:
    /**
     * @param config Accelerator configuration (the built design or a
     *               gated configuration).
     * @param link   Host link parameters (deadline, retry budget).
     * @param plan   Fault schedule; empty injects nothing.
     */
    explicit HwWindowSolver(const HwConfig &config,
                            const HostLink &link = {},
                            FaultPlan plan = {});

    /**
     * slam::SlidingWindowEstimator::WindowSolver entry point: runs the
     * window's host transaction, then the solve -- on the accelerator,
     * or in software when the transaction exhausted its retry budget.
     * Windows are numbered in call order, matching FaultEvent::window.
     */
    [[nodiscard]] slam::LmReport
    solveWindow(slam::WindowProblem &problem,
                const slam::LmOptions &options,
                slam::HealthReport &health);

    /**
     * Installs this solver on an estimator. The solver must outlive the
     * estimator (the estimator keeps a non-owning reference).
     */
    void attach(slam::SlidingWindowEstimator &estimator);

    const HwSolveStats &stats() const { return stats_; }
    const Accelerator &accelerator() const { return accel_; }
    const HostInterface &host() const { return host_; }
    /** The host transaction of the last window solved (default
     *  constructed before the first). */
    const HostTransaction &lastTransaction() const { return txn_; }

  private:
    /** Flips `count` random bits across the result words dy/dx. */
    void corruptResult(const FaultEvent &event, linalg::Vector &dy,
                       linalg::Vector &dx);

    Accelerator accel_;
    HostInterface host_;
    FaultPlan plan_;
    HwSolveStats stats_;
    HostTransaction txn_;
    std::size_t window_index_ = 0;
    bool config_sent_ = false;
    /** Per-solver LM buffers: reused across windows (both the hardware
     *  LM loop and the software fallback), never shared between
     *  solvers, so concurrent sessions stay reentrant. */
    slam::SolverScratch scratch_;
};

} // namespace archytas::hw

#endif // ARCHYTAS_HW_HW_SOLVER_HH
