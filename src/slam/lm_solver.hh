/**
 * @file
 * Levenberg-Marquardt solver for the sliding-window MAP problem
 * (Sec. 3.1). Each iteration linearizes the factors, forms the blocked
 * normal equations, eliminates the diagonal inverse-depth block with a
 * D-type Schur complement, solves the reduced keyframe system with
 * Cholesky + forward/backward substitution, and recovers the feature
 * increments -- exactly the M-DFG of Fig. 3b.
 */

#ifndef ARCHYTAS_SLAM_LM_SOLVER_HH
#define ARCHYTAS_SLAM_LM_SOLVER_HH

#include <functional>
#include <vector>

#include "slam/window_problem.hh"

namespace archytas::slam {

/** Tuning knobs of the LM solver. */
struct LmOptions
{
    /** Iteration cap: the paper's run-time knob Iter (capped at 6). */
    std::size_t max_iterations = 6;
    /** Initial damping factor. */
    double lambda_init = 1e-4;
    /** Damping growth on a rejected step. */
    double lambda_up = 10.0;
    /** Damping decay on an accepted step. */
    double lambda_down = 0.1;
    /** Convergence: stop when the relative cost decrease falls below. */
    double rel_cost_tol = 1e-6;
    /** Max damping retries within one iteration before giving up. */
    std::size_t max_retries = 8;
    /**
     * Divergence threshold: a final cost beyond this factor of the
     * initial cost (or a non-finite one) marks the solve diverged, which
     * triggers the estimator's recovery ladder (docs/ROBUSTNESS.md).
     */
    double divergence_cost_factor = 1e3;
};

/** Outcome of one LM solve. */
struct LmReport
{
    std::size_t iterations = 0;       //!< Linearizations performed.
    double initial_cost = 0.0;
    double final_cost = 0.0;
    bool converged = false;           //!< Hit the tolerance before the cap.
    std::vector<double> cost_history; //!< Cost after every iteration.

    // Solver-health signals consumed by the recovery layer.
    std::size_t cholesky_failures = 0; //!< Non-PSD reduced systems hit.
    bool non_finite_cost = false;      //!< A trial step produced NaN/inf
                                       //!< cost (step rejected).
    bool diverged = false;             //!< Cost exploded or went
                                       //!< non-finite; state is suspect.

    /** True when the recovery layer should intervene. */
    bool healthy() const { return !diverged; }
};

/**
 * Post-solve hook of one damped LM step: sees the increments of every
 * successful solveBlockedSystem before the step is tried. The hardware
 * path injects result-word faults here (hw/hw_solver.hh); empty does
 * nothing.
 */
using SolveHook = std::function<void(linalg::Vector &, linalg::Vector &)>;

/**
 * Reusable buffers for the blocked solve. One instance per estimator
 * (or per session, service/session.hh): the heavy Schur intermediates
 * keep their heap storage across LM iterations, damping retries, and
 * windows, so steady-state solves reallocate nothing. Never shared
 * between concurrently-solving sessions -- ownership, not locking, is
 * what keeps the solver reentrant.
 */
struct SolverScratch
{
    NormalEquations eq;       //!< Linearized system of the current step.
    AssemblyScratch assembly; //!< Arena-backed window-assembly buffers.
    ReducedSystem rsys;       //!< Damped Schur reduction buffers.
    linalg::Matrix chol;      //!< Cholesky factor of the reduced system.
    linalg::Vector chol_y;    //!< Forward-substitution intermediate.
    linalg::Vector dy;        //!< Keyframe increment of the current step.
    linalg::Vector dx;        //!< Feature increment of the current step.
    WindowProblem::Snapshot trial; //!< States before the trial step.
};

/**
 * Runs LM on the window problem, mutating its states in place. Every
 * step is solved by solveBlockedSystem.
 *
 * @param hook    Optional post-solve hook on (dy, dx); empty for none.
 * @param scratch Per-session solver buffers reused across iterations.
 */
[[nodiscard]] LmReport solveWindow(WindowProblem &problem,
                                   const LmOptions &options,
                                   const SolveHook &hook,
                                   SolverScratch &scratch);

/**
 * One damped Schur-eliminated solve of the blocked system: the one
 * numeric solve path, shared by the software estimator and the
 * accelerator model (hw/hw_solver.hh).
 *
 * @param eq      Normal equations from WindowProblem::build().
 * @param lambda  LM damping added as lambda * diag(H).
 * @param dy      Output keyframe increment (15 b).
 * @param dx      Output feature increment (m).
 * @param scratch Buffers reused across calls (per session, never shared).
 * @return false when the reduced system is not positive definite.
 */
bool solveBlockedSystem(const NormalEquations &eq, double lambda,
                        linalg::Vector &dy, linalg::Vector &dx,
                        SolverScratch &scratch);

} // namespace archytas::slam

#endif // ARCHYTAS_SLAM_LM_SOLVER_HH
