#include "slam/lm_solver.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/telemetry.hh"
#include "linalg/cholesky.hh"
#include "linalg/simd.hh"

namespace archytas::slam {

bool
solveBlockedSystem(const NormalEquations &eq, double lambda,
                   linalg::Vector &dy, linalg::Vector &dx,
                   SolverScratch &scratch)
{
    // Reduced system: (V_damped - W U^{-1} W^T) dy = by - W U^{-1} bx.
    // Features with no informative observations (u == 0) get a
    // pure-damping pivot so the elimination stays well-defined and
    // their increment is zero.
    {
        ARCHYTAS_SPAN("solver", "solver.dschur");
        formReducedSystem(eq, lambda, scratch.rsys);
    }

    {
        ARCHYTAS_SPAN("solver", "solver.cholesky");
        if (!linalg::choleskyInto(scratch.chol, scratch.rsys.reduced))
            return false;
        linalg::forwardSubstituteInto(scratch.chol_y, scratch.chol,
                                      scratch.rsys.rhs);
        linalg::backwardSubstituteInto(dy, scratch.chol, scratch.chol_y);
    }

    // Back-substitute features: dx = U^{-1} (bx - W^T dy).
    ARCHYTAS_SPAN("solver", "solver.backsub");
    recoverFeatureIncrements(dx, eq, scratch.rsys, dy);
    return true;
}

LmReport
solveWindow(WindowProblem &problem, const LmOptions &options,
            const SolveHook &hook, SolverScratch &scratch)
{
    ARCHYTAS_SPAN("solver", "solver.window");
    // Re-published per solve (not only at backend selection) so metric
    // snapshots taken after a registry reset still carry the backend.
    ARCHYTAS_GAUGE_SET("kernels.backend",
                       static_cast<long>(linalg::simd::activeBackend()));
    LmReport report;
    double lambda = options.lambda_init;

    problem.build(scratch.eq, scratch.assembly, BuildMode::kSolve);
    NormalEquations &eq = scratch.eq;
    report.initial_cost = eq.cost;
    double cost = eq.cost;

    if (!std::isfinite(cost)) {
        // The linearization point itself is corrupt: nothing to
        // optimize here; the estimator's recovery layer must reset the
        // window.
        report.non_finite_cost = true;
        report.diverged = true;
        report.final_cost = cost;
        return report;
    }

    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
        ++report.iterations;
        bool accepted = false;

        for (std::size_t retry = 0; retry < options.max_retries; ++retry) {
            linalg::Vector &dy = scratch.dy;
            linalg::Vector &dx = scratch.dx;
            if (!solveBlockedSystem(eq, lambda, dy, dx, scratch)) {
                ++report.cholesky_failures;
                ARCHYTAS_COUNT_ADD("solver.cholesky_failures", 1);
                lambda *= options.lambda_up;
                continue;
            }
            if (hook)
                hook(dy, dx);
            problem.snapshotInto(scratch.trial);
            problem.applyDelta(dy, dx);
            const double new_cost =
                problem.evaluateCost(scratch.assembly.prior);
            if (!std::isfinite(new_cost))
                report.non_finite_cost = true;
            if (std::isfinite(new_cost) && new_cost < cost) {
                const double rel = (cost - new_cost) / std::max(cost, 1e-12);
                cost = new_cost;
                lambda = std::max(lambda * options.lambda_down, 1e-12);
                accepted = true;
                report.cost_history.push_back(cost);
                if (rel < options.rel_cost_tol) {
                    report.converged = true;
                }
                break;
            }
            problem.restore(scratch.trial);
            ARCHYTAS_COUNT_ADD("solver.step_rejections", 1);
            lambda *= options.lambda_up;
        }

        if (!accepted) {
            // Damping exhausted: the current estimate is a local minimum
            // for this linearization.
            report.converged = true;
            break;
        }
        if (report.converged)
            break;
        problem.build(scratch.eq, scratch.assembly, BuildMode::kSolve);
        cost = eq.cost;
    }

    report.final_cost = cost;
    ARCHYTAS_COUNT_ADD("solver.iterations", report.iterations);
    ARCHYTAS_HIST_RECORD("solver.final_cost", cost);
    // Divergence: the accepted-step discipline above never raises the
    // cost, so this only fires when a corrupted inner solve (e.g. an
    // injected result bit-flip that slipped past step rejection) or a
    // corrupt linearization left the state inconsistent.
    report.diverged =
        !std::isfinite(cost) ||
        cost > report.initial_cost * options.divergence_cost_factor +
                   1e-12;
    return report;
}

} // namespace archytas::slam
