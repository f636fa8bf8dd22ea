#include "hw/hw_solver.hh"

#include <cstring>
#include <limits>

#include "common/contracts.hh"
#include "common/logging.hh"
#include "common/telemetry.hh"
#include "slam/lm_solver.hh"

namespace archytas::hw {

HwWindowSolver::HwWindowSolver(const HwConfig &config,
                               const HostLink &link, FaultPlan plan)
    : accel_(config), host_(link), plan_(std::move(plan))
{
}

void
HwWindowSolver::corruptResult(const FaultEvent &event, linalg::Vector &dy,
                              linalg::Vector &dx)
{
    Rng rng = plan_.rngFor(event);
    const std::size_t total = dy.size() + dx.size();
    ARCHYTAS_DCHECK(
        total <= static_cast<std::size_t>(std::numeric_limits<int>::max()),
        "corruptResult: result too large for fault word indexing");
    if (total == 0)
        return;
    for (std::size_t k = 0; k < event.count; ++k) {
        const auto word = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(total) - 1));
        double &value =
            word < dy.size() ? dy[word] : dx[word - dy.size()];
        // Flip one bit of the result word's representation; high bits
        // hit the exponent and can turn the increment into inf/NaN,
        // which is exactly the damage a real transfer corruption does.
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        bits ^= std::uint64_t{1} << rng.uniformInt(0, 63);
        std::memcpy(&value, &bits, sizeof(bits));
        ++stats_.bit_flips_injected;
    }
}

slam::LmReport
HwWindowSolver::solveWindow(slam::WindowProblem &problem,
                            const slam::LmOptions &options,
                            slam::HealthReport &health)
{
    const std::size_t window = window_index_++;

    slam::WindowWorkload workload;
    workload.keyframes = problem.keyframeCount();
    workload.features = problem.featureCount();
    workload.observations = problem.observationCount();

    txn_ = host_.windowTransaction(workload, !config_sent_, window,
                                   plan_);
    config_sent_ = true;

    ARCHYTAS_SPAN("hw", "hw.window");
    ++stats_.windows;
    ARCHYTAS_COUNT_ADD("hw.windows", 1);
    stats_.link_seconds += txn_.total_seconds;

    if (txn_.status == TransactionStatus::RecoveredAfterRetry) {
        ++stats_.retried_windows;
        health.dma_degraded = true;
    } else if (txn_.status == TransactionStatus::DeadlineExceeded) {
        // Retry budget exhausted: the accelerator is unreachable this
        // window. Degrade gracefully to the software solver and record
        // the event.
        ++stats_.fallback_windows;
        health.dma_degraded = true;
        health.hw_fallback = true;
        health.degraded = true;
        health.action = slam::RecoveryAction::SoftwareFallback;
        ARCHYTAS_COUNT_ADD("hw.fallback_windows", 1);
        ARCHYTAS_INSTANT("hw", "hw.software_fallback",
                         {"window", static_cast<double>(window)});
        return slam::solveWindow(problem, options, {}, scratch_);
    }

    ++stats_.hw_windows;
    ARCHYTAS_COUNT_ADD("hw.hw_windows", 1);
    // An injected bit-flip corrupts the window's first solved step.
    const FaultEvent *flip = plan_.find(window, FaultKind::BitFlip);
    bool pending = true;
    slam::SolveHook corrupt;
    if (flip != nullptr) {
        corrupt = [&](linalg::Vector &dy, linalg::Vector &dx) {
            if (pending)
                corruptResult(*flip, dy, dx);
            pending = false;
        };
    }
    return slam::solveWindow(problem, options, corrupt, scratch_);
}

void
HwWindowSolver::attach(slam::SlidingWindowEstimator &estimator)
{
    estimator.setWindowSolver(
        [this](slam::WindowProblem &problem,
               const slam::LmOptions &options,
               slam::HealthReport &health) {
            return solveWindow(problem, options, health);
        });
}

} // namespace archytas::hw
