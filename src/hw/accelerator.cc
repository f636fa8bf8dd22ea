#include "hw/accelerator.hh"

#include <algorithm>
#include <cmath>

#include "common/telemetry.hh"

namespace archytas::hw {

namespace {

/** Rounds an analytical cycle count for the integer telemetry counters. */
std::uint64_t
toCycleCount(double cycles)
{
    return cycles > 0.0 ? static_cast<std::uint64_t>(std::llround(cycles))
                        : 0;
}

} // namespace

Accelerator::Accelerator(const HwConfig &config, const HwConstants &env)
    : config_(config), env_(env), jacobian_(env),
      cholesky_(config.s, env), dschur_(config.nd), mschur_(config.nm)
{
}

double
Accelerator::backSubstitutionCycles(std::size_t dim) const
{
    // Fixed-function forward+backward substitution: 2 n^2 operations at
    // the block's fixed issue width; independent of nd, nm, s (Sec. 5).
    const double n = static_cast<double>(dim);
    return 2.0 * n * n / env_.bsub_ops_per_cycle;
}

WindowTiming
Accelerator::windowTiming(const slam::WindowWorkload &w,
                          std::size_t iterations) const
{
    WindowTiming t;
    t.iterations = iterations ? iterations
                              : std::max<std::size_t>(w.nls_iterations, 1);

    const double a = static_cast<double>(std::max<std::size_t>(
        w.features, 1));
    const double no = std::max(w.avg_obs_per_feature, 1.0);
    const std::size_t reduced_dim = w.keyframes * slam::kKeyframeDof;

    // Eq. 14: the Jacobian and D-type Schur blocks pipeline across
    // feature points, so each feature costs the max of the two beats.
    const double jac_beat = jacobian_.perFeatureCycles(no);
    const double dschur_beat = dschur_.perFeatureCycles(no);
    const double pipeline = a * std::max(jac_beat, dschur_beat);
    const double chol = cholesky_.analyticalCycles(reduced_dim);
    const double bsub = backSubstitutionCycles(reduced_dim);
    t.nls_cycles_per_iter = pipeline + chol + bsub;

    // Eq. 15: marginalization is the cumulative latency (no feature
    // pipelining: the M-type Schur mixes all features).
    const double am = static_cast<double>(std::max<std::size_t>(
        w.marginalized_features, 1));
    const double marg_jac = am * jac_beat;
    const double marg_dschur = dschur_beat;
    // Marginalization's Cholesky factors S' (the departing keyframe's
    // 15 x 15 D-type Schur complement) on the shared Cholesky block.
    const double marg_chol =
        cholesky_.analyticalCycles(slam::kKeyframeDof);
    const double marg_mschur =
        mschur_.cycles(w.marginalized_features, w.keyframes);
    t.marg_cycles = marg_jac + marg_dschur + marg_chol + marg_mschur;

    t.total_cycles = static_cast<double>(t.iterations) *
                         t.nls_cycles_per_iter +
                     t.marg_cycles;

    // Busy-cycle accounting for utilization and clock gating.
    const double iters = static_cast<double>(t.iterations);
    t.jacobian_busy = iters * a * jac_beat + marg_jac;
    t.dschur_busy = iters * a * dschur_beat + marg_dschur;
    t.cholesky_busy = iters * chol + marg_chol;
    t.bsub_busy = iters * bsub;
    t.mschur_busy = marg_mschur;

    // Per-block simulated-cycle counters: simulator time stays
    // cross-checkable against the wall-time spans in the same trace.
    if (telemetry::enabled()) {
        ARCHYTAS_COUNT_ADD("hw.windows_timed", 1);
        ARCHYTAS_COUNT_ADD("hw.cycles.jacobian",
                           toCycleCount(t.jacobian_busy));
        ARCHYTAS_COUNT_ADD("hw.cycles.dschur", toCycleCount(t.dschur_busy));
        ARCHYTAS_COUNT_ADD("hw.cycles.cholesky",
                           toCycleCount(t.cholesky_busy));
        ARCHYTAS_COUNT_ADD("hw.cycles.bsub", toCycleCount(t.bsub_busy));
        ARCHYTAS_COUNT_ADD("hw.cycles.mschur", toCycleCount(t.mschur_busy));
        ARCHYTAS_COUNT_ADD("hw.cycles.marginalization",
                           toCycleCount(t.marg_cycles));
        ARCHYTAS_COUNT_ADD("hw.cycles.total", toCycleCount(t.total_cycles));
        ARCHYTAS_INSTANT("hw", "hw.window_timing",
                         {"iterations",
                          static_cast<double>(t.iterations)},
                         {"total_cycles", t.total_cycles},
                         {"nls_cycles_per_iter", t.nls_cycles_per_iter},
                         {"marg_cycles", t.marg_cycles});
    }
    return t;
}

} // namespace archytas::hw
