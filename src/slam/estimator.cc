#include "slam/estimator.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/telemetry.hh"

namespace archytas::slam {

namespace {

/**
 * Mirrors a frame's HealthReport into the metrics registry so one
 * telemetry snapshot covers both performance and robustness
 * (docs/OBSERVABILITY.md). Counters only: integer sums keep the merge
 * deterministic.
 */
void
recordHealthMetrics(const HealthReport &health)
{
    if (!telemetry::enabled())
        return;
    if (health.dropped_frame)
        ARCHYTAS_COUNT_ADD("health.dropped_frames", 1);
    if (health.imu_gap)
        ARCHYTAS_COUNT_ADD("health.imu_gaps", 1);
    if (health.zero_features)
        ARCHYTAS_COUNT_ADD("health.zero_feature_windows", 1);
    if (health.dma_degraded)
        ARCHYTAS_COUNT_ADD("health.dma_degraded_windows", 1);
    if (health.nonfinite_step)
        ARCHYTAS_COUNT_ADD("health.nonfinite_steps", 1);
    if (health.solver_diverged)
        ARCHYTAS_COUNT_ADD("health.solver_divergences", 1);
    if (health.hw_fallback)
        ARCHYTAS_COUNT_ADD("health.hw_fallbacks", 1);
    if (health.degraded)
        ARCHYTAS_COUNT_ADD("health.degraded_windows", 1);
    switch (health.action) {
      case RecoveryAction::None:
        break;
      case RecoveryAction::EscalatedDamping:
        ARCHYTAS_COUNT_ADD("health.recovery.escalated_damping", 1);
        break;
      case RecoveryAction::ResetToPrior:
        ARCHYTAS_COUNT_ADD("health.recovery.reset_to_prior", 1);
        break;
      case RecoveryAction::SoftwareFallback:
        ARCHYTAS_COUNT_ADD("health.recovery.software_fallback", 1);
        break;
    }
}

/**
 * Midpoint two-ray triangulation. Returns the depth along the anchor
 * bearing (the scale s with p_anchor = bearing * s), or a negative value
 * when the geometry is degenerate.
 */
double
triangulateDepth(const Pose &anchor, const Vec3 &bearing_a,
                 const Pose &target, const Vec3 &bearing_t)
{
    const Vec3 da = anchor.q.rotate(bearing_a);
    const Vec3 dc = target.q.rotate(bearing_t);
    const Vec3 base = target.p - anchor.p;
    if (base.norm() < 0.05)
        return -1.0;

    // Least-squares [da, -dc] [s; u] ~= base.
    const double a11 = da.dot(da), a12 = -da.dot(dc);
    const double a21 = da.dot(dc), a22 = -dc.dot(dc);
    const double b1 = da.dot(base), b2 = dc.dot(base);
    const double det = a11 * a22 - a12 * a21;
    if (std::abs(det) < 1e-9)
        return -1.0;   // Parallel rays.
    const double s = (b1 * a22 - a12 * b2) / det;
    return s;
}

/** Finite in every component? */
bool
finiteVec(const Vec3 &v)
{
    return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

bool
finiteState(const KeyframeState &s)
{
    return finiteVec(s.pose.p) && finiteVec(s.velocity) &&
           finiteVec(s.bias_gyro) && finiteVec(s.bias_accel) &&
           std::isfinite(s.pose.q.w) && std::isfinite(s.pose.q.x) &&
           std::isfinite(s.pose.q.y) && std::isfinite(s.pose.q.z);
}

} // namespace

const char *
recoveryActionName(RecoveryAction action)
{
    switch (action) {
      case RecoveryAction::None:
        return "none";
      case RecoveryAction::EscalatedDamping:
        return "escalated-damping";
      case RecoveryAction::ResetToPrior:
        return "reset-to-prior";
      case RecoveryAction::SoftwareFallback:
        return "software-fallback";
    }
    return "unknown";
}

SlidingWindowEstimator::SlidingWindowEstimator(const PinholeCamera &camera,
                                               const EstimatorOptions
                                                   &options)
    : camera_(camera), options_(options)
{
    ARCHYTAS_ASSERT(options.window_size >= 2, "window too small");
}

void
SlidingWindowEstimator::setIterationController(
    IterationController controller)
{
    controller_ = std::move(controller);
}

void
SlidingWindowEstimator::setWindowSolver(WindowSolver solver)
{
    window_solver_ = std::move(solver);
}

bool
SlidingWindowEstimator::windowFinite() const
{
    for (const KeyframeState &s : keyframes_)
        if (!finiteState(s))
            return false;
    for (const Feature &f : features_)
        if (!std::isfinite(f.inverse_depth))
            return false;
    return true;
}

void
SlidingWindowEstimator::addFrame(const dataset::FrameData &frame,
                                 HealthReport &health)
{
    KeyframeState state;
    if (!bootstrapped_) {
        // Bootstrap from the dataset's ground truth with a small
        // perturbation. Biases start near truth (an initialization phase
        // is assumed to have estimated them) and are refined online.
        state = frame.ground_truth;
        state.bias_gyro += Vec3{options_.bootstrap_gyro_bias_error,
                                -options_.bootstrap_gyro_bias_error,
                                options_.bootstrap_gyro_bias_error};
        state.bias_accel += Vec3{options_.bootstrap_accel_bias_error,
                                 -options_.bootstrap_accel_bias_error,
                                 options_.bootstrap_accel_bias_error};
        state.pose.p += Vec3{options_.bootstrap_noise,
                             -options_.bootstrap_noise,
                             options_.bootstrap_noise};
        bootstrapped_ = true;
        keyframes_.push_back(state);

        // Anchor the gauge: without a prior the early windows are free to
        // wander along the unobservable directions (global translation,
        // yaw, and -- before the accelerometer is excited -- scale),
        // permanently baking the wander into the trajectory. Pin the
        // bootstrap keyframe with an origin prior; marginalization then
        // carries the anchor through every subsequent window.
        linalg::Matrix h0(kKeyframeDof, kKeyframeDof);
        for (std::size_t i = 0; i < 6; ++i)
            h0(i, i) = options_.origin_prior_pose_weight;
        for (std::size_t i = 6; i < 9; ++i)
            h0(i, i) = options_.origin_prior_velocity_weight;
        for (std::size_t i = 9; i < kKeyframeDof; ++i)
            h0(i, i) = options_.origin_prior_bias_weight;
        prior_ = PriorFactor(std::move(h0), linalg::Vector(kKeyframeDof),
                             {state});
    } else {
        // Dead-reckon from the newest keyframe with the preintegrated IMU.
        const KeyframeState &last = keyframes_.back();
        auto preint = std::make_shared<ImuPreintegration>(
            last.bias_gyro, last.bias_accel, options_.imu_noise);
        if (frame.imu.empty()) {
            // IMU gap: the samples covering this interval were lost.
            // Bridge with one constant-velocity pseudo-sample (gyro 0,
            // specific force cancelling gravity in the body frame) so
            // the inter-frame factor stays well-posed -- but inflate the
            // preintegration noise so the fabricated measurement is
            // weakly weighted and the visual factors dominate the
            // window; the frame is flagged degraded.
            health.imu_gap = true;
            ImuNoise inflated = options_.imu_noise;
            inflated.gyro_noise *= options_.imu_gap_noise_inflation;
            inflated.accel_noise *= options_.imu_gap_noise_inflation;
            preint = std::make_shared<ImuPreintegration>(
                last.bias_gyro, last.bias_accel, inflated);
            double dt = frame.timestamp - last.timestamp;
            if (!(dt > 0.0))
                dt = 0.1;
            ImuSample bridge;
            bridge.dt = dt;
            bridge.accel =
                last.pose.q.conjugate().rotate(-gravityVector());
            preint->integrate(bridge);
        } else {
            preint->integrateAll(frame.imu);
        }

        const Mat3 ri = last.pose.q.toRotationMatrix();
        const double dt = preint->dt();
        const Vec3 g = gravityVector();

        state.pose.q = (last.pose.q *
                        Quaternion::fromRotationMatrix(preint->deltaR()))
                           .normalized();
        state.pose.p = last.pose.p + last.velocity * dt +
                       g * (0.5 * dt * dt) + ri * preint->deltaP();
        state.velocity = last.velocity + g * dt + ri * preint->deltaV();
        state.bias_gyro = last.bias_gyro;
        state.bias_accel = last.bias_accel;

        keyframes_.push_back(state);
        preints_.push_back(std::move(preint));
    }
    keyframes_.back().timestamp = frame.timestamp;
    keyframes_.back().frame_id = frame.ground_truth.frame_id;

    // Feature bookkeeping.
    const std::size_t kf_index = keyframes_.size() - 1;
    for (const auto &obs : frame.observations) {
        auto it = feature_index_.find(obs.track_id);
        if (it != feature_index_.end()) {
            features_[it->second].observations.push_back(
                {kf_index, obs.pixel});
        } else {
            Feature feat;
            feat.track_id = obs.track_id;
            feat.anchor_index = kf_index;
            feat.anchor_bearing = camera_.bearing(obs.pixel);
            feat.observations.push_back({kf_index, obs.pixel});
            feature_index_[obs.track_id] = features_.size();
            features_.push_back(std::move(feat));
        }
    }
}

void
SlidingWindowEstimator::initializeFeatureDepths()
{
    for (Feature &feat : features_) {
        if (feat.depth_initialized || feat.observations.size() < 2)
            continue;
        const Pose &anchor = keyframes_[feat.anchor_index].pose;
        // Use the most recent non-anchor observation for the baseline.
        for (auto it = feat.observations.rbegin();
             it != feat.observations.rend(); ++it) {
            if (it->keyframe_index == feat.anchor_index)
                continue;
            const Pose &target = keyframes_[it->keyframe_index].pose;
            const Vec3 bearing_t = camera_.bearing(it->pixel);
            const double s = triangulateDepth(anchor, feat.anchor_bearing,
                                              target, bearing_t);
            if (s > 0.5 && s < 200.0) {
                feat.inverse_depth = 1.0 / s;
                feat.depth_initialized = true;
            }
            break;
        }
    }
}

void
SlidingWindowEstimator::pruneLostFeatures()
{
    std::vector<Feature> kept;
    kept.reserve(features_.size());
    for (Feature &f : features_) {
        if (!f.observations.empty())
            kept.push_back(std::move(f));
    }
    features_ = std::move(kept);
    feature_index_.clear();
    for (std::size_t i = 0; i < features_.size(); ++i)
        feature_index_[features_[i].track_id] = i;
}

void
SlidingWindowEstimator::slideWindow()
{
    // Fold keyframe 0 and the features anchored in it into the prior.
    MarginalizationResult marg = marginalizeOldestKeyframe(
        camera_, keyframes_, features_,
        preints_.empty() ? nullptr : preints_.front(), prior_,
        options_.pixel_sigma, marg_scratch_);
    if (options_.prior_scale != 1.0 && !marg.prior.empty()) {
        linalg::Matrix h = marg.prior.information();
        h *= options_.prior_scale;
        linalg::Vector r = marg.prior.informationVector();
        r *= options_.prior_scale;
        prior_ = PriorFactor(std::move(h), std::move(r),
                             marg.prior.linearization());
    } else {
        prior_ = std::move(marg.prior);
    }

    keyframes_.erase(keyframes_.begin());
    if (!preints_.empty())
        preints_.erase(preints_.begin());

    // Drop marginalized features; re-index the rest.
    std::vector<Feature> kept;
    kept.reserve(features_.size());
    for (Feature &f : features_) {
        if (f.anchor_index == 0)
            continue;   // Marginalized (or uninformative and stale).
        Feature nf = std::move(f);
        nf.anchor_index -= 1;
        std::vector<FeatureObservation> obs;
        obs.reserve(nf.observations.size());
        for (const auto &o : nf.observations)
            if (o.keyframe_index != 0)
                obs.push_back({o.keyframe_index - 1, o.pixel});
        nf.observations = std::move(obs);
        if (!nf.observations.empty())
            kept.push_back(std::move(nf));
    }
    features_ = std::move(kept);
    feature_index_.clear();
    for (std::size_t i = 0; i < features_.size(); ++i)
        feature_index_[features_[i].track_id] = i;

    last_marginalized_features_ = marg.marginalized_features;
}

LmReport
SlidingWindowEstimator::solveWithRecovery(WindowProblem &problem,
                                          const LmOptions &lm,
                                          HealthReport &health)
{
    // The prediction the window entered the solve with; restoring it is
    // always safe because it is consistent with the marginalization
    // prior (it was dead-reckoned from the prior-anchored states).
    const WindowProblem::Snapshot prediction = problem.snapshot();

    LmReport report = window_solver_
                          ? window_solver_(problem, lm, health)
                          : solveWindow(problem, lm, {}, scratch_);
    health.nonfinite_step = health.nonfinite_step ||
                            report.non_finite_cost;

    if (!options_.recovery_enabled)
        return report;
    const bool unhealthy = report.diverged || !windowFinite();
    if (!unhealthy)
        return report;

    // Rung 1: discard the damage, re-linearize from the prediction and
    // re-solve in software with escalated damping.
    health.solver_diverged = true;
    health.degraded = true;
    problem.restore(prediction);
    LmOptions retry = lm;
    retry.lambda_init = lm.lambda_init * options_.recovery_lambda_boost;
    const LmReport second = solveWindow(problem, retry, {}, scratch_);
    if (!second.diverged && windowFinite()) {
        health.action = RecoveryAction::EscalatedDamping;
        return second;
    }

    // Rung 2: give up on this window's solve; keep the prior-consistent
    // prediction so the output stays finite and the next window starts
    // from a sane linearization point.
    problem.restore(prediction);
    health.action = RecoveryAction::ResetToPrior;
    return report;
}

FrameResult
SlidingWindowEstimator::processFrame(const dataset::FrameData &frame)
{
    ARCHYTAS_SPAN("estimator", "estimator.frame");
    FrameResult result;
    if (bootstrapped_ && frame.observations.empty()) {
        // Camera frame lost (or the front-end delivered nothing): the
        // window gets no new visual constraints this frame.
        result.health.dropped_frame = true;
        result.health.degraded = true;
    }

    {
        ARCHYTAS_SPAN("estimator", "estimator.ingest");
        addFrame(frame, result.health);
        initializeFeatureDepths();
    }

    result.timestamp = frame.timestamp;
    result.ground_truth = frame.ground_truth.pose;

    // Workload statistics before optimization (what the hardware sees).
    std::size_t informative_features = 0;
    std::size_t informative_obs = 0;
    for (const Feature &f : features_) {
        const std::size_t n = f.informativeObservations();
        if (n > 0 && f.depth_initialized) {
            ++informative_features;
            informative_obs += n;
        }
    }
    result.workload.keyframes = keyframes_.size();
    result.workload.features = informative_features;
    result.workload.observations = informative_obs;
    result.workload.avg_obs_per_feature =
        informative_features
            ? static_cast<double>(informative_obs) / informative_features
            : 0.0;

    if (keyframes_.size() >= 3) {
        if (informative_features == 0) {
            // Zero-feature window: only IMU and prior factors constrain
            // the solve; the output drifts at dead-reckoning rate.
            result.health.zero_features = true;
            result.health.degraded = true;
        }

        LmOptions lm = options_.lm;
        if (controller_) {
            // A sensing-fault window must not steer the controller's
            // debounce; report it as zero features so the controller
            // applies its degraded-window hold policy.
            const bool sensing_fault = result.health.dropped_frame ||
                                       result.health.zero_features;
            lm.max_iterations =
                controller_(sensing_fault ? 0 : informative_features);
        } else if (options_.forced_iterations > 0) {
            lm.max_iterations = options_.forced_iterations;
        }

        ARCHYTAS_SPAN("estimator", "estimator.solve");
        WindowProblem problem(camera_, keyframes_, features_, preints_,
                              prior_, options_.pixel_sigma,
                              options_.huber_delta);
        result.lm_report = solveWithRecovery(problem, lm, result.health);
        result.optimized = true;
        result.workload.nls_iterations = result.lm_report.iterations;
    }

    result.estimated = keyframes_.back().pose;
    result.position_error =
        (result.estimated.p - frame.ground_truth.pose.p).norm();
    result.rotation_error =
        rotationDistance(result.estimated.q, frame.ground_truth.pose.q);

    if (keyframes_.size() > options_.window_size) {
        ARCHYTAS_SPAN("estimator", "estimator.marginalize");
        slideWindow();
        result.workload.marginalized_features = last_marginalized_features_;
    }
    pruneLostFeatures();

    ARCHYTAS_COUNT_ADD("estimator.frames", 1);
    ARCHYTAS_HIST_RECORD("estimator.window_features",
                         static_cast<double>(result.workload.features));
    if (result.optimized) {
        ARCHYTAS_COUNT_ADD("estimator.windows_optimized", 1);
        ARCHYTAS_COUNT_ADD("estimator.lm_iterations",
                           result.lm_report.iterations);
        ARCHYTAS_HIST_RECORD("estimator.final_cost",
                             result.lm_report.final_cost);
    }
    ARCHYTAS_HIST_RECORD("estimator.position_error",
                         result.position_error);
    recordHealthMetrics(result.health);
    return result;
}

std::vector<FrameResult>
SlidingWindowEstimator::run(const dataset::Sequence &sequence)
{
    std::vector<FrameResult> results;
    results.reserve(sequence.frameCount());
    for (const auto &frame : sequence.frames())
        results.push_back(processFrame(frame));
    return results;
}

} // namespace archytas::slam
