#include "service/session.hh"

#include <cstdio>
#include <utility>

#include "common/contracts.hh"
#include "common/telemetry.hh"
#include "dataset/corruptor.hh"

namespace archytas::service {

namespace {

dataset::Sequence
makeSequence(const SessionConfig &config)
{
    return config.euroc_like
               ? dataset::makeEurocLikeSequence(config.sequence)
               : dataset::makeKittiLikeSequence(config.sequence);
}

std::string
makeLabel(const SessionConfig &config, std::size_t id)
{
    if (!config.name.empty())
        return config.name;
    char buf[32];
    std::snprintf(buf, sizeof buf, "session-%02zu", id);
    return buf;
}

/**
 * Independent per-session stream: a fixed odd multiplier spreads the
 * session id across the seed space (splitmix-style), so neighbouring
 * ids never yield correlated streams.
 */
Rng
makeSessionRng(std::uint64_t service_seed, std::size_t id)
{
    return Rng(service_seed ^
               (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(id) +
                                         1)));
}

std::array<hw::HwConfig, runtime::kMaxIterations>
gatedConfigsFor(const hw::HwConfig &built)
{
    // Gating does not change the datapath arithmetic, only the timing /
    // power model, so running every Iter level on the built design is a
    // valid (conservative) configuration set for a session.
    std::array<hw::HwConfig, runtime::kMaxIterations> configs;
    configs.fill(built);
    return configs;
}

} // namespace

RobotSession::RobotSession(std::size_t id, const SessionConfig &config,
                           std::uint64_t service_seed)
    : config_(config),
      ctx_{id, makeLabel(config, id), makeSessionRng(service_seed, id)},
      sequence_(makeSequence(config)),
      frames_(config.faults.empty()
                  ? sequence_.frames()
                  : dataset::corruptFrames(sequence_, config.faults)),
      estimator_(sequence_.camera(), config.estimator),
      solver_(config.accel, config.link, config.faults),
      controller_(config.iter_table, gatedConfigsFor(config.accel),
                  config.accel)
{
    ARCHYTAS_ASSERT(!frames_.empty(), "session with an empty sequence");
    results_.reserve(frames_.size());

    if (config_.use_runtime_controller) {
        estimator_.setIterationController([this](std::size_t features) {
            return controller_.onWindow(features).iterations;
        });
    }
    estimator_.setWindowSolver(
        [this](slam::WindowProblem &problem,
               const slam::LmOptions &options,
               slam::HealthReport &health) {
            // Flow hop: the frame's arc passes through the window's
            // host transaction, linking the session's numeric work to
            // the accelerator solve it triggers.
            ARCHYTAS_FLOW_STEP("service", "trace.frame");
            return solver_.solveWindow(problem, options, health);
        });
}

SessionStep
RobotSession::stepFrame()
{
    ARCHYTAS_ASSERT(!finished(), "stepFrame on a finished session");

    const dataset::FrameData &frame = frames_[next_frame_];
    const auto frame_index = static_cast<std::uint32_t>(next_frame_);
    ++next_frame_;

    // Causal scope: every span/counter/instant below -- including the
    // estimator phases and the host-link transaction -- is tagged with
    // (session, frame) and mirrored into the flight ring, and the flow
    // arc opened here is closed by the service's scheduling phase.
    ARCHYTAS_TRACE_SCOPE(static_cast<std::uint32_t>(ctx_.id),
                         frame_index, &flight_);
    ARCHYTAS_SPAN("session", "session.step");
    ARCHYTAS_FLOW_BEGIN("service", "trace.frame");

    SessionStep step;
    step.frame = estimator_.processFrame(frame);
    step.frame_offset_s = frame.timestamp - frames_.front().timestamp;
    if (step.frame.optimized)
        step.transaction = solver_.lastTransaction();
    results_.push_back(step.frame);

    ARCHYTAS_COUNT_ADD("session.frames", 1);
    if (step.frame.health.degraded)
        ARCHYTAS_COUNT_ADD("session.degraded_frames", 1);
    ARCHYTAS_HIST_RECORD("session.position_error",
                         step.frame.position_error);

#if ARCHYTAS_TELEMETRY_ENABLED
    // Postmortem triggers: capture the forensic ring the moment the
    // divergence watchdog trips or the hw solver falls back, while the
    // offending frame's records are still the freshest in the buffer.
    if (telemetry::enabled()) {
        if (step.frame.health.solver_diverged) {
            flight_.record(telemetry::FlightKind::Fault, "watchdog",
                           frame_index);
            dumpFlight("watchdog");
        } else if (step.frame.health.hw_fallback) {
            flight_.record(telemetry::FlightKind::Fault, "hw_fallback",
                           frame_index);
            dumpFlight("hw_fallback");
        }
    }
#endif
    return step;
}

bool
RobotSession::dumpFlight(const char *trigger,
                         const std::string &dir) const
{
#if ARCHYTAS_TELEMETRY_ENABLED
    if (!telemetry::enabled())
        return false;
    const std::string target =
        dir.empty() ? telemetry::postmortemDir() : dir;
    if (target.empty())
        return false;
    const auto frame = static_cast<std::uint32_t>(
        next_frame_ == 0 ? 0 : next_frame_ - 1);
    return flight_.writePostmortem(
        telemetry::postmortemPath(target, ctx_.label), ctx_.id,
        ctx_.label, trigger, frame);
#else
    static_cast<void>(trigger);
    static_cast<void>(dir);
    return false;
#endif
}

} // namespace archytas::service
