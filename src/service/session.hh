/**
 * @file
 * One robot's localization session inside the multi-robot service
 * (docs/SERVICE.md). A RobotSession owns the complete per-robot stack --
 * dataset frames, sliding-window estimator, runtime controller, hardware
 * window solver, solver scratch, fault plan, and RNG stream, with its
 * identity in a SessionContext. Nothing in here is shared between sessions,
 * so any number of them can step concurrently on the process-wide pool
 * and still produce trajectories bit-identical to a serial run (the
 * PR-3 determinism contract extended to session granularity).
 *
 * The session's windows go through hw::HwWindowSolver::solveWindow,
 * the one host-link path: the window's transaction (status, attempts,
 * total time) is computed when the window is solved -- it is a pure
 * function of the workload and the fault plan, so it can run on a pool
 * worker -- and stepFrame hands it to the service, which places it on
 * the simulated timeline in its deterministic serial scheduling phase
 * (service.hh).
 */

#ifndef ARCHYTAS_SERVICE_SESSION_HH
#define ARCHYTAS_SERVICE_SESSION_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "common/flight_recorder.hh"
#include "common/rng.hh"
#include "dataset/sequence.hh"
#include "hw/hw_solver.hh"
#include "runtime/controller.hh"
#include "slam/estimator.hh"

namespace archytas::service {

/**
 * Per-session identity and reproducibility bundle: the RNG stream
 * (forked deterministically from the service seed and the session id)
 * is the session's private source of randomness, and the label
 * prefixes the session's log lines and per-session report entries. The
 * session's fault plan lives in its SessionConfig.
 */
struct SessionContext
{
    std::size_t id = 0;
    std::string label;   //!< Log/report prefix, e.g. "session-03".
    Rng rng{0};          //!< Private deterministic stream.
};

/** Configuration of one robot session. */
struct SessionConfig
{
    /** Label override; empty derives "session-<id>". */
    std::string name;
    /** Synthetic sequence parameters (dataset/sequence.hh). */
    dataset::SequenceConfig sequence;
    /** EuRoC-like trajectory instead of KITTI-like. */
    bool euroc_like = false;
    slam::EstimatorOptions estimator;
    /** Accelerator configuration solving this session's windows. */
    hw::HwConfig accel;
    hw::HostLink link;
    /** Fault schedule; also drives dataset::corruptFrames. */
    FaultPlan faults;
    /** Open-loop arrival time of the session (service timeline, s). */
    double arrival_s = 0.0;
    /** Install the runtime iteration controller (Sec. 6.2). */
    bool use_runtime_controller = true;
    runtime::IterTable iter_table = runtime::IterTable::alwaysMax();
};

/** One stepped frame, plus the inputs the service needs to place it on
 *  the simulated timeline. */
struct SessionStep
{
    slam::FrameResult frame;
    /** Frame availability offset from the session's first frame (s). */
    double frame_offset_s = 0.0;
    /** The window's host-link transaction; valid when
     *  frame.optimized. */
    hw::HostTransaction transaction;
};

/**
 * One robot's full localization stack. Instances are self-contained:
 * stepping two different sessions from two pool workers touches no
 * common mutable state (telemetry shards are thread-local; the pool
 * itself is the one waived process-wide singleton).
 */
class RobotSession
{
  public:
    RobotSession(std::size_t id, const SessionConfig &config,
                 std::uint64_t service_seed);

    const SessionContext &context() const { return ctx_; }
    const SessionConfig &config() const { return config_; }

    bool finished() const { return next_frame_ >= frames_.size(); }
    std::size_t frameCount() const { return frames_.size(); }

    /**
     * Processes the next frame (numeric work; safe to run on a pool
     * worker concurrently with other sessions' steps). The caller must
     * check finished() first.
     */
    SessionStep stepFrame();

    /** Trajectory so far (one entry per processed frame). */
    const std::vector<slam::FrameResult> &results() const
    {
        return results_;
    }

    const slam::SlidingWindowEstimator &estimator() const
    {
        return estimator_;
    }
    const hw::HwWindowSolver &solver() const { return solver_; }
    const runtime::RuntimeController &controller() const
    {
        return controller_;
    }

    /** The session's postmortem ring (empty while telemetry is off). */
    const telemetry::FlightRecorder &flight() const { return flight_; }
    telemetry::FlightRecorder &flight() { return flight_; }

    /**
     * Dumps the flight ring as `postmortem_<label>.json` under dir
     * (telemetry::postmortemDir() when dir is empty; no-op when both
     * are empty or telemetry is off). Returns true when a bundle was
     * written.
     */
    bool dumpFlight(const char *trigger,
                    const std::string &dir = std::string()) const;

  private:
    SessionConfig config_;
    SessionContext ctx_;
    dataset::Sequence sequence_;
    /** The frames actually fed to the estimator: the sequence's, run
     *  through dataset::corruptFrames when the plan schedules
     *  frame-level faults. */
    std::vector<dataset::FrameData> frames_;
    slam::SlidingWindowEstimator estimator_;
    hw::HwWindowSolver solver_;
    runtime::RuntimeController controller_;
    std::size_t next_frame_ = 0;
    std::vector<slam::FrameResult> results_;
    /** Postmortem ring mirroring this session's spans/counters/instants
     *  while its trace scope is active (common/flight_recorder.hh). */
    telemetry::FlightRecorder flight_;
};

} // namespace archytas::service

#endif // ARCHYTAS_SERVICE_SESSION_HH
