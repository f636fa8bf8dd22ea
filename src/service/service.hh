/**
 * @file
 * The multi-robot localization service (docs/SERVICE.md): multiplexes N
 * concurrent robot sessions over one process, one compute pool, and a
 * shared set of simulated accelerators. run() has two phases:
 *
 *  - a parallel *numeric* phase: every session that admission did not
 *    reject steps all of its frames in one parallel::runTasks task
 *    (one task per session -- the session shard), recording each step.
 *    Sessions own all their mutable state, and nested parallel regions
 *    run inline, so per-session numerics are bit-identical to a serial
 *    run at any ARCHYTAS_THREADS;
 *  - a serial *scheduling* phase: round by round, each active session's
 *    next recorded step is placed on the simulated timeline in
 *    (request time, session id) order -- admission waits, host-link
 *    transactions, accelerator-slot queueing -- producing the latency
 *    distribution. Scheduling consumes only numbers already fixed by
 *    the numeric phase, so it can never feed back into the
 *    trajectories.
 *
 * That phase split is the service's determinism contract: thread
 * interleaving can change *when* numeric work happens on the host, but
 * neither the trajectories nor the simulated timeline.
 */

#ifndef ARCHYTAS_SERVICE_SERVICE_HH
#define ARCHYTAS_SERVICE_SERVICE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/accel_pool.hh"
#include "service/session.hh"
#include "service/slo.hh"

namespace archytas::service {

/** Options of the localization service. */
struct ServiceOptions
{
    /** Simulated accelerator instances shared by all sessions. */
    std::size_t accelerator_slots = 2;
    /** Session admission cap (sessions live at once). */
    std::size_t max_active_sessions = 4;
    /** Seed for per-session RNG streams. */
    std::uint64_t seed = 2021;
    /**
     * Latency multiplier for windows solved by the software fallback
     * (no accelerator slot involved): the host CPU solve is slower than
     * the datapath by roughly this factor (docs/SERVICE.md).
     */
    double software_fallback_factor = 4.0;
    /**
     * Bounded admission waiting room: arrivals announced beyond
     * max_active_sessions + max_queued_sessions outstanding are
     * rejected (accel_pool.hh). 0 keeps the room unbounded -- the
     * pre-existing behavior.
     */
    std::size_t max_queued_sessions = 0;
    /**
     * Service-level objectives evaluated during the scheduling phase
     * (slo.hh); the default (empty) spec disables evaluation.
     */
    SloSpec slo;
    /**
     * When non-empty, every session's flight ring is dumped here at the
     * end of run() (trigger "on_demand") -- the --flight-dump path.
     * Trigger-driven dumps use telemetry::postmortemDir() regardless.
     */
    std::string flight_dump_dir;
};

/** One optimized window placed on the simulated timeline. */
struct FrameTrace
{
    std::size_t session = 0;
    std::size_t frame = 0;           //!< Frame index within the session.
    double available_s = 0.0;        //!< Frame arrival on the timeline.
    double request_s = 0.0;          //!< After the session's backlog.
    double admission_wait_s = 0.0;   //!< Accelerator-slot queueing delay.
    double link_s = 0.0;             //!< Host-link transaction time.
    double compute_s = 0.0;          //!< Window solve time.
    double complete_s = 0.0;
    bool hw_solved = false;          //!< False: software fallback.

    /** Open-loop frame latency: completion minus availability. */
    double latency_s() const { return complete_s - available_s; }
};

/** Per-session outcome. */
struct SessionReport
{
    std::size_t id = 0;
    std::string label;
    double arrival_s = 0.0;
    double admit_s = 0.0;        //!< When admission granted capacity.
    double completion_s = 0.0;   //!< Last frame's completion.
    std::size_t frames = 0;
    std::size_t degraded_frames = 0;
    double rmse_m = 0.0;         //!< Position RMSE over the trajectory.
    double max_error_m = 0.0;
    hw::HwSolveStats hw;         //!< The session's solver statistics.
    /** Turned away by the bounded waiting room; never ran a frame. */
    bool rejected = false;
};

/** Aggregate outcome of one service run. */
struct ServiceReport
{
    std::vector<SessionReport> sessions;
    std::vector<FrameTrace> traces;   //!< One per optimized window.
    double makespan_s = 0.0;          //!< Last completion on the timeline.
    /** One verdict per enabled SLO objective (slo.hh); bit-identical
     *  at any thread count -- the inputs are all simulated-timeline. */
    std::vector<SloVerdict> slo;

    /** Sessions completed per simulated second. */
    double sessionsPerSecond() const;
    /** Frame-latency percentile (exact, from the traces) in ms. */
    double latencyPercentileMs(double p) const;
    /** True when every enabled SLO objective passed (vacuously true). */
    bool sloPass() const;
};

/**
 * The service: add sessions, then run them all to completion. Both the
 * trajectories and the simulated timeline are deterministic in the
 * session configurations alone.
 */
class LocalizationService
{
  public:
    explicit LocalizationService(const ServiceOptions &options = {});

    /** Registers a session; returns its id (dense, starting at 0). */
    std::size_t addSession(const SessionConfig &config);

    std::size_t sessionCount() const { return sessions_.size(); }
    const RobotSession &session(std::size_t id) const;

    /** Runs every session to completion. Call once. */
    ServiceReport run();

  private:
    ServiceOptions options_;
    std::vector<std::unique_ptr<RobotSession>> sessions_;
    bool ran_ = false;
};

} // namespace archytas::service

#endif // ARCHYTAS_SERVICE_SERVICE_HH
