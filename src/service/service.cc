#include "service/service.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/contracts.hh"
#include "common/parallel.hh"
#include "common/stats.hh"
#include "common/telemetry.hh"

namespace archytas::service {

namespace {

/** Finalizes a session's report entry when its last frame completes. */
void
finishSession(SessionReport &sr, const RobotSession &session,
              double completion_s)
{
    sr.completion_s = completion_s;
    sr.frames = session.results().size();
    double sq = 0.0;
    for (const slam::FrameResult &r : session.results()) {
        sq += r.position_error * r.position_error;
        sr.max_error_m = std::max(sr.max_error_m, r.position_error);
        if (r.health.degraded)
            ++sr.degraded_frames;
    }
    sr.rmse_m = sr.frames
                    ? std::sqrt(sq / static_cast<double>(sr.frames))
                    : 0.0;
    sr.hw = session.solver().stats();
    ARCHYTAS_COUNT_ADD("service.sessions_completed", 1);
    ARCHYTAS_INSTANT("service", "service.session_done",
                     {"session", static_cast<double>(sr.id)},
                     {"frames", static_cast<double>(sr.frames)});
}

} // namespace

double
ServiceReport::sessionsPerSecond() const
{
    if (sessions.empty() || makespan_s <= 0.0)
        return 0.0;
    return static_cast<double>(sessions.size()) / makespan_s;
}

double
ServiceReport::latencyPercentileMs(double p) const
{
    std::vector<double> ms;
    ms.reserve(traces.size());
    for (const FrameTrace &t : traces)
        ms.push_back(t.latency_s() * 1e3);
    return percentile(std::move(ms), p);
}

bool
ServiceReport::sloPass() const
{
    for (const SloVerdict &v : slo) {
        if (!v.pass())
            return false;
    }
    return true;
}

LocalizationService::LocalizationService(const ServiceOptions &options)
    : options_(options)
{
    ARCHYTAS_ASSERT(options.accelerator_slots > 0 &&
                        options.max_active_sessions > 0,
                    "bad service options");
    ARCHYTAS_ASSERT(options.software_fallback_factor >= 1.0,
                    "software fallback cannot be faster than hardware");
}

std::size_t
LocalizationService::addSession(const SessionConfig &config)
{
    ARCHYTAS_ASSERT(!ran_, "addSession after run()");
    const std::size_t id = sessions_.size();
    sessions_.push_back(
        std::make_unique<RobotSession>(id, config, options_.seed));
    return id;
}

const RobotSession &
LocalizationService::session(std::size_t id) const
{
    ARCHYTAS_CHECK_BOUNDS("LocalizationService::session", id,
                          sessions_.size());
    return *sessions_[id];
}

ServiceReport
LocalizationService::run()
{
    ARCHYTAS_ASSERT(!ran_, "LocalizationService::run called twice");
    ran_ = true;

    AdmissionController admission(options_.max_active_sessions,
                                  options_.max_queued_sessions);
    AcceleratorPool pool(options_.accelerator_slots);
    SloEngine slo_engine(options_.slo);

    ServiceReport report;
    report.sessions.resize(sessions_.size());
    for (std::size_t id = 0; id < sessions_.size(); ++id) {
        SessionReport &sr = report.sessions[id];
        sr.id = id;
        sr.label = sessions_[id]->context().label;
        sr.arrival_s = sessions_[id]->config().arrival_s;
    }

    // Announce arrivals in (arrival, id) order so the bounded waiting
    // room sees them the way the timeline would (accel_pool.hh).
    std::vector<std::size_t> announce(sessions_.size());
    for (std::size_t i = 0; i < announce.size(); ++i)
        announce[i] = i;
    std::sort(announce.begin(), announce.end(),
              [&](std::size_t a, std::size_t b) {
                  const double aa = report.sessions[a].arrival_s;
                  const double ab = report.sessions[b].arrival_s;
                  if (aa != ab)
                      return aa < ab;
                  return a < b;
              });
    for (const std::size_t id : announce) {
        SessionReport &sr = report.sessions[id];
        if (admission.enqueue(id, sr.arrival_s))
            continue;
        sr.rejected = true;
        slo_engine.recordAdmission(true);
        ARCHYTAS_COUNT_ADD("service.admission_rejects", 1);
        ARCHYTAS_INSTANT("service", "service.session_rejected",
                         {"session", static_cast<double>(id)},
                         {"arrival_s", sr.arrival_s});
#if ARCHYTAS_TELEMETRY_ENABLED
        if (telemetry::enabled()) {
            sessions_[id]->flight().record(
                telemetry::FlightKind::Fault, "admission_reject", 0);
            sessions_[id]->dumpFlight("admission_reject");
        }
#endif
    }

    // Parallel numeric phase: every session that admission did not
    // reject steps to its last frame, one pool task per session (the
    // session shard), so each session's dense buffers stay warm in one
    // core's cache from frame to frame. Rejections are decided at
    // announcement and never depend on completions, so every step
    // buffer is sized before the pool region; a rejected session's
    // stays empty and its task steps nothing. Sessions write disjoint
    // state, and nested parallel regions run inline, so the
    // trajectories cannot depend on the interleaving.
    std::vector<std::vector<SessionStep>> steps(sessions_.size());
    for (std::size_t id = 0; id < sessions_.size(); ++id) {
        if (!report.sessions[id].rejected)
            steps[id].resize(sessions_[id]->frameCount());
    }
    parallel::runTasks(sessions_.size(), [&](std::size_t id) {
        for (SessionStep &step : steps[id])
            step = sessions_[id]->stepFrame();
    });

    /** A session holding an admission token. */
    struct Active
    {
        std::size_t id = 0;
        double admit_s = 0.0;
        /** Completion of the session's previous frame (its own frames
         *  are processed in order). */
        double prev_complete_s = 0.0;
        /** The session's next frame to place on the timeline. */
        std::size_t next_frame = 0;
    };
    std::vector<Active> active;

    const auto admitAvailable = [&]() {
        while (const auto a = admission.admitNext()) {
            active.push_back({a->session, a->admit_s, a->admit_s});
            report.sessions[a->session].admit_s = a->admit_s;
            slo_engine.recordAdmission(false);
            ARCHYTAS_COUNT_ADD("service.sessions_started", 1);
            ARCHYTAS_HIST_RECORD("service.admission_wait_ms",
                                 a->wait_s() * 1e3);
            ARCHYTAS_INSTANT(
                "service", "service.session_admitted",
                {"session", static_cast<double>(a->session)},
                {"wait_ms", a->wait_s() * 1e3});
        }
    };
    admitAvailable();

    // Serial scheduling phase, round by round: each active session's
    // next recorded step is placed on the simulated timeline in
    // (request time, session id) order so slot grants are
    // deterministically fair.
    while (!active.empty()) {
        ARCHYTAS_GAUGE_SET("service.active_sessions",
                           static_cast<double>(active.size()));

        const auto stepOf = [&](std::size_t i) -> const SessionStep & {
            return steps[active[i].id][active[i].next_frame];
        };
        const auto requestTime = [&](std::size_t i) {
            return std::max(active[i].admit_s + stepOf(i).frame_offset_s,
                            active[i].prev_complete_s);
        };
        std::vector<std::size_t> order(active.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      const double ra = requestTime(a);
                      const double rb = requestTime(b);
                      if (ra != rb)
                          return ra < rb;
                      return active[a].id < active[b].id;
                  });

        for (const std::size_t i : order) {
            Active &s = active[i];
            const SessionStep &step = stepOf(i);
            RobotSession &session = *sessions_[s.id];
            const auto frame_index =
                static_cast<std::uint32_t>(s.next_frame);
            // Same causal identity the numeric phase used, so the
            // scheduling span lands on the session's track and the flow
            // arc opened in stepFrame closes here.
            ARCHYTAS_TRACE_SCOPE(static_cast<std::uint32_t>(s.id),
                                 frame_index, &session.flight());
            ARCHYTAS_SPAN("service", "service.schedule_frame");
            const double available = s.admit_s + step.frame_offset_s;
            const double request =
                std::max(available, s.prev_complete_s);
            double complete = request;

            if (step.frame.optimized) {
                // Optimized window: the host-link transaction, then the
                // solve -- on a shared accelerator slot, or on the host
                // CPU after a DeadlineExceeded fallback.
                const double link_s = step.transaction.total_seconds;
                const bool hw_solved = step.transaction.ok();
                const hw::Accelerator &accel =
                    session.solver().accelerator();
                const double compute_s =
                    accel.windowTiming(step.frame.workload,
                                       step.frame.lm_report.iterations)
                        .totalMs(accel.constants()) *
                    1e-3;

                FrameTrace trace;
                trace.session = s.id;
                trace.frame = frame_index;
                trace.available_s = available;
                trace.request_s = request;
                trace.link_s = link_s;
                trace.hw_solved = hw_solved;
                if (hw_solved) {
                    const SlotGrant grant =
                        pool.acquire(request, link_s + compute_s);
                    trace.admission_wait_s = grant.wait_s;
                    trace.compute_s = compute_s;
                    complete = grant.start_s + link_s + compute_s;
                    ARCHYTAS_INSTANT(
                        "service", "service.slot_grant",
                        {"slot", static_cast<double>(grant.slot)},
                        {"wait_ms", grant.wait_s * 1e3});
                } else {
                    // The link burned its deadline + backoff budget;
                    // the solve runs on the host CPU -- slower, but it
                    // queues for no slot.
                    trace.compute_s =
                        compute_s * options_.software_fallback_factor;
                    complete = request + link_s + trace.compute_s;
                }
                trace.complete_s = complete;
                ARCHYTAS_HIST_RECORD("service.frame_latency_ms",
                                     trace.latency_s() * 1e3);
                ARCHYTAS_HIST_RECORD("service.slot_wait_ms",
                                     trace.admission_wait_s * 1e3);
                slo_engine.recordFrame(true, trace.latency_s() * 1e3,
                                       hw_solved,
                                       step.frame.health.solver_diverged);
                report.traces.push_back(trace);
            } else {
                slo_engine.recordFrame(
                    false, 0.0, true,
                    step.frame.health.solver_diverged);
            }
            s.prev_complete_s = complete;
            ++s.next_frame;
            ARCHYTAS_COUNT_ADD("service.frames", 1);
            ARCHYTAS_FLOW_END("service", "trace.frame");
            ARCHYTAS_COUNT_ADD("trace.frames_linked", 1);
        }

        // Retire finished sessions -- releasing capacity in completion
        // order so freed tokens carry the right timestamps -- then
        // admit queued arrivals into the freed capacity.
        std::vector<Active> still;
        still.reserve(active.size());
        std::vector<std::pair<double, std::size_t>> finished;
        for (const Active &s : active) {
            if (s.next_frame == steps[s.id].size())
                finished.emplace_back(s.prev_complete_s, s.id);
            else
                still.push_back(s);
        }
        std::sort(finished.begin(), finished.end());
        for (const auto &[completion_s, id] : finished) {
            finishSession(report.sessions[id], *sessions_[id],
                          completion_s);
            admission.release(completion_s);
            report.makespan_s =
                std::max(report.makespan_s, completion_s);
        }
        active = std::move(still);
        admitAvailable();
    }

    report.slo = slo_engine.verdicts();
    slo_engine.publish();

    // On-demand dump: one bundle per session, rejected ones included
    // (their rings hold only the rejection marker).
    if (!options_.flight_dump_dir.empty()) {
        for (const auto &session : sessions_)
            session->dumpFlight("on_demand", options_.flight_dump_dir);
    }
    return report;
}

} // namespace archytas::service
