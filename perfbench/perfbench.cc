/**
 * @file
 * Benchmark binary (perfbench/README.md). Runs one workload -- fleet,
 * solo or design -- through the public entry points of the Archytas
 * libraries and prints its raw measurements as one JSON object on
 * standard output. perfbench/run.py turns them into metrics and checks
 * the outputs.
 *
 *     archytas_perfbench <fleet|solo|design> --seed <n> --seconds <s>
 *                        --trace <0|1>
 *
 * Two clocks appear in the output and are never mixed. Host times are
 * std::chrono::steady_clock wall time of this process. Simulated times
 * come from the accelerator timeline: the service's FrameTrace fields
 * and Accelerator::windowTiming.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/telemetry.hh"
#include "dataset/corruptor.hh"
#include "dataset/sequence.hh"
#include "hw/accelerator.hh"
#include "hw/hw_solver.hh"
#include "linalg/cholesky.hh"
#include "linalg/simd.hh"
#include "mdfg/builder.hh"
#include "runtime/controller.hh"
#include "runtime/energy.hh"
#include "runtime/offline.hh"
#include "service/service.hh"
#include "service/session.hh"
#include "slam/estimator.hh"
#include "synth/models.hh"
#include "synth/optimizer.hh"
#include "synth/platform.hh"

namespace {

using namespace archytas;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Workload shapes. Changing any of these changes the benchmark.
// ---------------------------------------------------------------------

/** fleet: sessions, their length, and the shared accelerator slots. */
constexpr std::size_t kFleetSessions = 32;
constexpr double kFleetSessionS = 4.0;
constexpr std::size_t kFleetSlots = 2;
/** Offered load per rung: nominal concurrent sessions per slot. */
constexpr std::array<double, 4> kFleetRungs = {2.0, 4.0, 8.0, 16.0};
/** Every kFleetFaultEvery-th session carries a randomized fault plan. */
constexpr std::size_t kFleetFaultEvery = 4;
/** Fleet sessions re-run as traced stacks in the traced run. */
constexpr std::size_t kFleetTracedSessions = 4;

/** solo: one feature-dense EuRoC-like session. */
constexpr double kSoloSessionS = 30.0;

/** design: profiling / held-out trace length and the Eq. 11 bound. */
constexpr double kDesignTraceS = 10.0;
constexpr double kDesignBoundMs = 4.0;
constexpr std::uint64_t kDesignProfileSeed = 77;
constexpr std::size_t kFullIterations = runtime::kMaxIterations;
/** design: set-ups timed per run (setup_s is their median). */
constexpr std::size_t kSetupRepeats = 5;

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
seconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

/** User plus system CPU time of this process. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

/** Peak resident set of this process in KiB (Linux ru_maxrss). */
double
peakRssKib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss);
}

/** splitmix64: independent sub-seeds of the workload seed. */
std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** FNV-1a over the bytes of a sequence of doubles. */
class Digest
{
  public:
    void
    add(double v)
    {
        unsigned char bytes[sizeof v];
        std::memcpy(bytes, &v, sizeof v);
        for (const unsigned char b : bytes) {
            hash_ ^= b;
            hash_ *= 0x100000001b3ULL;
        }
    }
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string
jsonNumber(double v)
{
    // JSON has no NaN/inf; run.py fails the run on a null measurement.
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Minimal JSON object builder (keys are plain identifiers). */
class JsonObject
{
  public:
    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        if (!body_.empty())
            body_ += ',';
        body_ += '"' + key + "\":" + json;
        return *this;
    }
    JsonObject &
    num(const std::string &key, double v)
    {
        return raw(key, jsonNumber(v));
    }
    JsonObject &
    str(const std::string &key, const std::string &v)
    {
        std::string quoted = "\"";
        for (const char c : v) {
            if (c == '"' || c == '\\')
                quoted += '\\';
            quoted += c;
        }
        return raw(key, quoted + '"');
    }
    JsonObject &
    flag(const std::string &key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    JsonObject &
    list(const std::string &key, const std::vector<double> &xs)
    {
        std::string json = "[";
        for (std::size_t i = 0; i < xs.size(); ++i) {
            if (i)
                json += ',';
            json += jsonNumber(xs[i]);
        }
        return raw(key, json + ']');
    }
    JsonObject &
    object(const std::string &key, const JsonObject &o)
    {
        return raw(key, o.text());
    }
    std::string text() const { return '{' + body_ + '}'; }

  private:
    std::string body_;
};

std::string
jsonArray(const std::vector<JsonObject> &items)
{
    std::string json = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i)
            json += ',';
        json += items[i].text();
    }
    return json + ']';
}

double
toD(std::size_t n)
{
    return static_cast<double>(n);
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/** The evaluation's KITTI-like trace shape (road, sparse structure). */
dataset::SequenceConfig
kittiLike(double duration_s, std::uint64_t seed)
{
    dataset::SequenceConfig cfg;
    cfg.duration = duration_s;
    cfg.landmarks = 1400;
    cfg.max_features_per_frame = 120;
    cfg.density_modulation = 0.9;
    cfg.seed = seed;
    return cfg;
}

/** The evaluation's EuRoC-like trace shape (room, feature-dense). */
dataset::SequenceConfig
eurocLike(double duration_s, std::uint64_t seed)
{
    dataset::SequenceConfig cfg;
    cfg.duration = duration_s;
    cfg.landmarks = 3000;
    cfg.max_features_per_frame = 120;
    cfg.density_modulation = 0.5;
    cfg.seed = seed;
    return cfg;
}

slam::EstimatorOptions
estimatorOptions()
{
    slam::EstimatorOptions opt;
    opt.window_size = 10;
    return opt;
}

dataset::Sequence
makeSequence(const service::SessionConfig &cfg)
{
    return cfg.euroc_like ? dataset::makeEurocLikeSequence(cfg.sequence)
                          : dataset::makeKittiLikeSequence(cfg.sequence);
}

/** Position RMSE over every frame, as the service reports it. */
double
rmseOf(const std::vector<slam::FrameResult> &results)
{
    double sq = 0.0;
    for (const slam::FrameResult &r : results)
        sq += r.position_error * r.position_error;
    return results.empty()
               ? 0.0
               : std::sqrt(sq / static_cast<double>(results.size()));
}

bool
finite(const slam::Pose &pose)
{
    return std::isfinite(pose.p.x) && std::isfinite(pose.p.y) &&
           std::isfinite(pose.p.z) && std::isfinite(pose.q.w) &&
           std::isfinite(pose.q.x) && std::isfinite(pose.q.y) &&
           std::isfinite(pose.q.z);
}

bool
allFinite(const std::vector<slam::FrameResult> &results)
{
    return std::all_of(results.begin(), results.end(),
                       [](const slam::FrameResult &r) {
                           return finite(r.estimated) &&
                                  std::isfinite(r.position_error);
                       });
}

/** Per-window simulated accelerator figures (hw layer, sim clock). */
struct WindowSamples
{
    std::vector<double> window_ms, energy_mj, features, lm_iterations;
    std::array<std::vector<double>, 5> cycles;

    void
    add(const hw::Accelerator &accel, const slam::WindowWorkload &w,
        std::size_t iterations, double watts)
    {
        const hw::WindowTiming t = accel.windowTiming(w, iterations);
        const double ms = t.totalMs(accel.constants());
        window_ms.push_back(ms);
        energy_mj.push_back(ms * watts);
        features.push_back(toD(w.features));
        lm_iterations.push_back(toD(iterations));
        cycles[0].push_back(t.jacobian_busy);
        cycles[1].push_back(t.dschur_busy);
        cycles[2].push_back(t.mschur_busy);
        cycles[3].push_back(t.cholesky_busy);
        cycles[4].push_back(t.bsub_busy);
    }

    JsonObject
    json() const
    {
        JsonObject o;
        o.list("window_ms", window_ms)
            .list("energy_mj", energy_mj)
            .list("features", features)
            .list("lm_iterations", lm_iterations)
            .list("cycles_jacobian", cycles[0])
            .list("cycles_dschur", cycles[1])
            .list("cycles_mschur", cycles[2])
            .list("cycles_cholesky", cycles[3])
            .list("cycles_bsub", cycles[4]);
        return o;
    }
};

// ---------------------------------------------------------------------
// Traced stack: per-layer host times of one estimator
// ---------------------------------------------------------------------

/**
 * Times one estimator's frames layer by layer. It wraps the window
 * solve: before forwarding to the real solver it replays the window's
 * assembly, cost evaluation, Schur reduction and Cholesky into buffers
 * of its own and times each call. The replay only reads the window, so
 * the estimator's results are unchanged, and its time is excluded from
 * the frame times recorded here.
 */
class LayerTracer
{
  public:
    explicit LayerTracer(slam::SlidingWindowEstimator::WindowSolver inner)
        : inner_(std::move(inner))
    {
    }
    // The installed solver captures this.
    LayerTracer(const LayerTracer &) = delete;
    LayerTracer &operator=(const LayerTracer &) = delete;

    void
    attach(slam::SlidingWindowEstimator &estimator)
    {
        estimator.setWindowSolver(
            [this](slam::WindowProblem &problem,
                   const slam::LmOptions &options,
                   slam::HealthReport &health) {
                return solve(problem, options, health);
            });
    }

    /** Processes one frame and records its host time minus the replay. */
    slam::FrameResult
    step(slam::SlidingWindowEstimator &estimator,
         const dataset::FrameData &frame)
    {
        replay_s_ = 0.0;
        solve_s_ = -1.0;
        const auto t0 = Clock::now();
        slam::FrameResult r = estimator.processFrame(frame);
        const double frame_s = secondsSince(t0) - replay_s_;
        traced_s_ += frame_s;
        if (r.optimized) {
            process_frame_ms_.push_back(frame_s * 1e3);
            if (solve_s_ >= 0.0)
                nonsolve_ms_.push_back((frame_s - solve_s_) * 1e3);
        }
        return r;
    }

    JsonObject
    json() const
    {
        JsonObject o;
        o.list("process_frame_ms", process_frame_ms_)
            .list("nonsolve_ms", nonsolve_ms_)
            .list("solve_ms", solve_ms_)
            .list("build_ms", build_ms_)
            .list("evaluate_cost_ms", evaluate_cost_ms_)
            .list("form_reduced_ms", form_reduced_ms_)
            .list("cholesky_ms", cholesky_ms_)
            .num("traced_s", traced_s_)
            .num("replay_s", replay_total_s_);
        return o;
    }

  private:
    slam::LmReport
    solve(slam::WindowProblem &problem, const slam::LmOptions &options,
          slam::HealthReport &health)
    {
        const auto r0 = Clock::now();
        problem.build(eq_, assembly_, slam::BuildMode::kSolve);
        const auto r1 = Clock::now();
        static_cast<void>(problem.evaluateCost());
        const auto r2 = Clock::now();
        slam::formReducedSystem(eq_, options.lambda_init, reduced_);
        const auto r3 = Clock::now();
        static_cast<void>(linalg::choleskyInto(chol_, reduced_.reduced));
        const auto r4 = Clock::now();
        const auto ms = [](Clock::time_point a, Clock::time_point b) {
            return std::chrono::duration<double, std::milli>(b - a).count();
        };
        build_ms_.push_back(ms(r0, r1));
        evaluate_cost_ms_.push_back(ms(r1, r2));
        form_reduced_ms_.push_back(ms(r2, r3));
        cholesky_ms_.push_back(ms(r3, r4));
        const double replay_s = std::chrono::duration<double>(r4 - r0).count();
        replay_s_ += replay_s;
        replay_total_s_ += replay_s;

        const auto s0 = Clock::now();
        slam::LmReport report = inner_(problem, options, health);
        solve_s_ = secondsSince(s0);
        solve_ms_.push_back(solve_s_ * 1e3);
        return report;
    }

    slam::SlidingWindowEstimator::WindowSolver inner_;
    slam::NormalEquations eq_;
    slam::AssemblyScratch assembly_;
    slam::ReducedSystem reduced_;
    linalg::Matrix chol_;
    double replay_s_ = 0.0;
    double solve_s_ = -1.0;
    double traced_s_ = 0.0;
    double replay_total_s_ = 0.0;
    std::vector<double> process_frame_ms_, nonsolve_ms_, solve_ms_,
        build_ms_, evaluate_cost_ms_, form_reduced_ms_, cholesky_ms_;
};

/**
 * The per-robot stack of a service session, assembled from public parts
 * (sequence, estimator, iteration controller, hardware window solver)
 * with the solver installed behind a LayerTracer.
 */
struct TracedSession
{
    JsonObject layers;
    double rmse_m = 0.0;
    bool finite = true;
};

TracedSession
traceSession(const service::SessionConfig &cfg)
{
    const dataset::Sequence sequence = makeSequence(cfg);
    const std::vector<dataset::FrameData> frames =
        cfg.faults.empty() ? sequence.frames()
                           : dataset::corruptFrames(sequence, cfg.faults);
    slam::SlidingWindowEstimator estimator(sequence.camera(),
                                           cfg.estimator);
    hw::HwWindowSolver solver(cfg.accel, cfg.link, cfg.faults);
    std::array<hw::HwConfig, runtime::kMaxIterations> gated;
    gated.fill(cfg.accel);
    runtime::RuntimeController controller(cfg.iter_table, gated,
                                          cfg.accel);
    if (cfg.use_runtime_controller) {
        estimator.setIterationController([&](std::size_t features) {
            return controller.onWindow(features).iterations;
        });
    }
    LayerTracer tracer([&](slam::WindowProblem &problem,
                           const slam::LmOptions &options,
                           slam::HealthReport &health) {
        return solver.solveWindow(problem, options, health);
    });
    tracer.attach(estimator);

    std::vector<slam::FrameResult> results;
    results.reserve(frames.size());
    for (const dataset::FrameData &frame : frames)
        results.push_back(tracer.step(estimator, frame));

    TracedSession out;
    out.layers = tracer.json();
    out.rmse_m = rmseOf(results);
    out.finite = allFinite(results);
    return out;
}

/** One session stepped untraced through RobotSession::stepFrame. */
struct SteppedSession
{
    std::vector<double> step_ms;   //!< Host time per optimized frame.
    double total_s = 0.0;          //!< Host time of every stepFrame.
    double rmse_m = 0.0;
    bool finite = true;
    std::size_t frames = 0, optimized = 0, degraded = 0, fallback = 0;
};

SteppedSession
stepSession(service::RobotSession &session)
{
    SteppedSession out;
    while (!session.finished()) {
        const auto t0 = Clock::now();
        const service::SessionStep step = session.stepFrame();
        const double s = secondsSince(t0);
        out.total_s += s;
        if (step.frame.optimized) {
            out.step_ms.push_back(s * 1e3);
            ++out.optimized;
        }
    }
    out.frames = session.results().size();
    out.rmse_m = rmseOf(session.results());
    out.finite = allFinite(session.results());
    for (const slam::FrameResult &r : session.results())
        out.degraded += r.health.degraded ? 1 : 0;
    out.fallback = session.solver().stats().fallback_windows;
    return out;
}

/** Untimed run through the pool, the estimator and the hardware path so
 *  the first measured call does not pay lazy set-up. */
void
warmUp(std::uint64_t seed)
{
    service::ServiceOptions options;
    options.accelerator_slots = 1;
    options.max_active_sessions = 4;
    options.seed = seed;
    service::LocalizationService svc(options);
    for (std::size_t i = 0; i < 4; ++i) {
        service::SessionConfig cfg;
        cfg.euroc_like = (i % 2) == 1;
        cfg.sequence = cfg.euroc_like
                           ? eurocLike(2.0, subSeed(seed, 900 + i))
                           : kittiLike(2.0, subSeed(seed, 900 + i));
        cfg.estimator = estimatorOptions();
        svc.addSession(cfg);
    }
    static_cast<void>(svc.run());
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

// ---------------------------------------------------------------------
// fleet
// ---------------------------------------------------------------------

std::vector<service::SessionConfig>
fleetSessions(std::uint64_t seed)
{
    FaultPlan::RandomRates rates;
    rates.dma_timeout = 0.05;
    rates.dma_stall = 0.05;
    rates.bit_flip = 0.03;
    const auto frames = static_cast<std::size_t>(
        kFleetSessionS * dataset::SequenceConfig{}.camera_rate) + 1;

    std::vector<service::SessionConfig> configs(kFleetSessions);
    for (std::size_t i = 0; i < kFleetSessions; ++i) {
        service::SessionConfig &cfg = configs[i];
        cfg.euroc_like = (i % 2) == 1;
        const std::uint64_t seq_seed = subSeed(seed, 100 + i);
        cfg.sequence = cfg.euroc_like ? eurocLike(kFleetSessionS, seq_seed)
                                      : kittiLike(kFleetSessionS, seq_seed);
        cfg.estimator = estimatorOptions();
        if (i % kFleetFaultEvery == kFleetFaultEvery - 1)
            cfg.faults = FaultPlan::randomized(subSeed(seed, 200 + i),
                                               frames, rates);
    }
    return configs;
}

/**
 * Poisson arrivals conditioned on kFleetSessions of them in a window of
 * kFleetSessions unit gaps: sorted uniform draws. Fixing the window keeps
 * every seed's offered load equal to the rung's; a rung scales the times.
 */
std::vector<double>
unitArrivals(std::uint64_t seed)
{
    Rng rng(subSeed(seed, 2));
    std::vector<double> at(kFleetSessions);
    for (double &t : at)
        t = rng.uniform(0.0, toD(kFleetSessions));
    std::sort(at.begin(), at.end());
    return at;
}

struct RungRun
{
    JsonObject detail;    //!< Traces and per-session outcomes.
    WindowSamples windows;
    std::uint64_t digest = 0;
    double setup_s = 0.0;
    double run_s = 0.0;
    std::size_t frames = 0;      //!< Frames attempted.
    std::size_t optimized = 0;   //!< Windows placed on the timeline.
};

RungRun
runRung(const std::vector<service::SessionConfig> &configs,
        const std::vector<double> &unit_arrivals, double per_slot,
        std::uint64_t seed)
{
    RungRun out;
    const double gap = kFleetSessionS / (per_slot * toD(kFleetSlots));

    const auto t0 = Clock::now();
    service::ServiceOptions options;
    options.accelerator_slots = kFleetSlots;
    options.max_active_sessions = configs.size();   // never binds
    options.seed = seed;
    service::LocalizationService svc(options);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        service::SessionConfig cfg = configs[i];
        cfg.arrival_s = unit_arrivals[i] * gap;
        svc.addSession(cfg);
    }
    out.setup_s = secondsSince(t0);

    const auto t1 = Clock::now();
    const service::ServiceReport report = svc.run();
    out.run_s = secondsSince(t1);

    Digest digest;
    std::vector<double> session, frame, available, request, wait, link,
        compute, complete, hw_solved;
    for (const service::FrameTrace &t : report.traces) {
        session.push_back(toD(t.session));
        frame.push_back(toD(t.frame));
        available.push_back(t.available_s);
        request.push_back(t.request_s);
        wait.push_back(t.admission_wait_s);
        link.push_back(t.link_s);
        compute.push_back(t.compute_s);
        complete.push_back(t.complete_s);
        hw_solved.push_back(t.hw_solved ? 1.0 : 0.0);
        for (const double v : {t.available_s, t.request_s, t.admission_wait_s,
                               t.link_s, t.compute_s, t.complete_s})
            digest.add(v);

        if (!t.hw_solved)
            continue;
        const service::RobotSession &s = svc.session(t.session);
        const slam::FrameResult &r = s.results()[t.frame];
        const hw::Accelerator &accel = s.solver().accelerator();
        out.windows.add(accel, r.workload, r.lm_report.iterations,
                        synth::PowerModel::calibrated().watts(
                            accel.config()));
    }

    std::vector<double> arrival, admit, rejected, frames, degraded, rmse,
        finite_states, windows, hw_windows, retried, fallback;
    for (const service::SessionReport &sr : report.sessions) {
        const service::RobotSession &s = svc.session(sr.id);
        arrival.push_back(sr.arrival_s);
        admit.push_back(sr.admit_s);
        rejected.push_back(sr.rejected ? 1.0 : 0.0);
        frames.push_back(toD(s.frameCount()));
        degraded.push_back(toD(sr.degraded_frames));
        rmse.push_back(sr.rmse_m);
        finite_states.push_back(allFinite(s.results()) ? 1.0 : 0.0);
        windows.push_back(toD(sr.hw.windows));
        hw_windows.push_back(toD(sr.hw.hw_windows));
        retried.push_back(toD(sr.hw.retried_windows));
        fallback.push_back(toD(sr.hw.fallback_windows));
        digest.add(sr.rmse_m);
        out.frames += s.frameCount();
    }
    out.optimized = report.traces.size();
    out.digest = digest.value();

    JsonObject traces;
    traces.list("session", session)
        .list("frame", frame)
        .list("available_s", available)
        .list("request_s", request)
        .list("slot_wait_s", wait)
        .list("link_s", link)
        .list("compute_s", compute)
        .list("complete_s", complete)
        .list("hw_solved", hw_solved);
    JsonObject sessions;
    sessions.list("arrival_s", arrival)
        .list("admit_s", admit)
        .list("rejected", rejected)
        .list("frames", frames)
        .list("degraded_frames", degraded)
        .list("rmse_m", rmse)
        .list("finite", finite_states)
        .list("windows", windows)
        .list("hw_windows", hw_windows)
        .list("retried_windows", retried)
        .list("fallback_windows", fallback);
    out.detail.num("sessions_per_slot", per_slot)
        .num("slots", toD(kFleetSlots))
        .num("makespan_s", report.makespan_s)
        .num("service_p50_ms", report.latencyPercentileMs(50))
        .num("service_p99_ms", report.latencyPercentileMs(99))
        .object("traces", traces)
        .object("sessions", sessions);
    return out;
}

void
runFleet(const Args &args, JsonObject &out)
{
    const std::vector<service::SessionConfig> configs =
        fleetSessions(args.seed);
    const std::vector<double> arrivals = unitArrivals(args.seed);
    warmUp(args.seed);

    // Measured section: the ladder once, then further rungs in ladder
    // order until the time is up. Repeats must reproduce the first
    // pass's simulated timeline bit for bit.
    const double cpu0 = cpuSeconds();
    const auto wall0 = Clock::now();
    std::vector<JsonObject> ladder, executions;
    std::vector<std::uint64_t> digests;
    WindowSamples windows;
    for (std::size_t n = 0;
         n < kFleetRungs.size() || secondsSince(wall0) < args.seconds; ++n) {
        const std::size_t k = n % kFleetRungs.size();
        RungRun run = runRung(configs, arrivals, kFleetRungs[k], args.seed);
        if (n < kFleetRungs.size()) {
            ladder.push_back(run.detail);
            digests.push_back(run.digest);
            if (n == 0)
                windows = std::move(run.windows);
        }
        JsonObject e;
        e.num("sessions_per_slot", kFleetRungs[k])
            .num("setup_s", run.setup_s)
            .num("run_s", run.run_s)
            .num("frames", toD(run.frames))
            .num("optimized_frames", toD(run.optimized))
            .flag("same_timeline", run.digest == digests[k]);
        executions.push_back(e);
    }
    const double wall_s = secondsSince(wall0);
    const double cpu_s = cpuSeconds() - cpu0;

    out.raw("ladder", jsonArray(ladder))
        .raw("executions", jsonArray(executions))
        .object("windows", windows.json())
        .num("wall_s", wall_s)
        .num("cpu_s", cpu_s);

    if (!args.trace)
        return;

    // Traced run: sequence generation on its own, then a few sessions
    // stepped untraced and as traced stacks -- one pool task per
    // session, as the service's numeric phase runs them.
    std::vector<double> sequence_ms;
    for (const service::SessionConfig &cfg : configs) {
        const auto t0 = Clock::now();
        const dataset::Sequence seq = makeSequence(cfg);
        sequence_ms.push_back(secondsSince(t0) * 1e3);
    }
    std::vector<SteppedSession> stepped(kFleetTracedSessions);
    std::vector<TracedSession> traced(kFleetTracedSessions);
    parallel::runTasks(kFleetTracedSessions, [&](std::size_t i) {
        service::RobotSession session(i, configs[i], args.seed);
        stepped[i] = stepSession(session);
    });
    parallel::runTasks(kFleetTracedSessions, [&](std::size_t i) {
        traced[i] = traceSession(configs[i]);
    });
    std::vector<JsonObject> sessions;
    for (std::size_t i = 0; i < kFleetTracedSessions; ++i) {
        JsonObject s;
        s.num("session", toD(i))
            .list("step_frame_ms", stepped[i].step_ms)
            .num("untraced_s", stepped[i].total_s)
            .num("untraced_rmse_m", stepped[i].rmse_m)
            .object("layers", traced[i].layers)
            .num("traced_rmse_m", traced[i].rmse_m)
            .flag("traced_finite", traced[i].finite);
        sessions.push_back(s);
    }
    out.list("sequence_ms", sequence_ms)
        .raw("traced_sessions", jsonArray(sessions));
}

// ---------------------------------------------------------------------
// solo
// ---------------------------------------------------------------------

service::SessionConfig
soloSession(std::uint64_t seed)
{
    service::SessionConfig cfg;
    cfg.euroc_like = true;
    cfg.sequence = eurocLike(kSoloSessionS, subSeed(seed, 300));
    cfg.estimator = estimatorOptions();
    return cfg;
}

void
runSolo(const Args &args, JsonObject &out)
{
    const service::SessionConfig cfg = soloSession(args.seed);
    warmUp(args.seed);

    // Measured section: whole passes over the session until the time is
    // up; each pass sets the session up afresh.
    const double cpu0 = cpuSeconds();
    const auto wall0 = Clock::now();
    std::vector<JsonObject> passes;
    do {
        const auto t0 = Clock::now();
        service::RobotSession session(0, cfg, args.seed);
        const double setup_s = secondsSince(t0);
        const SteppedSession run = stepSession(session);
        JsonObject p;
        p.num("setup_s", setup_s)
            .list("step_frame_ms", run.step_ms)
            .num("step_s", run.total_s)
            .num("frames", toD(run.frames))
            .num("optimized_frames", toD(run.optimized))
            .num("degraded_frames", toD(run.degraded))
            .num("fallback_windows", toD(run.fallback))
            .num("rmse_m", run.rmse_m)
            .flag("finite", run.finite);
        passes.push_back(p);
    } while (secondsSince(wall0) < args.seconds);
    const double wall_s = secondsSince(wall0);
    const double cpu_s = cpuSeconds() - cpu0;

    // Simulated timeline: the same session alone on one slot of the
    // service (no admission wait, no contention). Not timed.
    service::ServiceOptions options;
    options.accelerator_slots = 1;
    options.max_active_sessions = 1;
    options.seed = args.seed;
    service::LocalizationService svc(options);
    svc.addSession(cfg);
    const service::ServiceReport report = svc.run();
    std::vector<double> latency_ms, link_ms;
    WindowSamples windows;
    const service::RobotSession &s = svc.session(0);
    for (const service::FrameTrace &t : report.traces) {
        latency_ms.push_back(t.latency_s() * 1e3);
        link_ms.push_back(t.link_s * 1e3);
        if (!t.hw_solved)
            continue;
        const slam::FrameResult &r = s.results()[t.frame];
        const hw::Accelerator &accel = s.solver().accelerator();
        windows.add(accel, r.workload, r.lm_report.iterations,
                    synth::PowerModel::calibrated().watts(accel.config()));
    }

    out.raw("passes", jsonArray(passes))
        .num("wall_s", wall_s)
        .num("cpu_s", cpu_s)
        .list("sim_latency_ms", latency_ms)
        .list("sim_link_ms", link_ms)
        .num("service_rmse_m", report.sessions.front().rmse_m)
        .object("windows", windows.json());

    if (!args.trace)
        return;
    const auto t0 = Clock::now();
    const dataset::Sequence seq = makeSequence(cfg);
    const double sequence_ms = secondsSince(t0) * 1e3;
    const TracedSession traced = traceSession(cfg);
    out.list("sequence_ms", {sequence_ms})
        .object("layers", traced.layers)
        .num("traced_rmse_m", traced.rmse_m)
        .flag("traced_finite", traced.finite);
}

// ---------------------------------------------------------------------
// design
// ---------------------------------------------------------------------

dataset::SequenceConfig
designTrace(std::uint64_t seed)
{
    // Moderate density modulation (the Sec. 7.6 shape): a feature-starved
    // trace would pin Iter at its cap and leave nothing to gate.
    dataset::SequenceConfig cfg = kittiLike(kDesignTraceS, seed);
    cfg.landmarks = 2600;
    cfg.density_modulation = 0.5;
    return cfg;
}

JsonObject
designPoint(const std::optional<synth::DesignPoint> &p)
{
    JsonObject o;
    o.flag("feasible", p.has_value());
    if (p) {
        o.num("nd", toD(p->config.nd))
            .num("nm", toD(p->config.nm))
            .num("s", toD(p->config.s))
            .num("latency_ms", p->latency_ms)
            .num("power_w", p->power_w);
    }
    return o;
}

/** One pass of the offline flow plus its held-out evaluation. */
JsonObject
runDesignFlow(const dataset::Sequence &profile,
              const dataset::Sequence &held_out, bool trace)
{
    const slam::EstimatorOptions opts = estimatorOptions();
    JsonObject steps;
    const auto mark = [&steps](const char *name, Clock::time_point t0) {
        steps.num(name, secondsSince(t0));
    };
    std::size_t frames = 0;

    const auto flow0 = Clock::now();
    // 1. Mean workload of the profiling trace at full effort.
    auto t0 = Clock::now();
    slam::WindowWorkload mean;
    std::size_t profiled_windows = 0;
    {
        slam::SlidingWindowEstimator est(profile.camera(), opts);
        double f = 0, o = 0, k = 0, am = 0, no = 0, it = 0;
        for (const dataset::FrameData &frame : profile.frames()) {
            const slam::FrameResult r = est.processFrame(frame);
            ++frames;
            if (!r.optimized || r.workload.features == 0)
                continue;
            ++profiled_windows;
            f += toD(r.workload.features);
            o += toD(r.workload.observations);
            k += toD(r.workload.keyframes);
            am += toD(r.workload.marginalized_features);
            no += r.workload.avg_obs_per_feature;
            it += toD(r.workload.nls_iterations);
        }
        const double n = toD(std::max<std::size_t>(profiled_windows, 1));
        mean.features = static_cast<std::size_t>(f / n);
        mean.observations = static_cast<std::size_t>(o / n);
        mean.keyframes = static_cast<std::size_t>(k / n + 0.5);
        mean.marginalized_features = static_cast<std::size_t>(am / n + 0.5);
        mean.avg_obs_per_feature = no / n;
        mean.nls_iterations = static_cast<std::size_t>(it / n + 0.5);
    }
    mark("capture_s", t0);

    // 2. Iter 1..6 profiling (the software LM path at every level).
    t0 = Clock::now();
    std::vector<runtime::ProfileSample> samples =
        runtime::profileSequence(profile, opts);
    frames += kFullIterations * profile.frameCount();
    mark("profile_s", t0);

    // 3. The window's M-DFG.
    t0 = Clock::now();
    const mdfg::Graph graph = mdfg::buildWindowGraph(
        mdfg::WorkloadDims::fromWorkload(mean), kFullIterations);
    mark("window_graph_s", t0);

    // 4. Eq. 11 min-power design and the Pareto frontier.
    const synth::Synthesizer synth(
        synth::LatencyModel(mean), synth::ResourceModel::calibrated(),
        synth::PowerModel::calibrated(), synth::zc706());
    t0 = Clock::now();
    const std::optional<synth::DesignPoint> point =
        synth.minimizePower(kDesignBoundMs, kFullIterations);
    const std::size_t evaluations = synth.lastEvaluations();
    mark("min_power_s", t0);
    t0 = Clock::now();
    std::vector<double> bounds;
    for (int i = 0; i < 12; ++i)
        bounds.push_back(2.0 * std::pow(1.3, i));
    const std::vector<synth::DesignPoint> frontier =
        synth.paretoFrontier(bounds, kFullIterations);
    mark("pareto_s", t0);

    JsonObject out;
    if (!point) {
        out.object("design", designPoint(point));
        return out;
    }
    const hw::HwConfig built = point->config;

    // 5. Run-time tables (Sec. 6.2).
    t0 = Clock::now();
    const runtime::RuntimePreparation prep =
        runtime::prepareRuntimeFromSamples(std::move(samples), synth, built,
                                           kDesignBoundMs);
    mark("prepare_s", t0);

    // 6. Static vs dynamic energy on the held-out trace.
    const synth::PowerModel power = synth::PowerModel::calibrated();
    runtime::EnergyAccountant energy(built, power);
    t0 = Clock::now();
    {
        slam::EstimatorOptions static_opts = opts;
        static_opts.forced_iterations = kFullIterations;
        slam::SlidingWindowEstimator est(held_out.camera(), static_opts);
        for (const dataset::FrameData &frame : held_out.frames()) {
            const slam::FrameResult r = est.processFrame(frame);
            ++frames;
            if (r.optimized)
                energy.chargeStatic(r.workload, kFullIterations);
        }
    }
    mark("static_eval_s", t0);

    t0 = Clock::now();
    runtime::RuntimeController controller(prep.table, prep.gated_configs,
                                          built);
    std::vector<runtime::ControllerDecision> decisions;
    slam::SlidingWindowEstimator est(held_out.camera(), opts);
    est.setIterationController([&](std::size_t features) {
        decisions.push_back(controller.onWindow(features));
        return decisions.back().iterations;
    });
    // The traced run times the dynamic evaluation's frames layer by
    // layer, forwarding each window to the software LM solve.
    slam::SolverScratch scratch;
    LayerTracer tracer([&](slam::WindowProblem &problem,
                           const slam::LmOptions &options,
                           slam::HealthReport &) {
        return slam::solveWindow(problem, options, {}, scratch);
    });
    if (trace)
        tracer.attach(est);
    std::vector<slam::FrameResult> results;
    WindowSamples windows;
    double dynamic_mj = 0.0, iter_sum = 0.0;
    std::size_t degraded = 0;
    for (const dataset::FrameData &frame : held_out.frames()) {
        const std::size_t decided = decisions.size();
        results.push_back(trace ? tracer.step(est, frame)
                                : est.processFrame(frame));
        ++frames;
        const slam::FrameResult &r = results.back();
        degraded += r.health.degraded ? 1 : 0;
        if (!r.optimized || decisions.size() == decided)
            continue;
        const runtime::ControllerDecision &d = decisions.back();
        energy.chargeDynamic(r.workload, d);
        const hw::Accelerator gated(d.gated);
        windows.add(gated, r.workload, d.iterations,
                    power.gatedWatts(built, d.gated));
        dynamic_mj += windows.energy_mj.back();
        iter_sum += toD(d.iterations);
    }
    mark("dynamic_eval_s", t0);
    const double flow_s = secondsSince(flow0);

    // Checked against the pruned search, outside the timed flow.
    const std::optional<synth::DesignPoint> exhaustive =
        synth.minimizePowerExhaustive(kDesignBoundMs, kFullIterations);

    const double dyn_windows = toD(windows.window_ms.size());
    out.num("flow_s", flow_s)
        .num("frames", toD(frames))
        .num("held_out_frames", toD(held_out.frameCount()))
        .num("degraded_frames", toD(degraded))
        .object("steps", steps)
        .object("design", designPoint(point))
        .object("exhaustive", designPoint(exhaustive))
        .num("frontier_points", toD(frontier.size()))
        .num("graph_nodes", toD(graph.size()))
        .num("profiled_windows", toD(profiled_windows))
        .num("mean_features", toD(mean.features))
        .num("evaluations", toD(evaluations))
        .num("static_mj", energy.staticMj())
        .num("dynamic_mj", energy.dynamicMj())
        .num("dynamic_mj_check", dynamic_mj)
        .num("energy_saving", energy.saving())
        .num("iter_mean", dyn_windows > 0 ? iter_sum / dyn_windows : 0.0)
        .num("reconfigurations", toD(controller.reconfigurations()))
        .num("rmse_m", rmseOf(results))
        .flag("finite", allFinite(results))
        .object("windows", windows.json());
    if (trace)
        out.object("layers", tracer.json());
    return out;
}

void
runDesign(const Args &args, JsonObject &out)
{
    // The environment's calibration trace is fixed; the held-out trace the
    // designed system is evaluated on comes from the seed.
    const dataset::SequenceConfig profile_cfg =
        designTrace(kDesignProfileSeed);
    const dataset::SequenceConfig held_out_cfg =
        designTrace(subSeed(args.seed, 401));
    warmUp(args.seed);

    // Measured section: kSetupRepeats set-ups (both traces), then the
    // flow on the last ones, repeated until the time is up. A traced run
    // adds one traced flow after it.
    const double cpu0 = cpuSeconds();
    const auto wall0 = Clock::now();
    std::vector<double> setup_s, sequence_ms;
    std::optional<dataset::Sequence> profile, held_out;
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
        const auto t0 = Clock::now();
        profile.emplace(dataset::makeKittiLikeSequence(profile_cfg));
        sequence_ms.push_back(secondsSince(t0) * 1e3);
        const auto t1 = Clock::now();
        held_out.emplace(dataset::makeKittiLikeSequence(held_out_cfg));
        sequence_ms.push_back(secondsSince(t1) * 1e3);
        setup_s.push_back(secondsSince(t0));
    }
    std::vector<JsonObject> flows;
    do {
        flows.push_back(runDesignFlow(*profile, *held_out, false));
    } while (secondsSince(wall0) < args.seconds);
    const double wall_s = secondsSince(wall0);
    const double cpu_s = cpuSeconds() - cpu0;

    out.raw("flows", jsonArray(flows))
        .list("setup_s", setup_s)
        .list("sequence_ms", sequence_ms)
        .num("wall_s", wall_s)
        .num("cpu_s", cpu_s);
    if (args.trace)
        out.object("traced_flow", runDesignFlow(*profile, *held_out, true));
}

// ---------------------------------------------------------------------

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "archytas_perfbench: %s\nusage: archytas_perfbench "
                 "<fleet|solo|design> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage("missing workload");
    Args args;
    args.workload = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("flag without a value");
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value, &end);
        } else if (flag == "--trace") {
            args.trace = std::strtol(value, &end, 10) != 0;
        } else {
            usage("unknown flag");
        }
        if (end == value || *end != '\0')
            usage("malformed value");
    }
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    JsonObject out;
    out.str("workload", args.workload)
        .num("seed", static_cast<double>(args.seed))
        .num("seconds", args.seconds)
        .flag("trace", args.trace)
        .num("threads", toD(parallel::threadCount()))
        .str("simd_backend", linalg::simd::backendName(
                                 linalg::simd::activeBackend()))
        .str("compiler", __VERSION__)
#ifdef ARCHYTAS_DISABLE_CONTRACTS
        .flag("contracts", false)
#else
        .flag("contracts", true)
#endif
        .flag("telemetry_compiled", ARCHYTAS_TELEMETRY_ENABLED != 0)
        .flag("telemetry_enabled", telemetry::enabled());

    if (args.workload == "fleet")
        runFleet(args, out);
    else if (args.workload == "solo")
        runSolo(args, out);
    else if (args.workload == "design")
        runDesign(args, out);
    else
        usage("unknown workload");

    out.num("peak_rss_kib", peakRssKib());
    std::printf("%s\n", out.text().c_str());
    return 0;
}
