/**
 * @file
 * Microbenchmarks of the computational kernels every experiment rests
 * on: dense multiply, Cholesky, the D-type Schur elimination, the
 * compacted S-matrix matvec, the MDFG window-graph build, the
 * synthesizer search, and the window normal-equation assembly. These
 * quantify the *host-side* costs of the framework (the accelerator
 * itself is modelled in cycles). Runs on the bench::BenchHarness (warmup
 * + median-of-reps); `--json <path>` emits the records for the CI
 * perf-smoke step.
 */

#include <memory>
#include <string>

#include "bench_common.hh"
#include "common/rng.hh"
#include "linalg/cholesky.hh"
#include "linalg/kernels.hh"
#include "linalg/schur.hh"
#include "linalg/simd.hh"
#include "linalg/smatrix.hh"
#include "mdfg/builder.hh"
#include "slam/window_problem.hh"

using namespace archytas;

namespace {

/**
 * Derived throughput metrics: GFLOP/s and effective GB/s from the
 * analytic flop/byte counts of one repetition. "Effective bytes" counts
 * each operand array once (compulsory traffic), so the number reads as
 * achieved streaming bandwidth, not cache traffic.
 */
void
rateMetrics(bench::BenchHarness &h, const std::string &name, double ms,
            double flops, double bytes)
{
    if (ms <= 0.0)
        return;
    h.metric(name + ".gflops", flops / (ms * 1e6));
    h.metric(name + ".gbytes_per_s", bytes / (ms * 1e6));
}

linalg::Matrix
randomMatrix(std::size_t rows, std::size_t cols, Rng &rng)
{
    linalg::Matrix a(rows, cols);
    for (auto &x : a.data())
        x = rng.uniform(-1, 1);
    return a;
}

linalg::Matrix
randomSpd(std::size_t n, Rng &rng)
{
    const linalg::Matrix a = randomMatrix(n, n, rng);
    linalg::Matrix spd = a.transposed() * a;
    for (std::size_t i = 0; i < n; ++i)
        spd(i, i) += static_cast<double>(n);
    return spd;
}

void
benchLinalg(bench::BenchHarness &h, double &sink)
{
    Rng rng(1);
    const std::size_t n = 150;
    const linalg::Matrix a = randomMatrix(n, n, rng);
    const linalg::Matrix b = randomMatrix(n, n, rng);
    linalg::Matrix out;
    const double nd = static_cast<double>(n);
    double ms = h.run("multiply_into_150", [&] {
        linalg::multiplyInto(out, a, b);
        sink += out(0, 0);
    });
    rateMetrics(h, "multiply_into_150", ms, 2.0 * nd * nd * nd,
                3.0 * nd * nd * 8.0);

    const linalg::Matrix spd = randomSpd(n, rng);
    ms = h.run("cholesky_150", [&] {
        const auto l = linalg::cholesky(spd);
        sink += l ? (*l)(0, 0) : 0.0;
    });
    rateMetrics(h, "cholesky_150", ms, nd * nd * nd / 3.0,
                2.0 * nd * nd * 8.0);

    // D-type Schur elimination: 100 features against a 150-dim keyframe
    // block (the shapes of a 10-keyframe window).
    const std::size_t p = 100, q = 150;
    linalg::Matrix u(p, p);
    for (std::size_t i = 0; i < p; ++i)
        u(i, i) = rng.uniform(1.0, 3.0);
    linalg::Matrix w(q, p);
    for (auto &x : w.data())
        x = rng.uniform(-0.3, 0.3);
    const linalg::Matrix v = randomSpd(q, rng);
    linalg::Vector bx(p), by(q);
    const double pd = static_cast<double>(p);
    const double qd = static_cast<double>(q);
    ms = h.run("dschur_100x150", [&] {
        const auto r = linalg::dSchur(u, w, v, bx, by);
        sink += r.reduced(0, 0);
    });
    // Column scaling + symmetric rank-k (one triangle, 2 flops/madd) +
    // the reduced-rhs matvec.
    rateMetrics(h, "dschur_100x150", ms,
                qd * pd + qd * qd * pd + 2.0 * qd * pd,
                (2.0 * qd * pd + 2.0 * qd * qd) * 8.0);

    linalg::CompactSMatrix s(15, 15);
    for (std::size_t i = 0; i < 15; ++i) {
        linalg::Matrix diag(15, 15);
        for (auto &x : diag.data())
            x = rng.uniform(-1, 1);
        s.setImuDiagBlock(i, diag);
    }
    linalg::Vector x(s.dim());
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = rng.uniform(-1, 1);
    h.run("compact_smatvec_15", [&] { sink += s.apply(x)[0]; });
}

void
benchMdfgAndSynth(bench::BenchHarness &h, double &sink)
{
    mdfg::WorkloadDims dims;
    dims.features = 100;
    dims.keyframes = 10;
    dims.marginalized = 12;
    h.run("mdfg_window_graph_iter6", [&] {
        sink += static_cast<double>(
            mdfg::buildWindowGraph(dims, 6).size());
    });

    slam::WindowWorkload w;
    w.keyframes = 10;
    w.features = 100;
    w.avg_obs_per_feature = 4.0;
    w.marginalized_features = 12;
    const auto synth = bench::makeSynthesizer(w);
    h.run("synth_min_power", [&] {
        const auto p = synth.minimizePower(1.0, 6);
        sink += p ? p->power_w : 0.0;
    });
}

/** A synthetic 10-keyframe window, sized like a dense KITTI window. */
struct BenchWindow
{
    slam::PinholeCamera camera;
    std::vector<slam::KeyframeState> keyframes;
    std::vector<slam::Feature> features;
    std::vector<std::shared_ptr<slam::ImuPreintegration>> preints;
    slam::PriorFactor prior;
};

BenchWindow
makeBenchWindow(std::size_t n_keyframes, std::size_t n_landmarks, Rng &rng)
{
    BenchWindow w;
    for (std::size_t i = 0; i < n_keyframes; ++i) {
        slam::KeyframeState s;
        s.pose.p = slam::Vec3{0.3 * static_cast<double>(i), 0.0, 0.0};
        s.timestamp = 0.1 * static_cast<double>(i);
        w.keyframes.push_back(s);
    }
    // No IMU stream: the bench isolates the visual-factor accumulation,
    // which dominates the assembly cost.
    w.preints.resize(n_keyframes - 1);

    for (std::size_t l = 0; l < n_landmarks; ++l) {
        const slam::Vec3 lm{rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0),
                            rng.uniform(6.0, 18.0)};
        slam::Feature f;
        f.track_id = l;
        f.anchor_index = 0;
        const slam::Vec3 pc0 = w.keyframes[0].pose.inverseTransform(lm);
        f.anchor_bearing = slam::Vec3{pc0.x / pc0.z, pc0.y / pc0.z, 1.0};
        f.inverse_depth = 1.0 / pc0.z;
        f.depth_initialized = true;
        for (std::size_t i = 0; i < n_keyframes; ++i) {
            const slam::Vec3 pc =
                w.keyframes[i].pose.inverseTransform(lm);
            const auto px = w.camera.project(pc);
            if (px)
                f.observations.push_back({i, *px});
        }
        w.features.push_back(std::move(f));
    }
    return w;
}

/**
 * Window normal-equation assembly. The build is serial, so the pool
 * size does not enter it; the `_t1` name is kept so records stay
 * comparable across commits.
 */
void
benchWindowAssembly(bench::BenchHarness &h, double &sink)
{
    Rng rng(7);
    BenchWindow w = makeBenchWindow(10, 600, rng);
    slam::WindowProblem problem(w.camera, w.keyframes, w.features,
                                w.preints, w.prior, /*pixel_sigma=*/1.0);
    // The steady-state solver path: a scratch-reusing build.
    slam::NormalEquations eq;
    slam::AssemblyScratch scratch;
    const double obs =
        static_cast<double>(problem.observationCount());
    const double ms = h.run("window_assembly_t1", [&] {
        problem.build(eq, scratch, slam::BuildMode::kSolve);
        sink += eq.cost;
    });
    if (ms > 0.0)
        h.metric("window_assembly_obs_per_ms", obs / ms);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchHarness h(argc, argv);
    // Which kernel backend this run measured (0 = scalar, 1 = avx2);
    // CI runs the suite once per backend and archives both JSONs.
    h.metric("kernels.backend",
             static_cast<double>(linalg::simd::activeBackend()));
    // Folding a token of every result into the sink keeps the compiler
    // from discarding the benchmarked work.
    double sink = 0.0;
    benchLinalg(h, sink);
    benchMdfgAndSynth(h, sink);
    benchWindowAssembly(h, sink);
    const int rc = h.finish("Host-side kernel microbenchmarks");
    return (sink == sink) ? rc : 2;   // sink != sink only on NaN poison.
}
