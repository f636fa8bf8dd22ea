/**
 * @file
 * Integration tests: the full Archytas pipeline wired end to end on
 * short synthetic traces — estimator -> workload -> M-DFG -> scheduler
 * -> synthesizer -> accelerator -> runtime. These complement the unit
 * suites by checking that the pieces compose with consistent
 * conventions (workload statistics, latency bounds, gating caps).
 */

#include <gtest/gtest.h>

#include <string>

#include "dataset/sequence.hh"
#include "hw/hw_solver.hh"
#include "mdfg/builder.hh"
#include "mdfg/scheduler.hh"
#include "runtime/energy.hh"
#include "runtime/offline.hh"
#include "slam/estimator.hh"
#include "synth/optimizer.hh"
#include "synth/verilog.hh"

namespace archytas {
namespace {

dataset::SequenceConfig
shortKitti()
{
    dataset::SequenceConfig cfg;
    cfg.duration = 10.0;
    cfg.landmarks = 1200;
    cfg.max_features_per_frame = 80;
    cfg.density_modulation = 0.5;
    cfg.seed = 123;
    return cfg;
}

/** Raw bytes of each value in turn, so comparisons have no tolerance. */
template <typename... T>
std::string
bytes(const T &...v)
{
    std::string out;
    (out.append(reinterpret_cast<const char *>(&v), sizeof v), ...);
    return out;
}

/** Every field of a frame result, as raw bytes. */
std::string
frameBytes(const slam::FrameResult &r)
{
    std::string out;
    for (const slam::Pose &p : {r.estimated, r.ground_truth})
        out += bytes(p.q.w, p.q.x, p.q.y, p.q.z, p.p.x, p.p.y, p.p.z);
    out += bytes(r.timestamp, r.position_error, r.rotation_error);
    const slam::WindowWorkload &w = r.workload;
    out += bytes(w.keyframes, w.features, w.observations,
                 w.avg_obs_per_feature, w.marginalized_features,
                 w.nls_iterations);
    const slam::LmReport &lm = r.lm_report;
    out += bytes(lm.iterations, lm.initial_cost, lm.final_cost, lm.converged,
                 lm.cholesky_failures, lm.non_finite_cost, lm.diverged);
    for (double cost : lm.cost_history)
        out += bytes(cost);
    const slam::HealthReport &h = r.health;
    out += bytes(h.dropped_frame, h.imu_gap, h.zero_features, h.dma_degraded,
                 h.nonfinite_step, h.solver_diverged, h.hw_fallback, h.action,
                 h.degraded, r.optimized);
    return out;
}

/** Runs the estimator and returns the mean workload. */
slam::WindowWorkload
measureWorkload(const dataset::Sequence &seq,
                std::vector<slam::FrameResult> *results = nullptr)
{
    slam::EstimatorOptions opts;
    opts.window_size = 8;
    slam::SlidingWindowEstimator est(seq.camera(), opts);
    slam::WindowWorkload mean{};
    std::size_t n = 0;
    for (const auto &frame : seq.frames()) {
        const auto r = est.processFrame(frame);
        if (results)
            results->push_back(r);
        if (r.optimized && r.workload.features > 0) {
            mean.features += r.workload.features;
            mean.observations += r.workload.observations;
            mean.keyframes += r.workload.keyframes;
            mean.marginalized_features +=
                r.workload.marginalized_features;
            mean.avg_obs_per_feature += r.workload.avg_obs_per_feature;
            ++n;
        }
    }
    EXPECT_GT(n, 0u);
    mean.features /= n;
    mean.observations /= n;
    mean.keyframes /= n;
    mean.marginalized_features /= n;
    mean.avg_obs_per_feature /= static_cast<double>(n);
    mean.nls_iterations = 6;
    return mean;
}

TEST(EndToEnd, EstimatorWorkloadMatchesPaperProfile)
{
    const auto seq = dataset::makeKittiLikeSequence(shortKitti());
    const auto w = measureWorkload(seq);
    // The paper's profiling (Sec. 4.2): roughly an order of magnitude
    // more features than keyframes, and multiple observations each.
    EXPECT_GE(w.features, 3 * w.keyframes);
    EXPECT_GE(w.avg_obs_per_feature, 2.0);
    EXPECT_LE(w.avg_obs_per_feature,
              static_cast<double>(w.keyframes));
}

TEST(EndToEnd, WorkloadToSynthesizedDesignToVerilog)
{
    const auto seq = dataset::makeKittiLikeSequence(shortKitti());
    const auto w = measureWorkload(seq);

    const synth::Synthesizer synthesizer(
        synth::LatencyModel(w), synth::ResourceModel::calibrated(),
        synth::PowerModel::calibrated(), synth::zc706());
    const auto fastest = synthesizer.minimizeLatency(6);
    ASSERT_TRUE(fastest.has_value());
    const double bound = fastest->latency_ms * 2.0;
    const auto design = synthesizer.minimizePower(bound, 6);
    ASSERT_TRUE(design.has_value());
    EXPECT_LE(design->latency_ms, bound);
    EXPECT_LE(design->power_w, fastest->power_w + 1e-9);

    // The design's timing model must be self-consistent with the
    // accelerator it parameterizes.
    const hw::Accelerator accel(design->config);
    EXPECT_NEAR(accel.windowTiming(w, 6).totalMs(), design->latency_ms,
                1e-9);

    // And the emitted Verilog must carry its parameters.
    const std::string rtl = synth::emitVerilog(design->config);
    EXPECT_NE(rtl.find("ND = " + std::to_string(design->config.nd)),
              std::string::npos);
    EXPECT_NE(rtl.find("UPDATE_UNITS = " +
                       std::to_string(design->config.s)),
              std::string::npos);
}

TEST(EndToEnd, WindowGraphCoversTheScheduledBlocks)
{
    const auto seq = dataset::makeKittiLikeSequence(shortKitti());
    const auto w = measureWorkload(seq);
    const auto dims = mdfg::WorkloadDims::fromWorkload(w);
    const mdfg::Graph g = mdfg::buildWindowGraph(dims, 2);
    const mdfg::Schedule sched = mdfg::scheduleGraph(g);

    // Every template block must receive work.
    std::set<mdfg::HwBlock> seen;
    for (const auto &e : sched.entries)
        seen.insert(e.block);
    for (mdfg::HwBlock block :
         {mdfg::HwBlock::VisualJacobianUnit,
          mdfg::HwBlock::ImuJacobianUnit, mdfg::HwBlock::CholeskyUnit,
          mdfg::HwBlock::DSchurUnit, mdfg::HwBlock::PrepareAbLogic}) {
        EXPECT_TRUE(seen.count(block))
            << "no work scheduled on " << mdfg::hwBlockName(block);
    }
    // Sharing between the serialized phases must be found.
    EXPECT_FALSE(sched.shared_groups.empty());
}

TEST(EndToEnd, RuntimePipelineSavesEnergyWithoutAccuracyLoss)
{
    auto profile_cfg = shortKitti();
    profile_cfg.seed = 321;
    const auto profile_seq =
        dataset::makeKittiLikeSequence(profile_cfg);
    const auto eval_seq = dataset::makeKittiLikeSequence(shortKitti());

    slam::EstimatorOptions opts;
    opts.window_size = 8;

    const hw::HwConfig built = synth::highPerfConfig();
    const auto w = measureWorkload(profile_seq);
    const synth::Synthesizer synthesizer(
        synth::LatencyModel(w), synth::ResourceModel::calibrated(),
        synth::PowerModel::calibrated(), synth::zc706());
    const hw::Accelerator built_accel(built);
    const double bound = built_accel.windowTiming(w, 6).totalMs();

    const auto prep = runtime::prepareRuntime(profile_seq, opts,
                                              synthesizer, built, bound);

    // Every memoized config must respect the cap and meet the bound.
    for (std::size_t iter = 1; iter <= runtime::kMaxIterations; ++iter) {
        const auto &g = prep.gated_configs[iter - 1];
        EXPECT_LE(g.nd, built.nd);
        EXPECT_LE(g.nm, built.nm);
        EXPECT_LE(g.s, built.s);
        const hw::Accelerator gated(g);
        EXPECT_LE(gated.windowTiming(w, iter).totalMs(), bound * 1.001)
            << "Iter " << iter;
    }

    // Drive the evaluation trace through the controller.
    runtime::RuntimeController controller(prep.table, prep.gated_configs,
                                          built);
    slam::SlidingWindowEstimator dyn(eval_seq.camera(), opts);
    runtime::ControllerDecision last{};
    runtime::EnergyAccountant energy(built, synth::PowerModel::calibrated());
    double dyn_err = 0.0, static_err = 0.0;
    std::size_t n = 0;
    dyn.setIterationController([&](std::size_t features) {
        last = controller.onWindow(features);
        return last.iterations;
    });
    slam::EstimatorOptions full = opts;
    full.forced_iterations = 6;
    slam::SlidingWindowEstimator stat(eval_seq.camera(), full);
    for (const auto &frame : eval_seq.frames()) {
        const auto rd = dyn.processFrame(frame);
        const auto rs = stat.processFrame(frame);
        if (!rd.optimized || !rs.optimized)
            continue;
        ++n;
        energy.chargeDynamic(rd.workload, last);
        energy.chargeStatic(rs.workload, 6);
        dyn_err += rd.position_error;
        static_err += rs.position_error;
    }
    ASSERT_GT(n, 10u);
    EXPECT_LT(energy.dynamicMj(), energy.staticMj())
        << "gating must save energy";
    // Accuracy guard: within 50% of the full-effort error plus 2 cm
    // (the controller is allowed small, bounded degradation).
    EXPECT_LT(dyn_err / n, static_err / n * 1.5 + 0.02);
}

TEST(EndToEnd, AcceleratorSolvesTheRealWindowProblemExactly)
{
    // The accelerator's functional path is the software solve: a trace
    // run with the hardware window solver attached (clean link, no
    // faults) must reproduce the software estimator frame by frame, bit
    // for bit.
    const auto seq = dataset::makeKittiLikeSequence(shortKitti());
    slam::EstimatorOptions opts;
    opts.window_size = 8;
    slam::SlidingWindowEstimator software(seq.camera(), opts);
    slam::SlidingWindowEstimator hardware(seq.camera(), opts);
    hw::HwWindowSolver solver(synth::highPerfConfig());
    solver.attach(hardware);

    const auto expected = software.run(seq);
    const auto actual = hardware.run(seq);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i)
        EXPECT_EQ(frameBytes(actual[i]), frameBytes(expected[i]))
            << "frame " << i;
    EXPECT_GT(solver.stats().hw_windows, 10u);
    EXPECT_EQ(solver.stats().hw_windows, solver.stats().windows);
}

} // namespace
} // namespace archytas
