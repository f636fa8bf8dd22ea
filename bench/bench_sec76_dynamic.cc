/**
 * @file
 * Reproduces Sec. 7.6: the run-time system's energy savings. Offline, a
 * profiling trace builds the feature-count -> Iter lookup table and the
 * per-Iter gated configurations (Eq. 18). Online, the 2-bit-debounced
 * controller adjusts Iter per window and clock-gates the spare units.
 * Paper: 21.6% (KITTI) / 20.8% (EuRoC) energy saving on High-Perf,
 * 7.7% / 6.8% on Low-Power, with no meaningful accuracy loss (and the
 * reconfiguration itself is just a table lookup).
 */

#include <cstdio>

#include "bench_common.hh"
#include "runtime/energy.hh"
#include "runtime/offline.hh"

using namespace archytas;

namespace {

struct DynamicOutcome
{
    double saving_pct = 0.0;
    double static_error = 0.0;
    double dynamic_error = 0.0;
    std::size_t reconfigurations = 0;
    double avg_iters = 0.0;
};

/** Profiling artifacts shared between the designs. */
struct ProfileCache
{
    std::vector<runtime::ProfileSample> samples;
    slam::WindowWorkload mean_workload;
};

ProfileCache
profileOnce(const std::vector<const dataset::Sequence *> &profile_seqs)
{
    // Profiling over several traces of the environment class: a single
    // trace can miss the episodic low-iteration divergence the table
    // must guard against (the tail statistic only protects against what
    // profiling observed).
    const auto opts = bench::estimatorOptions();
    ProfileCache cache;
    for (const auto *seq : profile_seqs) {
        auto s = runtime::profileSequence(*seq, opts);
        cache.samples.insert(cache.samples.end(), s.begin(), s.end());
    }
    cache.mean_workload =
        bench::runTrace(*profile_seqs.front(), opts).mean_workload;
    return cache;
}

DynamicOutcome
evaluateDesign(const hw::HwConfig &built, const ProfileCache &profile,
               const dataset::Sequence &eval_seq)
{
    const auto opts = bench::estimatorOptions();

    // The deployment latency bound L*: the built design's own latency at
    // full effort on the profiling trace's mean workload.
    const hw::Accelerator built_accel(built);
    const double latency_bound =
        built_accel.windowTiming(profile.mean_workload, 6).totalMs();

    const auto synth = bench::makeSynthesizer(profile.mean_workload);
    const auto prep = runtime::prepareRuntimeFromSamples(
        profile.samples, synth, built, latency_bound);

    // --- Static run: always 6 iterations, no gating. ---
    slam::EstimatorOptions static_opts = opts;
    static_opts.forced_iterations = 6;
    slam::SlidingWindowEstimator static_est(eval_seq.camera(),
                                            static_opts);
    const auto static_results = static_est.run(eval_seq);

    // --- Dynamic run: controller picks Iter, hardware clock-gates. ---
    runtime::RuntimeController controller(prep.table, prep.gated_configs,
                                          built);
    std::vector<runtime::ControllerDecision> decisions;
    slam::SlidingWindowEstimator dyn_est(eval_seq.camera(), opts);
    dyn_est.setIterationController([&](std::size_t features) {
        const auto d = controller.onWindow(features);
        decisions.push_back(d);
        return d.iterations;
    });
    const auto dyn_results = dyn_est.run(eval_seq);

    DynamicOutcome out;
    runtime::EnergyAccountant energy(built, synth::PowerModel::calibrated());
    std::size_t di = 0;
    double iter_sum = 0.0;
    std::vector<double> static_err, dyn_err;
    for (std::size_t i = 0; i < dyn_results.size(); ++i) {
        const auto &sr = static_results[i];
        const auto &dr = dyn_results[i];
        if (!dr.optimized || !sr.optimized)
            continue;
        // Static energy: full design, full effort.
        energy.chargeStatic(sr.workload, 6);
        // Dynamic energy: gated configuration at the controller's Iter.
        const auto &d = decisions[std::min(di, decisions.size() - 1)];
        ++di;
        energy.chargeDynamic(dr.workload, d);
        iter_sum += static_cast<double>(d.iterations);
        static_err.push_back(sr.position_error);
        dyn_err.push_back(dr.position_error);
    }
    out.saving_pct = 100.0 * energy.saving();
    out.static_error = mean(static_err);
    out.dynamic_error = mean(dyn_err);
    out.reconfigurations = controller.reconfigurations();
    out.avg_iters = iter_sum / static_cast<double>(std::max<std::size_t>(
                                   di, 1));
    return out;
}

} // namespace

int
main()
{
    // Profiling and evaluation use different seeds of the same
    // environment class, mirroring the paper's deployment story. The
    // KITTI-like trace here uses moderate density modulation (the
    // Fig. 11 trace is deliberately feature-starved, which would pin
    // Iter at its cap and leave nothing to gate).
    auto kitti_cfg = bench::kittiConfig();
    kitti_cfg.landmarks = 2600;
    kitti_cfg.density_modulation = 0.5;
    auto kitti_profile_cfg = kitti_cfg;
    kitti_profile_cfg.seed = 77;
    const auto kitti_profile_a =
        dataset::makeKittiLikeSequence(kitti_profile_cfg);
    kitti_profile_cfg.seed = 79;
    const auto kitti_profile_b =
        dataset::makeKittiLikeSequence(kitti_profile_cfg);
    const auto kitti_eval = dataset::makeKittiLikeSequence(kitti_cfg);

    auto euroc_profile_cfg = bench::eurocConfig();
    euroc_profile_cfg.seed = 78;
    const auto euroc_profile_a =
        dataset::makeEurocLikeSequence(euroc_profile_cfg);
    euroc_profile_cfg.seed = 80;
    const auto euroc_profile_b =
        dataset::makeEurocLikeSequence(euroc_profile_cfg);
    const auto euroc_eval =
        dataset::makeEurocLikeSequence(bench::eurocConfig());

    Table table({"design", "dataset", "energy saving", "paper",
                 "avg Iter", "reconfigs", "err static (m)",
                 "err dynamic (m)"});
    const ProfileCache kitti_cache =
        profileOnce({&kitti_profile_a, &kitti_profile_b});
    const ProfileCache euroc_cache =
        profileOnce({&euroc_profile_a, &euroc_profile_b});

    struct Case
    {
        const char *design;
        hw::HwConfig config;
        const char *dataset;
        const ProfileCache *profile;
        const dataset::Sequence *eval;
        const char *paper;
    } cases[] = {
        {"High-Perf", synth::highPerfConfig(), "KITTI", &kitti_cache,
         &kitti_eval, "21.6%"},
        {"High-Perf", synth::highPerfConfig(), "EuRoC", &euroc_cache,
         &euroc_eval, "20.8%"},
        {"Low-Power", synth::lowPowerConfig(), "KITTI", &kitti_cache,
         &kitti_eval, "7.7%"},
        {"Low-Power", synth::lowPowerConfig(), "EuRoC", &euroc_cache,
         &euroc_eval, "6.8%"},
    };

    bool all_positive = true, accuracy_held = true;
    for (const auto &c : cases) {
        const auto out = evaluateDesign(c.config, *c.profile, *c.eval);
        table.addRow({c.design, c.dataset,
                      Table::fmt(out.saving_pct, 1) + "%", c.paper,
                      Table::fmt(out.avg_iters, 2),
                      std::to_string(out.reconfigurations),
                      Table::fmt(out.static_error, 4),
                      Table::fmt(out.dynamic_error, 4)});
        if (out.saving_pct <= 0.0)
            all_positive = false;
        // Paper: at most 0.01 cm mean degradation; allow a small
        // relative guard here.
        if (out.dynamic_error > out.static_error * 1.25 + 0.01)
            accuracy_held = false;
    }
    std::printf("%s", table.render(
        "Sec. 7.6: dynamic optimization energy savings").c_str());
    std::printf(
        "\n%s\n%s\n",
        bench::paperVsMeasured("energy saving sign",
                               "double-digit (High-Perf), single-digit "
                               "(Low-Power)",
                               all_positive ? "all savings positive"
                                            : "NEGATIVE saving observed")
            .c_str(),
        bench::paperVsMeasured(
            "accuracy impact",
            "none on KITTI; <= 0.01 cm on EuRoC (Sec. 7.6)",
            accuracy_held ? "within guard band" : "accuracy degraded")
            .c_str());
    std::printf("  run-time overhead: table lookups only (the gated\n"
                "  configs are memoized offline per Iter; Sec. 6.2)\n");
    return all_positive && accuracy_held ? 0 : 1;
}
