/**
 * @file
 * Self-driving scenario: a vehicle drives a KITTI-like route whose
 * feature density varies (urban canyons, open stretches). The example
 * deploys the full Archytas system: a statically synthesized
 * accelerator plus the run-time controller that scales the NLS
 * iteration count and clock-gates spare hardware in feature-rich
 * segments (Sec. 6). It prints a per-segment report of workload,
 * accuracy, the controller's decisions, and the energy saved.
 *
 * Run: ./build/examples/kitti_vehicle [--telemetry-out <dir>]
 */

#include <chrono>
#include <cstdio>

#include "common/telemetry.hh"
#include "dataset/sequence.hh"
#include "runtime/energy.hh"
#include "runtime/offline.hh"
#include "runtime/persistence.hh"
#include "slam/estimator.hh"
#include "synth/optimizer.hh"

using namespace archytas;

int
main(int argc, char **argv)
{
    const telemetry::ScopedExport telemetry_export(argc, argv);
    // The deployment route and a previously recorded profiling route of
    // the same environment class (Sec. 6.2's "collect and profile data
    // from the environment").
    dataset::SequenceConfig route_cfg;
    route_cfg.duration = 45.0;
    route_cfg.landmarks = 1500;
    route_cfg.density_modulation = 0.9;
    route_cfg.seed = 7;
    const auto route = dataset::makeKittiLikeSequence(route_cfg);

    dataset::SequenceConfig profile_cfg = route_cfg;
    profile_cfg.duration = 25.0;
    profile_cfg.seed = 8;
    const auto profile_route =
        dataset::makeKittiLikeSequence(profile_cfg);

    // Deploy the published High-Perf design.
    const hw::HwConfig built = synth::highPerfConfig();
    const hw::Accelerator accel(built);
    const synth::PowerModel power = synth::PowerModel::calibrated();

    // Offline: profile, build the Iter table, memoize gated configs.
    slam::EstimatorOptions opts;
    opts.window_size = 10;
    slam::SlidingWindowEstimator warmup(profile_route.camera(), opts);
    slam::WindowWorkload mean{};
    std::size_t n = 0;
    for (const auto &frame : profile_route.frames()) {
        const auto r = warmup.processFrame(frame);
        if (r.optimized && r.workload.features > 0) {
            mean.features += r.workload.features;
            mean.keyframes += r.workload.keyframes;
            mean.marginalized_features +=
                r.workload.marginalized_features;
            mean.avg_obs_per_feature += r.workload.avg_obs_per_feature;
            ++n;
        }
    }
    mean.features /= n;
    mean.keyframes /= n;
    mean.marginalized_features /= n;
    mean.avg_obs_per_feature /= static_cast<double>(n);

    const synth::Synthesizer synthesizer(
        synth::LatencyModel(mean), synth::ResourceModel::calibrated(),
        power, synth::zc706());
    const double latency_bound = accel.windowTiming(mean, 6).totalMs();
    const auto offline_prep = runtime::prepareRuntime(
        profile_route, opts, synthesizer, built, latency_bound);
    // Persist the environment's artifacts as the vehicle would, then
    // load them back for the deployment run (Sec. 6.2).
    runtime::saveRuntime(offline_prep, "kitti_runtime.txt");
    const auto prep = runtime::loadRuntime("kitti_runtime.txt");
    std::printf("offline preparation done (saved to "
                "kitti_runtime.txt):\n%s",
                prep.table.toString().c_str());

    // Online: drive the route with the controller in the loop.
    runtime::RuntimeController controller(prep.table, prep.gated_configs,
                                          built);
    slam::SlidingWindowEstimator estimator(route.camera(), opts);
    runtime::ControllerDecision last{};
    estimator.setIterationController([&](std::size_t features) {
        last = controller.onWindow(features);
        return last.iterations;
    });

    std::printf("\n%-8s %-10s %-6s %-22s %-10s %-10s\n", "t (s)",
                "features", "Iter", "gated (nd, nm, s)", "err (m)",
                "mJ/window");
    runtime::EnergyAccountant energy(built, power);
    std::size_t frames = 0;
    for (const auto &frame : route.frames()) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto r = estimator.processFrame(frame);
        const double observed_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (!r.optimized)
            continue;
        energy.chargeStatic(r.workload);
        const double dyn = energy.chargeDynamic(r.workload, last);
        const double predicted_ms =
            hw::Accelerator(last.gated)
                .windowTiming(r.workload, last.iterations)
                .totalMs();
        // Pair the controller's choice with the accelerator-model
        // prediction and the measured wall time of the window.
        ARCHYTAS_INSTANT("runtime", "runtime.latency",
                         {"iter", static_cast<double>(last.iterations)},
                         {"predicted_ms", predicted_ms},
                         {"observed_ms", observed_ms});
        if (frames++ % 40 == 0) {
            std::printf("%-8.1f %-10zu %-6zu (%zu, %zu, %zu)%-8s "
                        "%-10.3f %-10.3f\n",
                        frame.timestamp, r.workload.features,
                        last.iterations, last.gated.nd, last.gated.nm,
                        last.gated.s, "", r.position_error, dyn);
        }
    }

    std::printf("\nroute summary:\n"
                "  static accelerator energy:  %.1f mJ\n"
                "  dynamic (gated) energy:     %.1f mJ\n"
                "  saving:                     %.1f%%\n"
                "  hardware reconfigurations:  %zu (table lookups only)\n",
                energy.staticMj(), energy.dynamicMj(),
                100.0 * energy.saving(), controller.reconfigurations());
    return 0;
}
