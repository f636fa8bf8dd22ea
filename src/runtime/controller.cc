#include "runtime/controller.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/telemetry.hh"

namespace archytas::runtime {

TwoBitSaturatingCounter::TwoBitSaturatingCounter(bool initially_high)
    : state_(initially_high ? 3 : 0)
{
}

bool
TwoBitSaturatingCounter::update(bool high)
{
    if (high) {
        if (state_ < 3)
            ++state_;
    } else {
        if (state_ > 0)
            --state_;
    }
    return decision();
}

RuntimeController::RuntimeController(
    IterTable table, std::array<hw::HwConfig, kMaxIterations> configs,
    hw::HwConfig built, std::size_t initial_iter)
    : table_(std::move(table)), configs_(configs), built_(built),
      current_iter_(initial_iter)
{
    ARCHYTAS_ASSERT(initial_iter >= 1 && initial_iter <= kMaxIterations,
                    "initial Iter out of [1, ", kMaxIterations,
                    "]: ", initial_iter);
    for (const auto &c : configs_) {
        ARCHYTAS_ASSERT(c.nd >= 1 && c.nm >= 1 && c.s >= 1,
                        "invalid memoized configuration");
        ARCHYTAS_ASSERT(c.nd <= built.nd && c.nm <= built.nm &&
                            c.s <= built.s,
                        "memoized configuration exceeds the built design");
    }
}

ControllerDecision
RuntimeController::onWindow(std::size_t feature_count)
{
    // Zero-feature windows carry no signal about the workload class;
    // routing them through the table would read the feature-poor bucket
    // (max Iter) and let a sensing fault steer the hardware.
    if (feature_count == 0)
        return onDegradedWindow();

    const std::size_t proposal = table_.lookup(feature_count);
    ARCHYTAS_DCHECK(proposal >= 1 && proposal <= kMaxIterations,
                    "table proposed Iter out of range: ", proposal);

    // Debounce (Sec. 6.2): Iter is adjusted only when the proposal maps
    // to a different value in two consecutive sliding windows.
    int direction = 0;
    if (proposal > current_iter_)
        direction = 1;
    else if (proposal < current_iter_)
        direction = -1;

    ControllerDecision decision;
    if (direction != 0 && direction == pending_direction_) {
        ++pending_count_;
        if (pending_count_ >= 2) {
            current_iter_ = static_cast<std::size_t>(
                static_cast<int>(current_iter_) + direction);
            pending_count_ = 0;
            pending_direction_ = 0;
            decision.reconfigured = true;
            ++reconfigurations_;
        }
    } else {
        pending_direction_ = direction;
        pending_count_ = direction != 0 ? 1 : 0;
    }

    decision.iterations = current_iter_;
    decision.gated = currentConfig();

    ARCHYTAS_COUNT_ADD("runtime.windows", 1);
    if (decision.reconfigured)
        ARCHYTAS_COUNT_ADD("runtime.reconfigurations", 1);
    ARCHYTAS_HIST_RECORD("runtime.iter",
                         static_cast<double>(decision.iterations));
    ARCHYTAS_INSTANT("runtime", "runtime.decide",
                     {"features", static_cast<double>(feature_count)},
                     {"proposal", static_cast<double>(proposal)},
                     {"iter", static_cast<double>(decision.iterations)},
                     {"reconfigured", decision.reconfigured ? 1.0 : 0.0});
    return decision;
}

ControllerDecision
RuntimeController::onDegradedWindow()
{
    ARCHYTAS_COUNT_ADD("runtime.windows", 1);
    ARCHYTAS_COUNT_ADD("runtime.degraded_holds", 1);
    ARCHYTAS_INSTANT("runtime", "runtime.hold",
                     {"iter", static_cast<double>(std::min(
                                  current_iter_, kDegradedIterClamp))});
    ++degraded_windows_;
    // Hold: keep the gated configuration, clamp Iter for this window
    // only, and reset the debounce so consecutive degraded windows
    // cannot accumulate into a configuration change.
    pending_direction_ = 0;
    pending_count_ = 0;

    ControllerDecision decision;
    decision.iterations = std::min(current_iter_, kDegradedIterClamp);
    decision.gated = currentConfig();
    decision.held = true;
    return decision;
}

} // namespace archytas::runtime
