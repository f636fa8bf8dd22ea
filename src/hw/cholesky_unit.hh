/**
 * @file
 * The customizable Cholesky decomposition block (Sec. 4.3): one Evaluate
 * unit feeding s time-multiplexed Update units (Fig. 9). Provides
 *
 *  - the paper's closed-form latency model (Eq. 7/8),
 *  - a cycle-level simulation of the round-based execution timeline
 *    (Fig. 10), used to validate the closed form, and
 *  - the degraded HLS comparison model (Sec. 7.5): the same datapath
 *    without Evaluate/Update pipelining at a 30% lower clock.
 *
 * The factorization itself is linalg::choleskyInto, run inside the one
 * solve path (slam::solveBlockedSystem); this block models its timing.
 */

#ifndef ARCHYTAS_HW_CHOLESKY_UNIT_HH
#define ARCHYTAS_HW_CHOLESKY_UNIT_HH

#include "hw/config.hh"

namespace archytas::hw {

/** Latency model of the Cholesky block. */
class CholeskyUnit
{
  public:
    /**
     * @param s    Number of Update units.
     * @param env  Fixed micro-architectural constants.
     */
    explicit CholeskyUnit(std::size_t s, const HwConstants &env = {});

    std::size_t updateUnits() const { return s_; }

    /** Closed-form cycle count for an m x m input (Eq. 7/8). */
    double analyticalCycles(std::size_t m) const;

    /**
     * Cycle-level simulation of the Evaluate/Update timeline: one
     * Evaluate unit serializes the per-iteration Evaluates (E cycles
     * each); iteration i's Update (duration m_i (m_i - 1) / 2 cycles)
     * starts when its Evaluate finished and an Update unit is free.
     * Returns the makespan in cycles.
     */
    double simulatedCycles(std::size_t m) const;

  private:
    std::size_t s_;
    HwConstants env_;
};

/**
 * Vivado-HLS-style Cholesky (Sec. 7.5 "HLS Comparison"): no pipeline
 * overlap between Evaluate and Update, no parallel Update units, and a
 * 30% lower achievable clock. The paper measured 16.4x slowdown against
 * the optimized unit.
 */
class HlsCholeskyModel
{
  public:
    explicit HlsCholeskyModel(const HwConstants &env = {});

    /** Serialized cycles: sum over iterations of (E + update_i). */
    double cycles(std::size_t m) const;

    /** Wall-clock seconds at the degraded (0.7x) clock. */
    double seconds(std::size_t m) const;

    /** Resource multiplier vs. the optimized unit (paper: ~2x). */
    static constexpr double kResourceMultiplier = 2.0;
    /** Clock degradation factor (paper: 30% lower). */
    static constexpr double kClockFactor = 0.7;

  private:
    HwConstants env_;
};

} // namespace archytas::hw

#endif // ARCHYTAS_HW_CHOLESKY_UNIT_HH
