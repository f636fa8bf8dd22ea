#include "hw/cholesky_unit.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"

namespace archytas::hw {

CholeskyUnit::CholeskyUnit(std::size_t s, const HwConstants &env)
    : s_(s), env_(env)
{
    ARCHYTAS_ASSERT(s >= 1, "need at least one Update unit");
}

double
CholeskyUnit::analyticalCycles(std::size_t m) const
{
    // Eq. 7/8: rounds of s Evaluate/Update iterations; a round ends when
    // both the Evaluate unit and an Update unit are free again. Update
    // units beyond the iteration count can never be occupied, so the
    // effective provision is clamped at m (Eq. 7 would otherwise charge
    // idle units' Evaluate slots).
    const double e = env_.evaluate_cycles;
    const std::size_t s_eff = std::max<std::size_t>(
        1, std::min(s_, std::max<std::size_t>(m, 1)));
    const double sd = static_cast<double>(s_eff);
    double total = 0.0;
    const std::size_t rounds = m / s_eff;
    for (std::size_t k = 0; k <= rounds; ++k) {
        const double mk = static_cast<double>(m) -
                          sd * static_cast<double>(k) - 1.0;
        if (mk < 0.0) {
            // Tail round with no remaining iterations.
            continue;
        }
        total += std::max(sd * e, e + mk * (mk - 1.0) / 2.0);
    }
    return total;
}

double
CholeskyUnit::simulatedCycles(std::size_t m) const
{
    // Event-driven simulation: iteration i in [0, m) first runs an
    // E-cycle Evaluate on the single Evaluate unit (serialized), then an
    // Update of duration m_i (m_i - 1) / 2 on any free Update unit,
    // where m_i = m - i - 1 rows remain to be updated.
    const double e = env_.evaluate_cycles;
    double eval_free = 0.0;
    std::vector<double> update_free(s_, 0.0);
    double makespan = 0.0;

    for (std::size_t i = 0; i < m; ++i) {
        // Earliest-free Update unit.
        auto next_unit =
            std::min_element(update_free.begin(), update_free.end());
        // The Evaluate for iteration i cannot start before the Evaluate
        // unit is free; its Update needs a free Update unit. The paper's
        // in-order pipeline stalls the Evaluate when no Update unit will
        // accept its output.
        const double eval_start = std::max(eval_free, *next_unit - e);
        const double eval_done = eval_start + e;
        eval_free = eval_done;

        const double mi = static_cast<double>(m - i - 1);
        const double update_len = mi * (mi - 1.0) / 2.0;
        const double update_start = std::max(eval_done, *next_unit);
        const double update_done = update_start + std::max(update_len, 0.0);
        *next_unit = update_done;
        makespan = std::max(makespan, update_done);
    }
    return makespan;
}

HlsCholeskyModel::HlsCholeskyModel(const HwConstants &env) : env_(env)
{
}

double
HlsCholeskyModel::cycles(std::size_t m) const
{
    // Fully serialized Evaluate then Update per iteration: the two
    // fine-grained optimizations the paper's hand design exploits
    // (Evaluate/Update pipelining, independent Update iterations) are
    // exactly what HLS missed.
    const double e = env_.evaluate_cycles;
    double total = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        const double mi = static_cast<double>(m - i - 1);
        total += e + std::max(mi * (mi - 1.0) / 2.0, 0.0);
    }
    return total;
}

double
HlsCholeskyModel::seconds(std::size_t m) const
{
    return cycles(m) / (kClockFactor * env_.clock_hz);
}

} // namespace archytas::hw
