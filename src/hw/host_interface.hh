/**
 * @file
 * Host-FPGA interface model (Sec. 6.2 / Sec. 7.1): "The FPGA is
 * triggered by the host for each sliding window. The host passes to the
 * FPGA the visual features from the sensing front-end as well as the
 * three customization parameters if they are different from the
 * previous sliding window." This module models that per-window
 * transaction — input DMA, the three-word gating configuration, the
 * trigger, and the result DMA — so the end-to-end latency can include
 * the transfer cost and the run-time system's claim of "effectively no
 * overhead" is checkable rather than assumed.
 *
 * Every attempt of a transaction is held to a deadline, with a bounded
 * exponential-backoff retry budget, so an injected DMA timeout or link
 * stall (common/fault.hh) -- or a link too slow for the window --
 * degrades the window's latency instead of hanging the loop; when the
 * budget is exhausted the caller falls back to the software solver.
 * hw::HwWindowSolver::solveWindow runs one transaction per window (see
 * hw/hw_solver.hh and docs/ROBUSTNESS.md).
 */

#ifndef ARCHYTAS_HW_HOST_INTERFACE_HH
#define ARCHYTAS_HW_HOST_INTERFACE_HH

#include "common/fault.hh"
#include "hw/config.hh"
#include "slam/state.hh"

namespace archytas::hw {

/** Bus/link characteristics between host and fabric. */
struct HostLink
{
    /** Sustained DMA bandwidth (bytes per second); AXI HP-port class. */
    double bandwidth_bytes_per_s = 1.2e9;
    /** Fixed per-transaction latency (s): driver + interrupt. */
    double transaction_overhead_s = 4e-6;
    /** Word size on the link (bytes). */
    std::size_t word_bytes = 4;
    /**
     * Per-attempt completion deadline (s). An attempt that has not
     * completed by the deadline is abandoned and retried; the deadline
     * bounds how long a wedged link can stall the localization loop.
     */
    double deadline_s = 2e-3;
    /** Retry budget after the first attempt. */
    std::size_t max_retries = 3;
    /** Backoff before the first retry (s); grows by backoff_factor. */
    double backoff_initial_s = 50e-6;
    double backoff_factor = 2.0;
};

/** How a window's host-FPGA exchange concluded. */
enum class TransactionStatus
{
    Ok,                    //!< First attempt met the deadline.
    RecoveredAfterRetry,   //!< Succeeded after one or more retries.
    DeadlineExceeded,      //!< Retry budget exhausted; the caller must
                           //!< fall back to the software solver.
};

/** Human-readable status name (for logs and HealthReports). */
const char *transactionStatusName(TransactionStatus status);

/** One window's transfer accounting. */
struct HostTransaction
{
    std::size_t input_words = 0;    //!< Features + observations in.
    std::size_t config_words = 0;   //!< 0 or 3 (nd, nm, s).
    std::size_t output_words = 0;   //!< State increments out.
    /** Wall time including abandoned attempts and backoff waits. */
    double total_seconds = 0.0;
    TransactionStatus status = TransactionStatus::Ok;
    std::size_t attempts = 1;       //!< DMA attempts consumed.

    /** True unless the retry budget was exhausted. */
    bool ok() const { return status != TransactionStatus::DeadlineExceeded; }

    double
    totalMs() const
    {
        return total_seconds * 1e3;
    }
};

/** Models the per-window host-FPGA exchange. */
class HostInterface
{
  public:
    explicit HostInterface(const HostLink &link = {});

    /**
     * Accounts one window's transaction on a healthy link.
     *
     * @param workload      The window's feature/observation counts.
     * @param config_changed True when the gated (nd, nm, s) differs
     *                      from the previous window (Sec. 6.2: the
     *                      triple is only sent on change).
     */
    [[nodiscard]] HostTransaction
    windowTransaction(const slam::WindowWorkload &workload,
                      bool config_changed) const;

    /**
     * The transaction as the link runs it: applies any DmaTimeout /
     * DmaStall event the plan schedules for this window, and abandons
     * and retries, with exponential backoff, every attempt that misses
     * the deadline -- a healthy transfer slower than deadline_s
     * included. Deterministic in the plan.
     *
     * @param window_index  Sliding-window index used to query the plan.
     * @param faults        Fault schedule (an empty plan injects
     *                      nothing; a transfer that meets the deadline
     *                      then matches the 2-arg overload).
     */
    [[nodiscard]] HostTransaction
    windowTransaction(const slam::WindowWorkload &workload,
                      bool config_changed, std::size_t window_index,
                      const FaultPlan &faults) const;

    /**
     * The reconfiguration cost in isolation: what the run-time system
     * adds to a window when it changes the configuration. The paper's
     * "little to none overhead" claim equals this being negligible next
     * to the window's compute latency.
     */
    double reconfigurationSeconds() const;

    const HostLink &link() const { return link_; }

  private:
    HostLink link_;
};

} // namespace archytas::hw

#endif // ARCHYTAS_HW_HOST_INTERFACE_HH
