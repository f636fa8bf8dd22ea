#include "hw/host_interface.hh"

#include "common/logging.hh"
#include "common/telemetry.hh"

namespace archytas::hw {

const char *
transactionStatusName(TransactionStatus status)
{
    switch (status) {
      case TransactionStatus::Ok:
        return "ok";
      case TransactionStatus::RecoveredAfterRetry:
        return "recovered-after-retry";
      case TransactionStatus::DeadlineExceeded:
        return "deadline-exceeded";
    }
    return "unknown";
}

HostInterface::HostInterface(const HostLink &link) : link_(link)
{
    ARCHYTAS_ASSERT(link.bandwidth_bytes_per_s > 0.0 &&
                        link.word_bytes > 0,
                    "bad host link parameters");
    ARCHYTAS_ASSERT(link.deadline_s > 0.0 &&
                        link.backoff_initial_s >= 0.0 &&
                        link.backoff_factor >= 1.0,
                    "bad host link retry parameters");
}

HostTransaction
HostInterface::windowTransaction(const slam::WindowWorkload &workload,
                                 bool config_changed) const
{
    HostTransaction t;
    // Per feature: anchor bearing (3) + inverse depth (1); per
    // observation: pixel (2) + packed indices (1).
    t.input_words = workload.features * 4 + workload.observations * 3;
    t.config_words = config_changed ? 3 : 0;
    // Out: the state increments (15 per keyframe + 1 per feature).
    t.output_words =
        workload.keyframes * slam::kKeyframeDof + workload.features;

    const double bytes =
        static_cast<double>(t.input_words + t.config_words +
                            t.output_words) *
        static_cast<double>(link_.word_bytes);
    // Input and output are two transactions; the config rides the
    // trigger word (no extra transaction).
    t.total_seconds = bytes / link_.bandwidth_bytes_per_s +
                      2.0 * link_.transaction_overhead_s;
    return t;
}

HostTransaction
HostInterface::windowTransaction(const slam::WindowWorkload &workload,
                                 bool config_changed,
                                 std::size_t window_index,
                                 const FaultPlan &faults) const
{
    HostTransaction t = windowTransaction(workload, config_changed);
    const double nominal = t.total_seconds;
    ARCHYTAS_COUNT_ADD("host.transactions", 1);
    ARCHYTAS_COUNT_ADD("host.words",
                       t.input_words + t.config_words + t.output_words);

    // A stalled link slows every attempt of this window; a timeout
    // makes the first `count` attempts miss the deadline outright. Both
    // feed the one deadline / bounded-retry / exponential-backoff loop,
    // as does a healthy transfer slower than the deadline, so a stall
    // severe enough to blow the deadline on every attempt also exhausts
    // the budget and forces the software fallback.
    const FaultEvent *stall =
        faults.find(window_index, FaultKind::DmaStall);
    const FaultEvent *timeout =
        faults.find(window_index, FaultKind::DmaTimeout);
    const double per_attempt =
        stall != nullptr ? nominal * stall->magnitude : nominal;
    const std::size_t forced_failures =
        timeout != nullptr ? timeout->count : 0;

    double elapsed = 0.0;
    double backoff = link_.backoff_initial_s;
    t.status = TransactionStatus::DeadlineExceeded;
    t.attempts = link_.max_retries + 1;
    for (std::size_t attempt = 0; attempt <= link_.max_retries;
         ++attempt) {
        const bool fails = attempt < forced_failures ||
                           per_attempt > link_.deadline_s;
        if (!fails) {
            elapsed += per_attempt;
            t.attempts = attempt + 1;
            t.status = attempt == 0
                           ? TransactionStatus::Ok
                           : TransactionStatus::RecoveredAfterRetry;
            break;
        }
        // Abandoned at the deadline, then back off before retrying.
        elapsed += link_.deadline_s;
        if (attempt < link_.max_retries) {
            elapsed += backoff;
            backoff *= link_.backoff_factor;
        }
    }
    t.total_seconds = elapsed;

    const std::size_t misses = t.ok() ? t.attempts - 1 : t.attempts;
    if (misses > 0)
        ARCHYTAS_COUNT_ADD("host.deadline_misses", misses);
    if (t.status == TransactionStatus::RecoveredAfterRetry) {
        ARCHYTAS_COUNT_ADD("host.retries", t.attempts - 1);
        ARCHYTAS_COUNT_ADD("host.recovered_transactions", 1);
    } else if (t.status == TransactionStatus::DeadlineExceeded) {
        ARCHYTAS_COUNT_ADD("host.retries", link_.max_retries);
        ARCHYTAS_COUNT_ADD("host.timeout_transactions", 1);
    }
    return t;
}

double
HostInterface::reconfigurationSeconds() const
{
    // Three words riding the existing trigger transaction: pure
    // serialization cost.
    return 3.0 * static_cast<double>(link_.word_bytes) /
           link_.bandwidth_bytes_per_s;
}

} // namespace archytas::hw
