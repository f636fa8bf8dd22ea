#include "service/accel_pool.hh"

#include <algorithm>

#include "common/contracts.hh"

namespace archytas::service {

AcceleratorPool::AcceleratorPool(std::size_t slots) : free_at_(slots, 0.0)
{
    ARCHYTAS_ASSERT(slots > 0, "accelerator pool needs at least 1 slot");
}

SlotGrant
AcceleratorPool::acquire(double request_s, double busy_s)
{
    ARCHYTAS_DCHECK(busy_s >= 0.0, "negative busy time");
    // Earliest-free slot, lowest index on ties: min_element scans in
    // index order and keeps the first minimum, which is exactly the
    // deterministic tie-break we document.
    const auto it = std::min_element(free_at_.begin(), free_at_.end());
    const auto slot = static_cast<std::size_t>(it - free_at_.begin());
    SlotGrant grant;
    grant.slot = slot;
    grant.start_s = std::max(request_s, *it);
    grant.wait_s = grant.start_s - request_s;
    free_at_[slot] = grant.start_s + busy_s;
    return grant;
}

AdmissionController::AdmissionController(std::size_t max_active,
                                         std::size_t max_queued)
    : max_active_(max_active), max_queued_(max_queued),
      tokens_(max_active, 0.0)
{
    ARCHYTAS_ASSERT(max_active > 0,
                    "admission needs at least 1 active session");
}

bool
AdmissionController::enqueue(std::size_t session, double arrival_s)
{
    // Bounded waiting room: announcements outstanding = active sessions
    // plus the queue; the first max_active_ queued announcements are
    // covered by admission capacity, the rest occupy the room.
    if (max_queued_ > 0 &&
        active_ + queue_.size() >= max_active_ + max_queued_) {
        ++rejected_;
        return false;
    }
    Admission a;
    a.session = session;
    a.arrival_s = arrival_s;
    const auto pos = std::upper_bound(
        queue_.begin(), queue_.end(), a,
        [](const Admission &lhs, const Admission &rhs) {
            if (lhs.arrival_s != rhs.arrival_s)
                return lhs.arrival_s < rhs.arrival_s;
            return lhs.session < rhs.session;
        });
    queue_.insert(pos, a);
    return true;
}

std::optional<AdmissionController::Admission>
AdmissionController::admitNext()
{
    if (queue_.empty() || tokens_.empty())
        return std::nullopt;
    // Earliest-freed capacity token first; FIFO over arrivals.
    const auto it = std::min_element(tokens_.begin(), tokens_.end());
    Admission a = queue_.front();
    queue_.pop_front();
    a.admit_s = std::max(a.arrival_s, *it);
    tokens_.erase(it);
    ++active_;
    return a;
}

void
AdmissionController::release(double completion_s)
{
    ARCHYTAS_ASSERT(active_ > 0, "release without an active session");
    --active_;
    tokens_.push_back(completion_s);
    ARCHYTAS_DCHECK(tokens_.size() + active_ == max_active_,
                    "admission token accounting out of balance");
}

} // namespace archytas::service
