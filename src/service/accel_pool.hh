/**
 * @file
 * The shared simulated-accelerator pool and the session admission
 * controller (docs/SERVICE.md). Both are discrete-event models over the
 * service's simulated timeline: a resource is a set of capacity tokens,
 * each carrying the time it becomes free; a grant takes the
 * earliest-free token (ties broken by lowest index) and starts at
 * max(request time, token free time). Grants are issued in the order
 * the service presents requests -- sorted by (request time, session id)
 * -- so scheduling is deterministically fair: no wall-clock reads, no
 * dependence on thread interleaving, identical timelines on every run.
 */

#ifndef ARCHYTAS_SERVICE_ACCEL_POOL_HH
#define ARCHYTAS_SERVICE_ACCEL_POOL_HH

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

namespace archytas::service {

/** One granted reservation on a pool slot. */
struct SlotGrant
{
    std::size_t slot = 0;
    double start_s = 0.0;   //!< When service begins.
    double wait_s = 0.0;    //!< start - request time (queueing delay).
};

/**
 * N simulated accelerator instances shared by every session. Windows
 * queue for the earliest-free slot; the busy time of a grant is the
 * window's link + compute time, so contention surfaces as queueing
 * delay in the frame-latency distribution.
 */
class AcceleratorPool
{
  public:
    explicit AcceleratorPool(std::size_t slots);

    std::size_t slots() const { return free_at_.size(); }

    /**
     * Grants the earliest-free slot to a request arriving at request_s
     * that will occupy it for busy_s. Deterministic: ties go to the
     * lowest slot index.
     */
    SlotGrant acquire(double request_s, double busy_s);

  private:
    std::vector<double> free_at_;
};

/**
 * Session-granularity admission control: at most max_active sessions
 * are live at once; later arrivals queue FIFO (ties broken by session
 * id) and are admitted as finishing sessions return capacity.
 *
 * With max_queued > 0 the waiting room is bounded: a session announced
 * while max_active + max_queued announcements are already outstanding
 * is rejected outright (enqueue returns false). The bound is measured
 * at announcement time -- announce arrivals in (arrival, id) order --
 * which keeps rejection a pure function of the arrival schedule,
 * independent of completion times, so the timeline stays deterministic
 * (the model is conservative: it never credits capacity a completion
 * might have freed before the arrival).
 */
class AdmissionController
{
  public:
    explicit AdmissionController(std::size_t max_active,
                                 std::size_t max_queued = 0);

    /** One admission decision. */
    struct Admission
    {
        std::size_t session = 0;
        double arrival_s = 0.0;
        double admit_s = 0.0;   //!< max(arrival, capacity free time).

        double wait_s() const { return admit_s - arrival_s; }
    };

    /**
     * Queues a session arrival (kept sorted by arrival, then id).
     * Returns false -- and queues nothing -- when the bounded waiting
     * room is full (see the class comment); always true when unbounded.
     */
    bool enqueue(std::size_t session, double arrival_s);

    /**
     * Admits the head of the queue if capacity remains; consumes one
     * capacity token until the matching release(). Returns nothing when
     * the queue is empty or every token is in use.
     */
    std::optional<Admission> admitNext();

    /** Returns capacity freed by a session completing at completion_s. */
    void release(double completion_s);

    std::size_t active() const { return active_; }
    std::size_t queued() const { return queue_.size(); }
    /** Sessions turned away by the bounded waiting room. */
    std::size_t rejected() const { return rejected_; }

  private:
    std::size_t max_active_;
    std::size_t max_queued_;   //!< 0 = unbounded waiting room.
    std::size_t active_ = 0;
    std::size_t rejected_ = 0;
    /** Free capacity tokens; value = time the capacity became free. */
    std::vector<double> tokens_;
    std::deque<Admission> queue_;   //!< Sorted by (arrival_s, session).
};

} // namespace archytas::service

#endif // ARCHYTAS_SERVICE_ACCEL_POOL_HH
