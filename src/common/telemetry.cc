#include "common/telemetry.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <utility>

#include "common/flight_recorder.hh"
#include "common/logging.hh"

namespace archytas::telemetry {

namespace {

/**
 * Exact sum of doubles: a fixed-point superaccumulator (after Demmel and
 * Nguyen's ReproBLAS and Collange et al.'s ExBLAS). Its 32-bit digits,
 * each held in a signed 64-bit limb, span every finite double, 2^-1074
 * up to 2^1024, with 64 bits of carry headroom. Adding a sample is exact
 * integer arithmetic, so any split of the samples across shards, folded
 * in any order, holds the same integer; value() rounds it to the
 * nearest double (ties to even) once. Infinities are tallied apart and
 * give what a running double sum gives: +inf, -inf, or NaN for both.
 */
class ExactSum
{
  public:
    void
    add(double v)
    {
        if (std::isinf(v)) {
            (v > 0.0 ? pos_inf_ : neg_inf_) = true;
            return;
        }
        const auto bits = std::bit_cast<std::uint64_t>(v);
        const auto biased = static_cast<unsigned>((bits >> 52) & 0x7ff);
        std::uint64_t m = bits & ((std::uint64_t{1} << 52) - 1);
        // v = +-m 2^(s - 1074): subnormals have s = 0 and no hidden bit.
        unsigned s = 0;
        if (biased != 0) {
            m |= std::uint64_t{1} << 52;
            s = biased - 1;
        }
        if (m == 0)
            return;
        const std::int64_t sign = (bits >> 63) != 0 ? -1 : 1;
        const unsigned limb = s / kDigitBits;
        const unsigned shift = s % kDigitBits;
        const unsigned low_bits = kDigitBits - shift;
        // m spans at most three digits from `limb` up; each limb moves by
        // less than 2^32 per sample.
        limbs_[limb] += sign * static_cast<std::int64_t>(
                                   (m & ((std::uint64_t{1} << low_bits) - 1))
                                   << shift);
        m >>= low_bits;
        limbs_[limb + 1] += sign * static_cast<std::int64_t>(m & kDigitMask);
        limbs_[limb + 2] += sign * static_cast<std::int64_t>(m >> kDigitBits);
        if (++pending_ == kNormalizeEvery)
            normalize();
    }

    /** into += *this, exactly. */
    void
    fold(ExactSum &into) const
    {
        ExactSum part = *this;
        part.normalize();
        into.normalize();
        for (std::size_t i = 0; i < kLimbs; ++i)
            into.limbs_[i] += part.limbs_[i];
        into.normalize();
        into.pos_inf_ = into.pos_inf_ || pos_inf_;
        into.neg_inf_ = into.neg_inf_ || neg_inf_;
    }

    /** The sum rounded to the nearest double, ties to even. */
    double
    value() const
    {
        if (pos_inf_ && neg_inf_)
            return std::numeric_limits<double>::quiet_NaN();
        if (pos_inf_ || neg_inf_)
            return pos_inf_ ? std::numeric_limits<double>::infinity()
                            : -std::numeric_limits<double>::infinity();
        ExactSum t = *this;
        t.normalize();
        const bool negative = t.limbs_[kLimbs - 1] < 0;
        if (negative) {
            for (std::int64_t &l : t.limbs_)
                l = -l;
            t.normalize();
        }
        // Every limb is now a digit in [0, 2^32).
        std::size_t h = kLimbs;
        while (h > 0 && t.limbs_[h - 1] == 0)
            --h;
        if (h == 0)
            return 0.0;
        --h;
        const auto digit = [&](std::size_t i) {
            return static_cast<std::uint64_t>(t.limbs_[i]);
        };
        // The 64 leading bits of the sum, and whether any bit below them
        // is set.
        const std::uint64_t a = digit(h);
        const std::uint64_t b = h >= 1 ? digit(h - 1) : 0;
        const std::uint64_t c = h >= 2 ? digit(h - 2) : 0;
        const int nb = static_cast<int>(std::bit_width(a));
        const std::uint64_t top =
            (a << (64 - nb)) | (b << (32 - nb)) | (c >> nb);
        bool sticky = (c & ((std::uint64_t{1} << nb) - 1)) != 0;
        for (std::size_t i = 0; i + 2 < h; ++i)
            sticky = sticky || t.limbs_[i] != 0;
        // Round the 64 bits to 53. A sum below 2^-1022 has at most 52
        // significant bits (every sample is a multiple of 2^-1074), so
        // it is exact here and ldexp only places it.
        std::uint64_t mant = top >> 11;
        const std::uint64_t rest = top & 0x7ff;
        if (rest > 0x400 || (rest == 0x400 && (sticky || (mant & 1) != 0)))
            ++mant;
        // top's lowest bit weighs 2^(32 (h - 2) + nb - 1074); mant's, 2^11
        // times that.
        const int exponent = 32 * (static_cast<int>(h) - 2) + nb - 1074 + 11;
        const double r = std::ldexp(static_cast<double>(mant), exponent);
        return negative ? -r : r;
    }

  private:
    static constexpr unsigned kDigitBits = 32;
    static constexpr std::uint64_t kDigitMask = 0xffffffffu;
    /** 2176 bits: 1074 below 1, 1024 above, and carry headroom. */
    static constexpr std::size_t kLimbs = 68;
    /** Adds between carry passes: each moves a limb by < 2^32, so an
     *  int64 limb cannot overflow in 2^30 of them. */
    static constexpr std::uint32_t kNormalizeEvery = 1u << 30;

    /** Carries every limb but the top into [0, 2^32). */
    void
    normalize()
    {
        for (std::size_t i = 0; i + 1 < kLimbs; ++i) {
            const std::int64_t carry = limbs_[i] >> kDigitBits;
            limbs_[i] -= carry * (std::int64_t{1} << kDigitBits);
            limbs_[i + 1] += carry;
        }
        pending_ = 0;
    }

    std::array<std::int64_t, kLimbs> limbs_{};
    std::uint32_t pending_ = 0;
    bool pos_inf_ = false;
    bool neg_inf_ = false;
};

/** Per-histogram shard state; merged by exact integer/min/max folds. */
struct HistShard
{
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t nan_count = 0;
    ExactSum sum;
    double min = 0.0;
    double max = 0.0;

    void
    record(double v)
    {
        if (std::isnan(v)) {
            ++nan_count;
            return;
        }
        ++buckets[Histogram::bucketIndex(v)];
        if (count == 0) {
            min = max = v;
        } else {
            min = std::min(min, v);
            max = std::max(max, v);
        }
        ++count;
        sum.add(v);
    }

    void
    fold(HistShard &into) const
    {
        for (std::size_t b = 0; b < kHistogramBuckets; ++b)
            into.buckets[b] += buckets[b];
        if (count > 0) {
            if (into.count == 0) {
                into.min = min;
                into.max = max;
            } else {
                into.min = std::min(into.min, min);
                into.max = std::max(into.max, max);
            }
        }
        into.count += count;
        into.nan_count += nan_count;
        sum.fold(into.sum);
    }
};

struct Shard;

/** The process-wide registry behind the public handle API. */
struct Registry
{
    std::mutex mu;
    std::atomic<bool> enabled{false};

    std::map<std::string, std::uint32_t, std::less<>> counter_ids;
    std::map<std::string, std::uint32_t, std::less<>> gauge_ids;
    std::map<std::string, std::uint32_t, std::less<>> histogram_ids;
    std::deque<Counter> counters;       // Stable handle storage.
    std::deque<Gauge> gauges;
    std::deque<Histogram> histograms;

    std::vector<double> gauge_values;
    std::vector<std::uint8_t> gauge_written;

    // Totals folded in from destroyed threads' shards.
    std::vector<std::uint64_t> retired_counters;
    std::vector<HistShard> retired_hists;
    std::vector<TraceEvent> retired_events;

    std::vector<Shard *> shards;
    std::uint32_t next_tid = 0;

    std::string postmortem_dir;   //!< Auto-dump target; empty = off.
};

Registry &
registry()
{
    // archytas-analyzer: allow(global-state) -- the process-wide metric
    // registry is observability, not results: merges are
    // order-independent integer sums, and _ms metrics are exempt from
    // the bit-identity contract (docs/OBSERVABILITY.md).
    static Registry r;
    return r;
}

/** Per-thread metric/trace buffers; no locks on the record path. */
struct Shard
{
    std::vector<std::uint64_t> counters;
    std::vector<HistShard> hists;
    std::vector<TraceEvent> events;
    std::uint32_t tid = 0;

    Shard()
    {
        Registry &r = registry();
        const std::lock_guard<std::mutex> lock(r.mu);
        tid = r.next_tid++;
        r.shards.push_back(this);
    }

    ~Shard()
    {
        Registry &r = registry();
        const std::lock_guard<std::mutex> lock(r.mu);
        foldLocked(r);
        r.shards.erase(std::remove(r.shards.begin(), r.shards.end(),
                                   this),
                       r.shards.end());
    }

    /** Folds this shard's values into the registry's retired totals. */
    void
    foldLocked(Registry &r)
    {
        if (r.retired_counters.size() < counters.size())
            r.retired_counters.resize(counters.size(), 0);
        for (std::size_t i = 0; i < counters.size(); ++i)
            r.retired_counters[i] += counters[i];
        counters.clear();
        if (r.retired_hists.size() < hists.size())
            r.retired_hists.resize(hists.size());
        for (std::size_t i = 0; i < hists.size(); ++i)
            hists[i].fold(r.retired_hists[i]);
        hists.clear();
        r.retired_events.insert(r.retired_events.end(), events.begin(),
                                events.end());
        events.clear();
    }
};

Shard &
shard()
{
    // archytas-analyzer: allow(global-state) -- per-thread metric
    // buffer: threads never share a shard, and snapshotMetrics() folds
    // shards with order-independent sums.
    static thread_local Shard s;
    return s;
}

/** The thread's active TraceContext (stack top) and whether one is
 *  installed. */
struct ContextSlot
{
    TraceContext ctx;
    bool active = false;
};

ContextSlot &
contextSlot()
{
    // archytas-analyzer: allow(global-state) -- per-thread causal
    // context: deterministically derived from (session, frame), scoped
    // with strict stack discipline, and never shared across threads.
    static thread_local ContextSlot slot;
    return slot;
}

std::int64_t
nowNs()
{
    // One shared epoch so timestamps from every thread line up.
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Where the environment-variable activation exports to at exit. */
std::string &
envExportDir()
{
    // archytas-analyzer: allow(global-state) -- export destination of
    // the atexit hook; written once during telemetry activation, read
    // once at process exit, never on a result path.
    static std::string dir;
    return dir;
}

void
exportAtExit()
{
    exportAll(envExportDir());
}

/**
 * ARCHYTAS_TELEMETRY_OUT=<dir> turns recording on at load time and
 * exports at normal process exit -- the hook test binaries (e.g. the
 * fault-recovery suite in CI) use, since they never parse argv.
 */
struct EnvActivation
{
    EnvActivation()
    {
        const char *dir = std::getenv("ARCHYTAS_TELEMETRY_OUT");
        if (dir != nullptr && *dir != '\0') {
            envExportDir() = dir;
            setEnabled(true);
            setPostmortemDir(dir);
            std::atexit(exportAtExit);
        }
    }
};

const EnvActivation env_activation;

} // namespace

bool
enabled()
{
    return registry().enabled.load(std::memory_order_relaxed);
}

void
setEnabled(bool on)
{
    registry().enabled.store(on, std::memory_order_relaxed);
}

// --------------------------------------------------------------------
// Handles
// --------------------------------------------------------------------

void
Counter::add(std::uint64_t delta)
{
    if (!enabled())
        return;
    Shard &s = shard();
    if (s.counters.size() <= id_)
        s.counters.resize(id_ + 1, 0);
    s.counters[id_] += delta;
}

void
Gauge::set(double value)
{
    if (!enabled())
        return;
    Registry &r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    if (r.gauge_values.size() <= id_) {
        r.gauge_values.resize(id_ + 1, 0.0);
        r.gauge_written.resize(id_ + 1, 0);
    }
    r.gauge_values[id_] = value;
    r.gauge_written[id_] = 1;
}

void
Histogram::record(double value)
{
    if (!enabled())
        return;
    Shard &s = shard();
    if (s.hists.size() <= id_)
        s.hists.resize(id_ + 1);
    s.hists[id_].record(value);
}

std::size_t
Histogram::bucketIndex(double value)
{
    if (!(value > 0.0))
        return 0;   // Non-positive (and NaN, though callers filter it).
    const double scaled =
        std::floor(std::log10(value) *
                   static_cast<double>(kBucketsPerDecade));
    const auto idx = static_cast<std::int64_t>(scaled) +
                     static_cast<std::int64_t>(kBucketsPerDecade) *
                         (-kHistogramMinDecade) +
                     1;
    if (idx < 1)
        return 0;   // Below 1e-9: underflow.
    if (idx >= static_cast<std::int64_t>(kHistogramBuckets) - 1)
        return kHistogramBuckets - 1;   // >= 1e12: overflow.
    return static_cast<std::size_t>(idx);
}

double
Histogram::bucketLowerBound(std::size_t index)
{
    if (index == 0)
        return 0.0;
    const auto exponent =
        (static_cast<double>(index) - 1.0) /
            static_cast<double>(kBucketsPerDecade) +
        static_cast<double>(kHistogramMinDecade);
    return std::pow(10.0, exponent);
}

namespace {

template <typename Handle>
Handle &
lookup(std::map<std::string, std::uint32_t, std::less<>> &ids,
       std::deque<Handle> &storage, std::string_view name)
{
    Registry &r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    const auto it = ids.find(name);
    if (it != ids.end())
        return storage[it->second];
    const auto id = static_cast<std::uint32_t>(storage.size());
    ids.emplace(std::string(name), id);
    storage.emplace_back(id);
    return storage.back();
}

} // namespace

Counter &
counter(std::string_view name)
{
    Registry &r = registry();
    return lookup(r.counter_ids, r.counters, name);
}

Gauge &
gauge(std::string_view name)
{
    Registry &r = registry();
    return lookup(r.gauge_ids, r.gauges, name);
}

Histogram &
histogram(std::string_view name)
{
    Registry &r = registry();
    return lookup(r.histogram_ids, r.histograms, name);
}

// --------------------------------------------------------------------
// Snapshots
// --------------------------------------------------------------------

MetricsSnapshot
snapshotMetrics()
{
    Registry &r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);

    // Merge: retired totals plus every live shard. Counters and bucket
    // counts are integer sums, so the shard order cannot matter.
    std::vector<std::uint64_t> counters = r.retired_counters;
    counters.resize(r.counters.size(), 0);
    std::vector<HistShard> hists = r.retired_hists;
    hists.resize(r.histograms.size());
    for (const Shard *s : r.shards) {
        for (std::size_t i = 0; i < s->counters.size(); ++i)
            counters[i] += s->counters[i];
        for (std::size_t i = 0; i < s->hists.size(); ++i)
            s->hists[i].fold(hists[i]);
    }

    MetricsSnapshot snap;
    for (const auto &[name, id] : r.counter_ids)
        snap.counters.push_back({name, counters[id]});
    for (const auto &[name, id] : r.gauge_ids) {
        GaugeValue g;
        g.name = name;
        if (id < r.gauge_values.size()) {
            g.value = r.gauge_values[id];
            g.written = r.gauge_written[id] != 0;
        }
        snap.gauges.push_back(std::move(g));
    }
    for (const auto &[name, id] : r.histogram_ids) {
        HistogramValue h;
        h.name = name;
        const HistShard &s = hists[id];
        h.count = s.count;
        h.nan_count = s.nan_count;
        h.sum = s.sum.value();
        h.min = s.min;
        h.max = s.max;
        h.buckets = s.buckets;
        snap.histograms.push_back(std::move(h));
    }
    // std::map iteration is already name-sorted.
    return snap;
}

double
approxPercentile(const HistogramValue &h, double p)
{
    if (h.count == 0)
        return 0.0;
    const double clamped = std::min(std::max(p, 0.0), 100.0);
    // Nearest-rank: the 1-based index of the percentile sample.
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(
               clamped / 100.0 * static_cast<double>(h.count))));
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
        const std::uint64_t n = h.buckets[b];
        if (n == 0)
            continue;
        if (cum + n >= rank) {
            const double lo = Histogram::bucketLowerBound(b);
            const double hi = b + 1 < h.buckets.size()
                                  ? Histogram::bucketLowerBound(b + 1)
                                  : h.max;
            // Samples are assumed uniform inside the bucket; place the
            // rank at its midpoint offset to avoid biasing toward the
            // bucket edges.
            const double frac = (static_cast<double>(rank - cum) - 0.5) /
                                static_cast<double>(n);
            return std::min(std::max(lo + (hi - lo) * frac, h.min),
                            h.max);
        }
        cum += n;
    }
    return h.max;
}

// --------------------------------------------------------------------
// Causal trace propagation
// --------------------------------------------------------------------

ScopedTraceContext::ScopedTraceContext(std::uint32_t session,
                                       std::uint32_t frame,
                                       FlightRecorder *recorder)
{
    ContextSlot &slot = contextSlot();
    prev_ = slot.ctx;
    had_prev_ = slot.active;
    slot.ctx = TraceContext{session, frame, recorder};
    slot.active = true;
}

ScopedTraceContext::~ScopedTraceContext()
{
    ContextSlot &slot = contextSlot();
    slot.ctx = prev_;
    slot.active = had_prev_;
}

const TraceContext *
currentTraceContext()
{
    const ContextSlot &slot = contextSlot();
    return slot.active ? &slot.ctx : nullptr;
}

namespace {

/** Stamps the active context (if any) onto a trace event. */
void
tagContext(TraceEvent &e)
{
    const TraceContext *ctx = currentTraceContext();
    if (ctx == nullptr)
        return;
    e.has_context = true;
    e.session = ctx->session;
    e.frame = ctx->frame;
    e.flow_id = ctx->flowId();
}

} // namespace

void
flow(const char *category, const char *name, FlowPhase phase)
{
    if (!enabled() || phase == FlowPhase::None)
        return;
    const TraceContext *ctx = currentTraceContext();
    if (ctx == nullptr)
        return;   // Nothing to link to.
    TraceEvent e;
    e.name = name;
    e.category = category;
    e.flow = phase;
    e.start_ns = nowNs();
    e.has_context = true;
    e.session = ctx->session;
    e.frame = ctx->frame;
    e.flow_id = ctx->flowId();
    Shard &s = shard();
    e.tid = s.tid;
    s.events.push_back(e);
}

void
flightNote(const char *name, double delta)
{
    const TraceContext *ctx = currentTraceContext();
    if (ctx == nullptr || ctx->recorder == nullptr)
        return;
    ctx->recorder->record(FlightKind::Count, name, ctx->frame, delta);
}

void
setPostmortemDir(const std::string &dir)
{
    Registry &r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.postmortem_dir = dir;
}

std::string
postmortemDir()
{
    Registry &r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    return r.postmortem_dir;
}

// --------------------------------------------------------------------
// Tracing
// --------------------------------------------------------------------

SpanGuard::SpanGuard(const char *category, const char *name)
    : category_(category), name_(name), start_ns_(0), active_(enabled())
{
    if (!active_)
        return;
    start_ns_ = nowNs();
    const TraceContext *ctx = currentTraceContext();
    if (ctx != nullptr && ctx->recorder != nullptr)
        ctx->recorder->record(FlightKind::SpanBegin, name_, ctx->frame);
}

SpanGuard::~SpanGuard()
{
    if (!active_)
        return;
    TraceEvent e;
    e.name = name_;
    e.category = category_;
    e.start_ns = start_ns_;
    e.duration_ns = nowNs() - start_ns_;
    tagContext(e);
    // Mirror the close into the flight ring with no duration: flight
    // records carry no wall-clock values (bit-identity contract).
    const TraceContext *ctx = currentTraceContext();
    if (ctx != nullptr && ctx->recorder != nullptr)
        ctx->recorder->record(FlightKind::SpanEnd, name_, ctx->frame);
    Shard &s = shard();
    e.tid = s.tid;
    s.events.push_back(e);
}

void
instant(const char *category, const char *name,
        std::initializer_list<TraceArg> args)
{
    if (!enabled())
        return;
    TraceEvent e;
    e.name = name;
    e.category = category;
    e.instant = true;
    e.start_ns = nowNs();
    for (const TraceArg &a : args) {
        if (e.arg_count >= kMaxTraceArgs)
            break;
        e.args[e.arg_count++] = a;
    }
    tagContext(e);
    const TraceContext *ctx = currentTraceContext();
    if (ctx != nullptr && ctx->recorder != nullptr) {
        ctx->recorder->record(FlightKind::Instant, name, ctx->frame,
                              e.arg_count > 0 ? e.args[0].value : 0.0);
    }
    Shard &s = shard();
    e.tid = s.tid;
    s.events.push_back(e);
}

std::vector<TraceEvent>
snapshotTrace()
{
    Registry &r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    std::vector<TraceEvent> events = r.retired_events;
    for (const Shard *s : r.shards)
        events.insert(events.end(), s->events.begin(), s->events.end());
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.start_ns != b.start_ns)
                             return a.start_ns < b.start_ns;
                         return a.tid < b.tid;
                     });
    return events;
}

// --------------------------------------------------------------------
// Export / lifecycle
// --------------------------------------------------------------------

namespace {

/** Track id: context-tagged events render on a per-session track. */
int
eventPid(const TraceEvent &e)
{
    return e.has_context ? 100 + static_cast<int>(e.session) : 1;
}

void
writeEventJson(std::ofstream &out, const TraceEvent &e)
{
    const char *ph = "X";
    if (e.flow == FlowPhase::Start)
        ph = "s";
    else if (e.flow == FlowPhase::Step)
        ph = "t";
    else if (e.flow == FlowPhase::End)
        ph = "f";
    else if (e.instant)
        ph = "i";
    out << "    {\"name\": \"" << jsonEscape(e.name) << "\", \"cat\": \""
        << jsonEscape(e.category) << "\", \"ph\": \"" << ph
        << "\", \"ts\": "
        << jsonNumber(static_cast<double>(e.start_ns) / 1e3);
    if (e.flow != FlowPhase::None) {
        char idbuf[24];
        std::snprintf(idbuf, sizeof idbuf, "0x%llx",
                      static_cast<unsigned long long>(e.flow_id));
        out << ", \"id\": \"" << idbuf << "\"";
        if (e.flow == FlowPhase::End)
            out << ", \"bp\": \"e\"";
    } else if (e.instant) {
        out << ", \"s\": \"t\"";
    } else {
        out << ", \"dur\": "
            << jsonNumber(static_cast<double>(e.duration_ns) / 1e3);
    }
    out << ", \"pid\": " << eventPid(e) << ", \"tid\": " << e.tid
        << ", \"args\": {";
    bool first = true;
    bool have_session = false;
    bool have_frame = false;
    for (std::uint32_t i = 0; i < e.arg_count; ++i) {
        const std::string_view name(e.args[i].name);
        have_session = have_session || name == "session";
        have_frame = have_frame || name == "frame";
        out << (first ? "" : ", ") << "\"" << jsonEscape(name)
            << "\": " << jsonNumber(e.args[i].value);
        first = false;
    }
    // Context tagging; explicit same-named args win (no duplicate keys).
    if (e.has_context && !have_session) {
        out << (first ? "" : ", ") << "\"session\": " << e.session;
        first = false;
    }
    if (e.has_context && !have_frame)
        out << (first ? "" : ", ") << "\"frame\": " << e.frame;
    out << "}}";
}

/** Names each per-session track (Chrome metadata, ph "M"). */
void
writeProcessNameJson(std::ofstream &out, int pid, const std::string &name)
{
    out << "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
        << pid << ", \"tid\": 0, \"args\": {\"name\": \""
        << jsonEscape(name) << "\"}}";
}

} // namespace

bool
writeChromeTrace(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    const auto events = snapshotTrace();
    std::set<std::uint32_t> sessions;
    for (const TraceEvent &e : events) {
        if (e.has_context)
            sessions.insert(e.session);
    }
    out << "{\n  \"displayTimeUnit\": \"ms\",\n"
        << "  \"otherData\": {\"schema\": \"archytas-trace-v1\"},\n"
        << "  \"traceEvents\": [\n";
    writeProcessNameJson(out, 1, "archytas");
    out << (events.empty() && sessions.empty() ? "\n" : ",\n");
    std::size_t meta_left = sessions.size();
    for (const std::uint32_t session : sessions) {
        writeProcessNameJson(out, 100 + static_cast<int>(session),
                             "session " + std::to_string(session));
        out << (--meta_left > 0 || !events.empty() ? ",\n" : "\n");
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
        writeEventJson(out, events[i]);
        out << (i + 1 < events.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    return out.good();
}

bool
writeMetricsJson(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    const MetricsSnapshot snap = snapshotMetrics();
    out << "{\n  \"schema\": \"archytas-metrics-v1\",\n  \"counters\": [\n";
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
        const auto &c = snap.counters[i];
        out << "    {\"name\": \"" << jsonEscape(c.name)
            << "\", \"value\": " << c.value << "}"
            << (i + 1 < snap.counters.size() ? ",\n" : "\n");
    }
    out << "  ],\n  \"gauges\": [\n";
    for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
        const auto &g = snap.gauges[i];
        out << "    {\"name\": \"" << jsonEscape(g.name)
            << "\", \"value\": " << jsonNumber(g.value)
            << ", \"written\": " << (g.written ? "true" : "false") << "}"
            << (i + 1 < snap.gauges.size() ? ",\n" : "\n");
    }
    out << "  ],\n  \"histograms\": [\n";
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
        const auto &h = snap.histograms[i];
        out << "    {\"name\": \"" << jsonEscape(h.name)
            << "\", \"count\": " << h.count << ", \"nan\": "
            << h.nan_count << ", \"sum\": " << jsonNumber(h.sum)
            << ", \"min\": " << jsonNumber(h.min) << ", \"max\": "
            << jsonNumber(h.max) << ", \"buckets\": [";
        bool first = true;
        for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
            if (h.buckets[b] == 0)
                continue;
            out << (first ? "" : ", ") << "{\"lo\": "
                << jsonNumber(Histogram::bucketLowerBound(b))
                << ", \"n\": " << h.buckets[b] << "}";
            first = false;
        }
        out << "]}" << (i + 1 < snap.histograms.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    return out.good();
}

bool
writeMetricsCsv(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    const MetricsSnapshot snap = snapshotMetrics();
    out << "kind,name,count,value,min,max,mean\n";
    for (const auto &c : snap.counters)
        out << "counter," << c.name << "," << c.value << "," << c.value
            << ",,,\n";
    for (const auto &g : snap.gauges) {
        if (!g.written)
            continue;
        out << "gauge," << g.name << ",1," << jsonNumber(g.value)
            << ",,,\n";
    }
    for (const auto &h : snap.histograms)
        out << "histogram," << h.name << "," << h.count << ","
            << jsonNumber(h.sum) << "," << jsonNumber(h.min) << ","
            << jsonNumber(h.max) << "," << jsonNumber(h.mean()) << "\n";
    return out.good();
}

bool
exportAll(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return false;
    const std::filesystem::path base(dir);
    return writeChromeTrace((base / "trace.json").string()) &&
           writeMetricsJson((base / "metrics.json").string()) &&
           writeMetricsCsv((base / "metrics.csv").string());
}

void
reset()
{
    Registry &r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    std::fill(r.retired_counters.begin(), r.retired_counters.end(), 0);
    r.retired_hists.assign(r.retired_hists.size(), HistShard{});
    r.retired_events.clear();
    std::fill(r.gauge_values.begin(), r.gauge_values.end(), 0.0);
    std::fill(r.gauge_written.begin(), r.gauge_written.end(), 0);
    for (Shard *s : r.shards) {
        s->counters.clear();
        s->hists.clear();
        s->events.clear();
    }
}

ScopedExport::ScopedExport(int &argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) != "--telemetry-out")
            continue;
        if (i + 1 >= argc)
            ARCHYTAS_FATAL("--telemetry-out requires a directory");
        dir_ = argv[i + 1];
        for (int j = i; j + 2 < argc; ++j)
            argv[j] = argv[j + 2];
        argc -= 2;
        break;
    }
    if (dir_.empty()) {
        const char *env = std::getenv("ARCHYTAS_TELEMETRY_OUT");
        if (env != nullptr && *env != '\0')
            dir_ = env;
    }
    if (!dir_.empty()) {
        setEnabled(true);
        if (postmortemDir().empty())
            setPostmortemDir(dir_);
    }
}

ScopedExport::~ScopedExport()
{
    if (dir_.empty())
        return;
    if (exportAll(dir_)) {
        ARCHYTAS_INFORM("telemetry: wrote ", dir_, "/trace.json, ",
                        "metrics.json, metrics.csv");
    } else {
        ARCHYTAS_WARN("telemetry: export to ", dir_, " failed");
    }
}

} // namespace archytas::telemetry
