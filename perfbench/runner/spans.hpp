/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A Span brackets one call the benchmark makes into a simulator
 * module.  Spans record name, start, end, parent span and run id;
 * they stay in memory and are written once, at the end, as Chrome
 * trace events.  With tracing off a Span costs one branch.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Host seconds since an arbitrary steady epoch. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct SpanRecord
{
    std::string name;
    double start = 0; ///< nowSeconds() at entry
    double end = 0;   ///< nowSeconds() at exit
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint32_t run = 0;    ///< pass index the span belongs to
    std::uint32_t thread = 0; ///< small per-thread number

    double seconds() const { return end - start; }
};

/** Per-name totals of one set of spans. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double total = 0; ///< summed durations
    double self = 0;  ///< summed durations minus child coverage
};

class Tracer
{
  public:
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    void setRun(std::uint32_t run) { run_ = run; }

    std::uint64_t begin();
    void end(std::uint64_t id, const char *name, double start,
             std::uint64_t parent);

    /** Spans recorded so far (call once the workload is quiescent). */
    const std::vector<SpanRecord> &records() const { return records_; }

    /** Totals per span name over the spans of `run`. */
    std::map<std::string, SpanTotals>
    totals(std::uint32_t run) const;

    /** Write every span as a Chrome trace-event JSON file. */
    void writeChromeTrace(const std::string &path) const;

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<std::uint32_t> run_{0};
    std::mutex mutex_; ///< guards records_ and nextId_
    std::vector<SpanRecord> records_;
    std::uint64_t nextId_ = 1;
};

/** The process-wide recorder (off until main enables it). */
Tracer &tracer();

/** Parent marker: use the calling thread's innermost open span. */
inline constexpr std::uint64_t kCurrentParent = ~std::uint64_t{0};

/**
 * RAII span.  Pass `parent` explicitly for work running on another
 * thread than the span that caused it (pool tasks).
 */
class Span
{
  public:
    explicit Span(const char *name,
                  std::uint64_t parent = kCurrentParent);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id (0 with tracing off). */
    std::uint64_t id() const { return id_; }

  private:
    const char *name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t outer_ = 0; ///< thread's open span before this one
    double start_ = 0;
};

} // namespace perfbench
