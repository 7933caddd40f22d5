#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

thread_local std::uint64_t t_openSpan = 0;

std::uint32_t
threadNumber()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t number = next.fetch_add(1);
    return number;
}

/** Length of the union of `intervals` clipped to [lo, hi]. */
double
coveredSeconds(std::vector<std::pair<double, double>> intervals,
               double lo, double hi)
{
    std::sort(intervals.begin(), intervals.end());
    double covered = 0;
    double reach = lo;
    for (auto [start, end] : intervals) {
        start = std::max(start, reach);
        end = std::min(end, hi);
        if (end > start) {
            covered += end - start;
            reach = end;
        }
    }
    return covered;
}

} // namespace

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

std::uint64_t
Tracer::begin()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

void
Tracer::end(std::uint64_t id, const char *name, double start,
            std::uint64_t parent)
{
    SpanRecord record;
    record.name = name;
    record.start = start;
    record.end = nowSeconds();
    record.id = id;
    record.parent = parent;
    record.run = run_;
    record.thread = threadNumber();
    const std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(std::move(record));
}

std::map<std::string, SpanTotals>
Tracer::totals(std::uint32_t run) const
{
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<double, double>>>
        children;
    for (const SpanRecord &r : records_) {
        if (r.run == run && r.parent != 0)
            children[r.parent].emplace_back(r.start, r.end);
    }
    std::map<std::string, SpanTotals> out;
    for (const SpanRecord &r : records_) {
        if (r.run != run)
            continue;
        SpanTotals &t = out[r.name];
        ++t.count;
        t.total += r.seconds();
        const auto it = children.find(r.id);
        t.self += r.seconds() -
                  (it == children.end()
                       ? 0.0
                       : coveredSeconds(it->second, r.start, r.end));
    }
    return out;
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     path.c_str());
        return;
    }
    double epoch = 0;
    if (!records_.empty()) {
        epoch = std::min_element(records_.begin(), records_.end(),
                                 [](const auto &a, const auto &b) {
                                     return a.start < b.start;
                                 })
                    ->start;
    }
    std::fprintf(out, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const SpanRecord &r = records_[i];
        std::fprintf(out,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu,"
                     "\"run\":%u}}",
                     i == 0 ? "" : ",", r.name.c_str(), r.thread,
                     (r.start - epoch) * 1e6, r.seconds() * 1e6,
                     static_cast<unsigned long long>(r.id),
                     static_cast<unsigned long long>(r.parent), r.run);
    }
    std::fprintf(out, "\n]}\n");
    std::fclose(out);
}

Span::Span(const char *name, std::uint64_t parent) : name_(name)
{
    Tracer &t = tracer();
    if (!t.enabled())
        return;
    id_ = t.begin();
    parent_ = parent == kCurrentParent ? t_openSpan : parent;
    outer_ = t_openSpan;
    t_openSpan = id_;
    start_ = nowSeconds();
}

Span::~Span()
{
    if (id_ == 0)
        return;
    t_openSpan = outer_;
    tracer().end(id_, name_, start_, parent_);
}

} // namespace perfbench
