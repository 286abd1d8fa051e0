/**
 * @file
 * The benchmark's own spans: name, start, end, parent span and request
 * id, recorded around calls into the library's public functions. They
 * are kept in memory on the generator thread and written once, when
 * the run ends, as Chrome/Perfetto trace-event JSON (one complete "X"
 * event per span; parent and request id travel as args).
 */

#ifndef PERFBENCH_SPAN_LOG_HPP
#define PERFBENCH_SPAN_LOG_HPP

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** In-memory span recorder; a disabled log records nothing. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
        int parent = -1;        //!< index of the enclosing span, -1: none
        uint64_t requestId = 0; //!< 0: not a request span
    };

    SpanLog(bool enabled, Clock::time_point origin)
        : enabled_(enabled), origin_(origin)
    {
    }

    bool enabled() const { return enabled_; }

    /** Record a finished span; returns its index (-1 when disabled). */
    int add(std::string name, Clock::time_point start, Clock::time_point end,
            int parent = -1, uint64_t request_id = 0)
    {
        if (!enabled_)
            return -1;
        spans_.push_back({std::move(name), start, end, parent, request_id});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Open a span now; close it with close(). */
    int open(std::string name, int parent = -1)
    {
        const auto now = Clock::now();
        return add(std::move(name), now, now, parent);
    }

    void close(int index)
    {
        if (index >= 0)
            spans_[static_cast<size_t>(index)].end = Clock::now();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as trace-event JSON; false on I/O error. */
    bool write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\"traceEvents\":[";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << (i ? ",\n" : "\n") << "{\"name\":"
                << nebula::json::quoted(s.name)
                << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
                << nebula::json::number(micros(s.start))
                << ",\"dur\":"
                << nebula::json::number(micros(s.end) - micros(s.start))
                << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
                << ",\"request\":" << s.requestId << "}}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    double micros(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    }

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_LOG_HPP
