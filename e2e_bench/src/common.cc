#include "common.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>

namespace e2e {

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuTimes
CpuTimes::read()
{
    CpuTimes t;
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    if (cpu != "cpu")
        return t;
    // user nice system idle iowait irq softirq steal
    for (int field = 0; field < 8; ++field) {
        double v = 0.0;
        if (!(in >> v))
            return CpuTimes{};
        t.total += v;
        if (field == 7)
            t.steal = v;
    }
    return t;
}

namespace {

const char *
tagName(Tag t)
{
    switch (t) {
    case Tag::Measured:
        return "measured";
    case Tag::Modeled:
        return "modeled";
    case Tag::Count:
        return "count";
    }
    return "?";
}

} // namespace

void
Report::add(const std::string &name, double value,
            const std::string &unit, Tag tag, const std::string &note)
{
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not finite");
        value = 0.0;
    }
    metrics_[name] = Entry{value, unit, tag, note};
}

void
Report::fail(const std::string &what)
{
    std::printf("CHECK FAILED: %s\n", what.c_str());
    std::fflush(stdout);
    ++failures_;
}

void
Report::print() const
{
    for (const auto &[name, e] : metrics_)
        std::printf("metric %-28s %16.6f %-8s [%s]%s%s\n",
                    name.c_str(), e.value, e.unit.c_str(),
                    tagName(e.tag), e.note.empty() ? "" : "  ",
                    e.note.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": "
                "%lld, \"metrics\": {",
                correct() ? "true" : "false",
                static_cast<long long>(attempted_),
                static_cast<long long>(failed_));
    bool first = true;
    for (const auto &[name, e] : metrics_) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                    "\"tag\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), e.value,
                    e.unit.c_str(), tagName(e.tag));
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

SpanRecorder::Scope::Scope(SpanRecorder &rec, std::string name,
                           int64_t id)
    : rec_(rec), index_(static_cast<int64_t>(rec.spans_.size())),
      prevOpen_(rec.open_)
{
    Span s;
    s.name = std::move(name);
    s.parent = rec.open_;
    s.id = id;
    rec.spans_.push_back(std::move(s));
    rec.open_ = index_;
    rec.spans_.back().start = wallNow();
}

SpanRecorder::Scope::~Scope()
{
    rec_.spans_[static_cast<size_t>(index_)].end = wallNow();
    rec_.open_ = prevOpen_;
}

std::vector<double>
SpanRecorder::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(s.end - s.start);
    return out;
}

double
SpanRecorder::childSeconds(const std::string &parent_name) const
{
    double sum = 0.0;
    for (const Span &s : spans_)
        if (s.parent >= 0 &&
            spans_[static_cast<size_t>(s.parent)].name == parent_name)
            sum += s.end - s.start;
    return sum;
}

void
SpanRecorder::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[512];
        std::snprintf(buf, sizeof buf,
                      "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"span\": %zu, \"parent\": %lld, "
                      "\"id\": %lld}}%s\n",
                      s.name.c_str(), (s.start - t0) * 1e6,
                      (s.end - s.start) * 1e6, i,
                      static_cast<long long>(s.parent),
                      static_cast<long long>(s.id),
                      i + 1 < spans_.size() ? "," : "");
        out << buf;
    }
    out << "]}\n";
}

} // namespace e2e
