#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

void write_string(std::ostringstream& os, const std::string& s) {
    os << '"';
    for (const char c : s) {
        switch (c) {
            case '"': os << "\\\""; break;
            case '\\': os << "\\\\"; break;
            case '\n': os << "\\n"; break;
            case '\t': os << "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    os << buf;
                } else {
                    os << c;
                }
        }
    }
    os << '"';
}

void write_number(std::ostringstream& os, double v) {
    if (!std::isfinite(v)) {
        os << "null";  // run.py rejects a metric it cannot read
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
}

}  // namespace

void report::op(const std::string& category, bool ok, const std::string& detail) {
    tally& t = ops_[category];
    ++t.attempted;
    if (!ok) {
        ++t.failed;
        if (failures_.size() < 32) failures_.push_back(category + ": " + detail);
    }
}

std::string report::to_json(const options& opt) const {
    std::ostringstream os;
    os << "{\"workload\":";
    write_string(os, opt.workload);
    os << ",\"seed\":" << opt.seed << ",\"trace\":" << (opt.trace ? 1 : 0);
    os << ",\"host\":{\"nproc\":" << ::sysconf(_SC_NPROCESSORS_ONLN) << ",\"compiler\":";
    write_string(os, PERFBENCH_COMPILER);
    os << ",\"build_type\":";
    write_string(os, PERFBENCH_BUILD_TYPE);
    os << ",\"telemetry\":" << PERFBENCH_TELEMETRY << "}";

    os << ",\"samples\":{";
    bool first = true;
    for (const auto& [name, vs] : samples_) {
        if (!first) os << ',';
        first = false;
        write_string(os, name);
        os << ":[";
        for (std::size_t i = 0; i < vs.size(); ++i) {
            if (i != 0) os << ',';
            write_number(os, vs[i]);
        }
        os << ']';
    }
    os << "},\"values\":{";
    first = true;
    for (const auto& [name, v] : values_) {
        if (!first) os << ',';
        first = false;
        write_string(os, name);
        os << ':';
        write_number(os, v);
    }
    os << "},\"ops\":{";
    first = true;
    for (const auto& [name, t] : ops_) {
        if (!first) os << ',';
        first = false;
        write_string(os, name);
        os << ":{\"attempted\":" << t.attempted << ",\"failed\":" << t.failed << '}';
    }
    os << "},\"failures\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
        if (i != 0) os << ',';
        write_string(os, failures_[i]);
    }
    os << "]}";
    return os.str();
}

double peak_rss_mb() {
    // RUSAGE_SELF's ru_maxrss survives exec, so it would report the process
    // that started the harness whenever that one was larger; VmHWM is the
    // peak of this program's own address space.
    long self_kib = 0;
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0) self_kib = std::stol(line.substr(6));
    }
    rusage children{};
    ::getrusage(RUSAGE_CHILDREN, &children);
    // In KiB; RUSAGE_CHILDREN reports the largest single reaped child (a
    // multiprocess worker, forked, not exec'd), not a sum.
    return static_cast<double>(self_kib + children.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
