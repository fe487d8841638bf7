#include "util/telemetry.hpp"

#include <locale>
#include <ostream>
#include <sstream>

namespace sca::util {

// ---------------------------------------------------------------- histogram --

void histogram::record(double v) noexcept {
    const std::uint64_t n = count_.fetch_add(1, std::memory_order_relaxed);
    double s = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(s, s + v, std::memory_order_relaxed)) {
    }
    if (n == 0) {
        // First sample seeds both extremes.  A concurrent first sample loses
        // the n==0 race and goes through the CAS loops below instead, so the
        // extremes stay correct either way.
        min_.store(v, std::memory_order_relaxed);
        max_.store(v, std::memory_order_relaxed);
        return;
    }
    double lo = min_.load(std::memory_order_relaxed);
    while (v < lo && !min_.compare_exchange_weak(lo, v, std::memory_order_relaxed)) {
    }
    double hi = max_.load(std::memory_order_relaxed);
    while (v > hi && !max_.compare_exchange_weak(hi, v, std::memory_order_relaxed)) {
    }
}

double histogram::min() const noexcept {
    return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double histogram::max() const noexcept {
    return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

// --------------------------------------------------------- metrics_registry --

histogram& metrics_registry::get_histogram(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return histograms_[name];
}

metrics_snapshot metrics_registry::snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    metrics_snapshot snap;
    snap.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
        snap.push_back({.name = name,
                        .kind = metric_value::metric_kind::histogram,
                        .count = h.count(),
                        .value = h.sum(),
                        .min = h.min(),
                        .max = h.max()});
    }
    return snap;
}

// -------------------------------------------------------------- JSON writer --

std::string fmt_double(double v) {
    // A fresh stream, not the caller's: the classic locale and
    // max_digits10 whatever the caller's stream state.
    std::ostringstream ss;
    ss.imbue(std::locale::classic());
    ss.precision(17);
    ss << v;
    return ss.str();
}

void write_json_string(std::ostream& os, std::string_view s) {
    os << '"';
    for (const char c : s) {
        switch (c) {
        case '"': os << "\\\""; break;
        case '\\': os << "\\\\"; break;
        case '\n': os << "\\n"; break;
        case '\r': os << "\\r"; break;
        case '\t': os << "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char* hex = "0123456789abcdef";
                os << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void write_metrics_json(std::ostream& os, const metrics_snapshot& snap) {
    static constexpr const char* k_kind_names[] = {"counter", "gauge", "histogram"};
    os << "{\"metrics\":[";
    for (std::size_t i = 0; i < snap.size(); ++i) {
        const metric_value& mv = snap[i];
        if (i != 0) os << ',';
        os << "{\"name\":";
        write_json_string(os, mv.name);
        os << ",\"kind\":\"" << k_kind_names[static_cast<std::size_t>(mv.kind)] << '"';
        switch (mv.kind) {
        case metric_value::metric_kind::counter:
            os << ",\"value\":" << mv.count;
            break;
        case metric_value::metric_kind::gauge:
            os << ",\"value\":" << fmt_double(mv.value);
            break;
        case metric_value::metric_kind::histogram:
            os << ",\"count\":" << mv.count << ",\"sum\":" << fmt_double(mv.value)
               << ",\"min\":" << fmt_double(mv.min) << ",\"max\":" << fmt_double(mv.max);
            break;
        }
        os << '}';
    }
    os << "]}";
}

}  // namespace sca::util
