#include "util/trace.hpp"

#include <cmath>
#include <utility>

#include "util/report.hpp"

namespace sca::util {

void trace_file::add_channel(std::string name, std::function<double()> probe) {
    // A channel added after the first sample() could never be retrofitted
    // into the rows already written — the file would have misaligned
    // columns — so reject it by name instead.
    require(!header_written_, "trace_file",
            "cannot add channel '" + name +
                "' after sampling started: the header and earlier rows are "
                "already written without it");
    require(static_cast<bool>(probe), "trace_file", "null probe for channel " + name);
    channels_.push_back({std::move(name), std::move(probe)});
}

void trace_file::sample(double t) {
    if (!header_written_) {
        write_header();
        header_written_ = true;
    }
    row_.clear();
    for (const auto& ch : channels_) row_.push_back(ch.probe());
    write_row(t, row_);
}

void trace_file::replay_row(double t, std::span<const double> values) {
    require(values.size() == channels_.size(), "trace_file",
            "replay_row value count does not match channel count");
    if (!header_written_) {
        write_header();
        header_written_ = true;
    }
    write_row(t, values);
}

// ---------------------------------------------------------------- tabular --

tabular_trace_file::tabular_trace_file(const std::string& path) : out_(path) {
    require(out_.good(), "tabular_trace_file", "cannot open " + path);
}

tabular_trace_file::~tabular_trace_file() { close(); }

void tabular_trace_file::close() {
    if (out_.is_open()) out_.close();
}

void tabular_trace_file::write_header() {
    out_ << "%time";
    for (const auto& ch : channels_) out_ << ' ' << ch.name;
    out_ << '\n';
}

void tabular_trace_file::write_row(double t, std::span<const double> values) {
    out_ << t;
    for (double v : values) out_ << ' ' << v;
    out_ << '\n';
}

// -------------------------------------------------------------------- vcd --

namespace {
std::string vcd_identifier(std::size_t index) {
    // Printable identifier characters per the VCD grammar: '!' .. '~'.
    std::string id;
    do {
        id.push_back(static_cast<char>('!' + index % 94));
        index /= 94;
    } while (index > 0);
    return id;
}
}  // namespace

vcd_trace_file::vcd_trace_file(const std::string& path) : out_(path) {
    require(out_.good(), "vcd_trace_file", "cannot open " + path);
}

vcd_trace_file::~vcd_trace_file() { close(); }

void vcd_trace_file::close() {
    if (out_.is_open()) out_.close();
}

void vcd_trace_file::write_header() {
    out_ << "$timescale 1 ps $end\n$scope module sca $end\n";
    for (std::size_t i = 0; i < channels_.size(); ++i) {
        out_ << "$var real 64 " << vcd_identifier(i) << ' ' << channels_[i].name << " $end\n";
    }
    out_ << "$upscope $end\n$enddefinitions $end\n";
    last_.assign(channels_.size(), std::nan(""));
}

void vcd_trace_file::write_row(double t, std::span<const double> values) {
    const auto stamp = static_cast<long long>(std::llround(t / 1e-12));  // $timescale 1 ps
    bool stamp_emitted = false;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (values[i] == last_[i]) continue;
        if (!stamp_emitted && stamp != last_stamp_) {
            out_ << '#' << stamp << '\n';
            last_stamp_ = stamp;
            stamp_emitted = true;
        }
        out_ << 'r' << values[i] << ' ' << vcd_identifier(i) << '\n';
        last_[i] = values[i];
    }
}

// ----------------------------------------------------------------- memory --

std::vector<double> memory_trace::column(std::size_t c) const {
    require(c < channel_count(), "memory_trace", "column index out of range");
    std::vector<double> col;
    col.reserve(times_.size());
    for (std::size_t i = 0; i < times_.size(); ++i) col.push_back(row(i)[c]);
    return col;
}

void memory_trace::write_row(double t, std::span<const double> values) {
    times_.push_back(t);
    values_.insert(values_.end(), values.begin(), values.end());
}

}  // namespace sca::util
