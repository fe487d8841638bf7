// Waveform tracing: tabular (whitespace-separated columns) and VCD output.
//
// Any simulation object that can produce a double per time point can register
// itself with a trace_file as a channel (add_channel).  The trace
// recorder (core::record) calls `sample(t)` at every accepted time point;
// writers of rows computed elsewhere (solver::write, testbench::save_trace)
// use `replay_row`.
#ifndef SCA_UTIL_TRACE_HPP
#define SCA_UTIL_TRACE_HPP

#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace sca::util {

/// A named scalar quantity that can be sampled at a time point.
struct trace_channel {
    std::string name;
    std::function<double()> probe;
};

/// Base class for trace sinks. Channels are added before the first sample.
class trace_file {
public:
    virtual ~trace_file() = default;

    trace_file(const trace_file&) = delete;
    trace_file& operator=(const trace_file&) = delete;

    /// Register a named probe; must happen before the first sample().
    void add_channel(std::string name, std::function<double()> probe);

    /// Record the current value of every channel at time `t` (seconds).
    void sample(double t);

    /// Write an externally captured row (one value per channel) — used to
    /// re-emit an in-memory trace into another sink, e.g. a tabular file.
    void replay_row(double t, std::span<const double> values);

    /// Flush and close the underlying file. Idempotent.
    virtual void close() = 0;

    [[nodiscard]] std::size_t channel_count() const noexcept { return channels_.size(); }
    [[nodiscard]] const std::string& channel_name(std::size_t i) const {
        return channels_.at(i).name;
    }

protected:
    trace_file() = default;

    virtual void write_header() = 0;
    virtual void write_row(double t, std::span<const double> values) = 0;

    std::vector<trace_channel> channels_;
    bool header_written_ = false;

private:
    std::vector<double> row_;  ///< sample()'s reused row buffer
};

/// Tabular trace: one row per sample, first column is time.
class tabular_trace_file final : public trace_file {
public:
    explicit tabular_trace_file(const std::string& path);
    ~tabular_trace_file() override;
    void close() override;

private:
    void write_header() override;
    void write_row(double t, std::span<const double> values) override;

    std::ofstream out_;
};

/// Value-change-dump trace with real-valued variables, stamped in units of
/// its 1 ps timescale.
class vcd_trace_file final : public trace_file {
public:
    explicit vcd_trace_file(const std::string& path);
    ~vcd_trace_file() override;
    void close() override;

private:
    void write_header() override;
    void write_row(double t, std::span<const double> values) override;

    std::ofstream out_;
    std::vector<double> last_;
    long long last_stamp_ = -1;
};

/// In-memory trace for tests and measurements.  Stored flat: one times
/// vector and one row-major values vector with a stride of channel_count(),
/// so recording a row appends to two vectors and allocates only when they
/// grow.
class memory_trace final : public trace_file {
public:
    memory_trace() = default;
    void close() override {}

    [[nodiscard]] const std::vector<double>& times() const noexcept { return times_; }

    /// Values of row `i` (the sample at times()[i]), one per channel.
    [[nodiscard]] std::span<const double> row(std::size_t i) const noexcept {
        return {values_.data() + i * channel_count(), channel_count()};
    }

    /// Column of samples for channel index `c`.
    [[nodiscard]] std::vector<double> column(std::size_t c) const;

private:
    void write_header() override {}
    void write_row(double t, std::span<const double> values) override;

    std::vector<double> times_;
    std::vector<double> values_;
};

}  // namespace sca::util

#endif  // SCA_UTIL_TRACE_HPP
