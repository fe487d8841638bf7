#include "core/run_set.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <optional>
#include <ostream>
#include <random>
#include <set>
#include <thread>
#include <variant>

#include "core/run_backend.hpp"
#include "core/run_checkpoint.hpp"
#include "core/run_protocol.hpp"
#include "util/bytes.hpp"

namespace sca::core {

// ------------------------------------------------------------- param_grid --

param_grid& param_grid::add(std::string name, std::vector<double> values) {
    util::require(!values.empty(), "param_grid", "axis '" + name + "' has no values");
    axis ax{std::move(name), {}};
    ax.values.reserve(values.size());
    for (double v : values) ax.values.emplace_back(v);
    axes_.push_back(std::move(ax));
    return *this;
}

param_grid& param_grid::add(std::string name, std::vector<std::string> values) {
    util::require(!values.empty(), "param_grid", "axis '" + name + "' has no values");
    axis ax{std::move(name), {}};
    ax.values.reserve(values.size());
    for (std::string& v : values) ax.values.emplace_back(std::move(v));
    axes_.push_back(std::move(ax));
    return *this;
}

param_grid& param_grid::add_linspace(std::string name, double lo, double hi,
                                     std::size_t n) {
    util::require(n >= 2, "param_grid", "linspace needs at least two points");
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i) {
        values[i] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
    }
    return add(std::move(name), std::move(values));
}

param_grid& param_grid::add_logspace(std::string name, double lo, double hi,
                                     std::size_t n) {
    util::require(n >= 2, "param_grid", "logspace needs at least two points");
    util::require(lo > 0.0 && hi > 0.0, "param_grid", "logspace endpoints must be > 0");
    std::vector<double> values(n);
    const double llo = std::log(lo), lhi = std::log(hi);
    for (std::size_t i = 0; i < n; ++i) {
        values[i] = std::exp(llo + (lhi - llo) * static_cast<double>(i) /
                                       static_cast<double>(n - 1));
    }
    return add(std::move(name), std::move(values));
}

std::size_t param_grid::size() const {
    if (axes_.empty()) return 0;
    std::size_t n = 1;
    for (const axis& ax : axes_) n *= ax.values.size();
    return n;
}

params param_grid::at(std::size_t i) const {
    util::require(i < size(), "param_grid", "grid point index out of range");
    params p;
    // Last axis varies fastest, like nested loops in declaration order.
    std::size_t rem = i;
    for (std::size_t a = axes_.size(); a-- > 0;) {
        const axis& ax = axes_[a];
        const params::value& v = ax.values[rem % ax.values.size()];
        rem /= ax.values.size();
        if (std::holds_alternative<double>(v)) {
            p.set(ax.name, std::get<double>(v));
        } else {
            p.set(ax.name, std::get<std::string>(v));
        }
    }
    return p;
}

// ------------------------------------------------------------ monte_carlo --

monte_carlo& monte_carlo::uniform(std::string name, double lo, double hi) {
    dists_.push_back({std::move(name), dist::kind::uniform, lo, hi});
    return *this;
}

monte_carlo& monte_carlo::normal(std::string name, double mean, double sigma) {
    dists_.push_back({std::move(name), dist::kind::normal, mean, sigma});
    return *this;
}

params monte_carlo::at(std::size_t i, std::uint64_t seed) const {
    util::require(i < n_, "monte_carlo", "sample index out of range");
    params p;
    std::mt19937_64 rng(seed);
    for (const dist& d : dists_) {
        double v = 0.0;
        if (d.k == dist::kind::uniform) {
            v = std::uniform_real_distribution<double>(d.a, d.b)(rng);
        } else {
            v = std::normal_distribution<double>(d.a, d.b)(rng);
        }
        p.set(d.name, v);
    }
    return p;
}

// ------------------------------------------------------------- run_result --

double run_result::measurement(const std::string& name) const {
    auto it = measurements.find(name);
    if (it == measurements.end()) {
        util::report_fatal("run_result", "unknown measurement '" + name + "'");
    }
    return it->second;
}

const std::vector<double>& run_result::waveform(const std::string& name) const {
    for (std::size_t i = 0; i < probe_names.size(); ++i) {
        if (probe_names[i] == name) return waveforms[i];
    }
    util::report_fatal("run_result", "unknown probe '" + name + "'");
}

double run_result::metric(const std::string& name) const {
    for (const util::metric_value& mv : run_metrics) {
        if (mv.name != name) continue;
        return mv.kind == util::metric_value::metric_kind::gauge
                   ? mv.value
                   : static_cast<double>(mv.count);
    }
    return 0.0;
}

// ----------------------------------------------------------- result_table --

std::size_t result_table::failed_count() const {
    std::size_t n = 0;
    for (const run_result& r : runs_) {
        if (!r.ok) ++n;
    }
    return n;
}

std::vector<double> result_table::column(const std::string& measurement) const {
    std::vector<double> out;
    out.reserve(runs_.size());
    for (const run_result& r : runs_) {
        if (r.ok) out.push_back(r.measurement(measurement));
    }
    return out;
}

const run_result* result_table::best(const std::string& measurement,
                                     bool maximize) const {
    const run_result* winner = nullptr;
    for (const run_result& r : runs_) {
        if (!r.ok) continue;
        const double v = r.measurement(measurement);
        if (winner == nullptr ||
            (maximize ? v > winner->measurement(measurement)
                      : v < winner->measurement(measurement))) {
            winner = &r;
        }
    }
    return winner;
}

namespace {
// RFC-4180-style quoting for free-text fields (error messages, string
// parameters): without it a comma in an error shifts every later column.
void write_csv_field(std::ostream& os, const std::string& s) {
    if (s.find_first_of(",\"\n\r") == std::string::npos) {
        os << s;
        return;
    }
    os << '"';
    for (char c : s) {
        if (c == '"') os << '"';
        os << c;
    }
    os << '"';
}

/// One CSV row: identical doubles format identically, which is what makes a
/// CSV compare a valid bit-identity check across backends.
void write_csv_row(std::ostream& os, const run_result& r,
                   const std::set<std::string>& param_names,
                   const std::set<std::string>& meas_names) {
    os << r.index << ',' << r.seed;
    for (const auto& name : param_names) {
        os << ',';
        const auto& entries = r.parameters.entries();
        auto it = entries.find(name);
        if (it == entries.end()) continue;
        if (std::holds_alternative<double>(it->second)) {
            os << std::get<double>(it->second);
        } else {
            write_csv_field(os, std::get<std::string>(it->second));
        }
    }
    for (const auto& name : meas_names) {
        os << ',';
        auto it = r.measurements.find(name);
        if (it != r.measurements.end()) os << it->second;
    }
    os << ',' << (r.ok ? 1 : 0) << ',';
    write_csv_field(os, r.error);
    os << '\n';
}

}  // namespace

void result_table::write_csv(std::ostream& os) const {
    // Union of parameter and measurement names across runs, sorted.
    std::set<std::string> param_names, meas_names;
    for (const run_result& r : runs_) {
        for (const auto& [name, v] : r.parameters.entries()) param_names.insert(name);
        for (const auto& [name, v] : r.measurements) meas_names.insert(name);
    }
    os << "run,seed";
    for (const auto& name : param_names) os << ',' << name;
    for (const auto& name : meas_names) os << ',' << name;
    os << ",ok,error\n";
    for (const run_result& r : runs_) write_csv_row(os, r, param_names, meas_names);
}

void result_table::write_metrics_csv(std::ostream& os) const {
    // Union of metric names across runs, sorted — so the column set (and
    // with it the whole string) depends only on the campaign content.
    std::set<std::string> names;
    for (const run_result& r : runs_) {
        for (const util::metric_value& mv : r.run_metrics) names.insert(mv.name);
    }
    os << "run";
    for (const auto& name : names) os << ',' << name;
    os << '\n';
    for (const run_result& r : runs_) {
        os << r.index;
        for (const auto& name : names) {
            os << ',';
            for (const util::metric_value& mv : r.run_metrics) {
                if (mv.name != name) continue;
                if (mv.kind == util::metric_value::metric_kind::gauge) {
                    os << util::fmt_double(mv.value);
                } else {
                    os << mv.count;
                }
                break;
            }
        }
        os << '\n';
    }
}

double result_table::metrics_total(const std::string& name) const {
    double total = 0.0;
    for (const run_result& r : runs_) total += r.metric(name);
    return total;
}

// ---------------------------------------------------------------- run_set --

run_set::run_set(scenario sc) : scenario_(std::move(sc)) {
    util::require(scenario_.valid(), "run_set", "run_set needs a defined scenario");
}

run_set& run_set::with_grid(param_grid grid) {
    grid_ = std::move(grid);
    return *this;
}

run_set& run_set::with_samples(monte_carlo sampler) {
    sampler_ = std::move(sampler);
    return *this;
}

run_set& run_set::add_point(params p) {
    extra_points_.push_back(std::move(p));
    return *this;
}

run_set& run_set::set_workers(unsigned n) {
    workers_ = n;
    return *this;
}

run_set& run_set::set_base_seed(std::uint64_t seed) {
    base_seed_ = seed;
    return *this;
}

run_set& run_set::keep_waveforms(bool on) {
    keep_waveforms_ = on;
    return *this;
}

run_set& run_set::set_backend(run_backend b) {
    backend_ = b;
    return *this;
}

run_set& run_set::set_endpoints(std::vector<std::string> endpoints) {
    endpoints_ = std::move(endpoints);
    return *this;
}

run_set& run_set::on_result(std::function<void(const run_result&)> cb) {
    on_result_ = std::move(cb);
    return *this;
}

run_set& run_set::set_checkpoint(std::string path) {
    checkpoint_path_ = std::move(path);
    return *this;
}

std::size_t run_set::size() const {
    return grid_.size() + sampler_.size() + extra_points_.size();
}

campaign_fingerprint run_set::fingerprint() const {
    // Everything that decides a run's parameters besides its seed: the grid
    // axes, the sampler, the explicit points and the defaults under them.
    util::byte_writer w;
    const auto put_value = [&w](const params::value& v) {
        w.u8(static_cast<std::uint8_t>(v.index()));
        if (std::holds_alternative<double>(v)) {
            w.f64(std::get<double>(v));
        } else {
            w.str(std::get<std::string>(v));
        }
    };
    w.u64(grid_.axes_.size());
    for (const param_grid::axis& ax : grid_.axes_) {
        w.str(ax.name);
        w.u64(ax.values.size());
        for (const params::value& v : ax.values) put_value(v);
    }
    w.u64(sampler_.n_);
    w.u64(sampler_.dists_.size());
    for (const monte_carlo::dist& d : sampler_.dists_) {
        w.str(d.name);
        w.u8(static_cast<std::uint8_t>(d.k));
        w.f64(d.a);
        w.f64(d.b);
    }
    w.u64(extra_points_.size());
    for (const params& p : extra_points_) wire::put_params(w, p);
    wire::put_params(w, scenario_.defaults());
    const std::vector<std::uint8_t>& bytes = w.bytes();
    return {scenario_.name(), base_seed_, size(), keep_waveforms_,
            util::fnv1a_32(bytes.data(), bytes.size())};
}

params run_set::point(std::size_t index, std::uint64_t seed) const {
    std::size_t i = index;
    if (i < grid_.size()) return grid_.at(i);
    i -= grid_.size();
    if (i < sampler_.size()) return sampler_.at(i, seed);
    i -= sampler_.size();
    return extra_points_.at(i);
}

run_result run_set::run_one(std::size_t index) const {
    run_result res;
    res.index = index;
    res.seed = detail::derive_seed(base_seed_, index);
    try {
        params p = point(index, res.seed);
        p.set_run_identity(index, res.seed);
        auto tb = scenario_.build(p);
        res.parameters = tb->parameters();
        tb->run();
        res.measurements = tb->measurements();
        if (keep_waveforms_) {
            res.times = tb->times();
            res.probe_names = tb->probe_names();
            res.waveforms.reserve(res.probe_names.size());
            for (const auto& name : res.probe_names) {
                res.waveforms.push_back(tb->waveform(name));
            }
        }
        res.run_metrics = tb->context().collect_wire_metrics();
        res.ok = true;
    } catch (const std::exception& e) {
        res.ok = false;
        res.error = e.what();
    }
    return res;
}

result_table run_set::run_all() const {
    const std::size_t n = size();
    util::require(n > 0, "run_set", "nothing to run: add a grid, sampler, or point");
    std::vector<run_result> results(n);

    unsigned workers = workers_;
    if (workers == 0) {
        workers = std::max(1U, std::thread::hardware_concurrency());
    }
    workers = static_cast<unsigned>(std::min<std::size_t>(workers, n));

    // The campaign header, computed once: the journal starts with it and
    // every worker connection opens with it.
    const std::vector<std::uint8_t> header = wire::encode_header(fingerprint());

    // Checkpoint resume: install journaled results, compute only the rest.
    std::vector<bool> done(n, false);
    std::optional<checkpoint_journal> journal;
    if (!checkpoint_path_.empty()) {
        journal.emplace(checkpoint_path_, header);
        for (auto& [index, r] : journal->take_completed()) {
            if (index >= n) continue;
            done[index] = true;
            results[index] = std::move(r);
        }
    }
    std::vector<std::size_t> pending;
    pending.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (!done[i]) pending.push_back(i);
    }
    if (pending.empty()) return result_table(std::move(results));

    // Delivery in arrival order, serialized by the dispatcher: journal
    // append (completed runs only), then the user callback.
    auto deliver = [&](const run_result& r, bool completed) {
        if (journal && completed) journal->append(r);
        if (on_result_) on_result_(r);
    };

    switch (backend_) {
        case run_backend::in_thread:
            detail::execute_in_thread(*this, pending, results, workers, deliver);
            break;
        case run_backend::multiprocess:
            detail::execute_multiprocess(*this, pending, results, workers, header, deliver);
            break;
        case run_backend::remote_tcp:
            detail::execute_remote_tcp(*this, pending, results, endpoints_, header,
                                       deliver);
            break;
    }
    return result_table(std::move(results));
}

}  // namespace sca::core
