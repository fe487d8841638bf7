// Multi-run execution engine over a scenario: parameter grids, Monte Carlo
// sampling, a worker-thread pool, and aggregated result tables.
//
//   auto table = sca::core::run_set(rc)
//                    .with_grid(sca::core::param_grid()
//                                   .add_logspace("r", 100.0, 10e3, 8)
//                                   .add("c", {47e-9, 100e-9}))
//                    .set_workers(8)
//                    .run_all();
//   table.write_csv(std::cout);
//
// Every run instantiates a fully independent testbench (its own
// simulation_context) and executes on whichever worker thread picks it up.
// Results are deterministic and independent of the worker count: parameter
// points are enumerated in a fixed order, each run derives its seed from
// (base_seed, run index) alone, and results land in their run-index slot.
#ifndef SCA_CORE_RUN_SET_HPP
#define SCA_CORE_RUN_SET_HPP

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "util/telemetry.hpp"

namespace sca::core {

/// Execution backend for run_set::run_all() — see run_backend.hpp for the
/// dispatch/failure model and docs/api.md for the selection guide.
enum class run_backend : std::uint8_t {
    in_thread,     ///< worker threads inside this process (the default)
    multiprocess,  ///< fork()ed worker subprocesses over socketpairs
    remote_tcp,    ///< remote workers over TCP (set_endpoints), same protocol
};

// --------------------------------------------------------------- sampling --

/// Cartesian product of named value lists, enumerated in a fixed order
/// (last-added axis varies fastest).
class param_grid {
public:
    param_grid& add(std::string name, std::vector<double> values);
    param_grid& add(std::string name, std::vector<std::string> values);
    /// `n` evenly spaced values in [lo, hi] (n >= 2, endpoints included).
    param_grid& add_linspace(std::string name, double lo, double hi, std::size_t n);
    /// `n` logarithmically spaced values in [lo, hi] (lo, hi > 0).
    param_grid& add_logspace(std::string name, double lo, double hi, std::size_t n);

    /// Number of grid points (product of axis sizes; 0 when empty).
    [[nodiscard]] std::size_t size() const;
    /// Parameter set of grid point `i`.
    [[nodiscard]] params at(std::size_t i) const;

private:
    friend class run_set;  // hashes the axes into the campaign fingerprint

    struct axis {
        std::string name;
        std::vector<params::value> values;
    };
    std::vector<axis> axes_;
};

/// Random parameter sampler: each run draws every registered distribution
/// from a generator seeded with that run's deterministic seed.
class monte_carlo {
public:
    explicit monte_carlo(std::size_t n_runs) : n_(n_runs) {}

    monte_carlo& uniform(std::string name, double lo, double hi);
    monte_carlo& normal(std::string name, double mean, double sigma);

    [[nodiscard]] std::size_t size() const noexcept { return n_; }
    /// Draw point `i` using `seed` (the engine passes the per-run seed).
    [[nodiscard]] params at(std::size_t i, std::uint64_t seed) const;

private:
    friend class run_set;  // hashes the distributions into the fingerprint

    struct dist {
        enum class kind : std::uint8_t { uniform, normal };
        std::string name;
        kind k;
        double a, b;
    };
    std::size_t n_;
    std::vector<dist> dists_;
};

// ---------------------------------------------------------------- results --

/// Outcome of one scenario run: identity, parameters, measurements, and
/// (unless disabled) the recorded probe waveforms.
struct run_result {
    std::size_t index = 0;
    std::uint64_t seed = 0;
    params parameters;
    std::map<std::string, double> measurements;
    std::vector<double> times;
    std::vector<std::string> probe_names;
    std::vector<std::vector<double>> waveforms;  // one per probe name
    bool ok = false;
    std::string error;
    /// Per-run telemetry: the deterministic counter/gauge subset of the
    /// run's context registry (sorted by name), identical across backends
    /// and worker counts.  Travels inside the result payload, so the
    /// checkpoint journal keeps it; empty for runs lost to worker death.
    util::metrics_snapshot run_metrics;
    /// Worker that executed the run (telemetry only — never affects result
    /// content): slot index for in_thread/multiprocess, endpoint index for
    /// remote_tcp, -1 for inline execution and journal-resumed runs.
    int worker = -1;

    [[nodiscard]] double measurement(const std::string& name) const;
    [[nodiscard]] const std::vector<double>& waveform(const std::string& name) const;
    /// Value of a named run metric (0 when absent).
    [[nodiscard]] double metric(const std::string& name) const;
};

/// All runs of a run_set, ordered by run index.
class result_table {
public:
    result_table() = default;
    explicit result_table(std::vector<run_result> runs) : runs_(std::move(runs)) {}

    [[nodiscard]] std::size_t size() const noexcept { return runs_.size(); }
    [[nodiscard]] const run_result& operator[](std::size_t i) const { return runs_.at(i); }
    [[nodiscard]] const std::vector<run_result>& runs() const noexcept { return runs_; }

    [[nodiscard]] std::size_t failed_count() const;

    /// One value per successful run, in run order.
    [[nodiscard]] std::vector<double> column(const std::string& measurement) const;

    /// Successful run with the smallest / largest value of `measurement`
    /// (nullptr when no run succeeded).
    [[nodiscard]] const run_result* best(const std::string& measurement,
                                         bool maximize = false) const;

    /// CSV: run index, seed, every parameter, every measurement, error.
    void write_csv(std::ostream& os) const;

    /// Telemetry CSV: one row per run (index order), one column per metric
    /// name seen in any run.  Deterministic in content for a deterministic
    /// campaign — comparing this string across backends/worker counts is the
    /// bit-for-bit aggregation check.
    void write_metrics_csv(std::ostream& os) const;

    /// Sum of a named counter/gauge metric across all runs that carry it.
    [[nodiscard]] double metrics_total(const std::string& name) const;

private:
    std::vector<run_result> runs_;
};

// ---------------------------------------------------------------- run_set --

/// Campaign identity.  The checkpoint journal starts with it and every
/// worker connection opens with it (wire::encode_header), so a journal or a
/// remote worker of another campaign is refused instead of lending its rows.
struct campaign_fingerprint {
    std::string scenario_name;
    std::uint64_t base_seed = 0;
    std::uint64_t n_runs = 0;
    bool keep_waveforms = true;
    /// FNV-1a of the campaign definition: grid axes, sampler distributions
    /// and size, explicit points, and the scenario defaults.
    std::uint32_t definition = 0;
};

/// A scenario plus the set of parameter points to run it at, executed across
/// a worker pool.
class run_set {
public:
    explicit run_set(scenario sc);

    run_set& with_grid(param_grid grid);
    run_set& with_samples(monte_carlo sampler);
    /// Append one explicit parameter point (combines with grid/sampler).
    run_set& add_point(params p);

    /// Workers for run_all() — threads (in_thread) or subprocesses
    /// (multiprocess); 0 (default) means one per hardware thread. 1 on the
    /// in_thread backend executes inline on the calling thread.
    run_set& set_workers(unsigned n);
    run_set& set_base_seed(std::uint64_t seed);
    [[nodiscard]] std::uint64_t base_seed() const noexcept { return base_seed_; }
    /// Keep per-run waveforms in the result table (default true). Turn off
    /// for large sweeps where only measurements matter.
    run_set& keep_waveforms(bool on);

    // --- backend selection / result callback / checkpointing ----------------
    /// Select the execution backend (default in_thread).  Results are
    /// bit-identical across backends and worker counts by construction.
    run_set& set_backend(run_backend b);
    [[nodiscard]] run_backend backend() const noexcept { return backend_; }
    /// Remote worker endpoints ("ip:port", numeric IPv4) for remote_tcp.
    run_set& set_endpoints(std::vector<std::string> endpoints);

    /// Invoke `cb` once per result as it arrives (arrival order, dispatcher
    /// thread) — rows as they complete instead of waiting for the full
    /// table.  Lost runs (worker death) are delivered too, with ok=false.
    run_set& on_result(std::function<void(const run_result&)> cb);

    /// Journal completed runs to `path` (created on first use, appended on
    /// resume).  A later run_all() of the same campaign (fingerprint())
    /// loads finished runs from the journal and computes only the rest —
    /// see run_checkpoint.hpp.
    run_set& set_checkpoint(std::string path);

    /// Number of runs this set will execute.
    [[nodiscard]] std::size_t size() const;

    /// This campaign's identity; O(definition), not O(runs).
    [[nodiscard]] campaign_fingerprint fingerprint() const;

    /// Execute every run and aggregate the results (index order).
    [[nodiscard]] result_table run_all() const;

    /// Execute a single point by run index on the calling thread.
    [[nodiscard]] run_result run_one(std::size_t index) const;

private:
    [[nodiscard]] params point(std::size_t index, std::uint64_t seed) const;

    scenario scenario_;
    param_grid grid_;
    monte_carlo sampler_{0};
    std::vector<params> extra_points_;
    unsigned workers_ = 0;
    std::uint64_t base_seed_ = 0x5ca5eedULL;
    bool keep_waveforms_ = true;
    run_backend backend_ = run_backend::in_thread;
    std::vector<std::string> endpoints_;
    std::function<void(const run_result&)> on_result_;
    std::string checkpoint_path_;
};

}  // namespace sca::core

#endif  // SCA_CORE_RUN_SET_HPP
