// Reusable testbench definitions (the paper's "one modeling front end, many
// analyses, many experiments" rationale).
//
// A scenario captures *how to build* a testbench as a factory, instead of
// building it imperatively in main():
//
//   auto rc = sca::core::scenario::define(
//       "rc", sca::core::params{{"r", 1e3}, {"c", 100e-9}},
//       [](sca::core::testbench& tb, const sca::core::params& p) {
//           auto& net = tb.make<sca::eln::network>("net");
//           ...build against p.get("r", 1e3)...
//           tb.probe("vout", [&net, out] { return net.voltage(out); });
//           tb.measure("vout_final", [&net, out] { return net.voltage(out); });
//           tb.set_stop_time(sca::de::time::from_seconds(5e-3));
//           tb.set_sample_period(sca::de::time::from_seconds(10e-6));
//       });
//
//   auto tb = rc.build({{"r", 2.2e3}});   // one experiment...
//   tb->run();
//   double v = tb->measurement("vout_final");
//
// ...or many at once through core::run_set, which instantiates N independent
// testbenches (each with its own simulation_context) across worker threads.
//
// The testbench owns everything a single experiment needs: the kernel
// context, the model objects (via make<T>), named probes recorded into an
// in-memory trace, and named measurements evaluated when a run finishes.
// It is the one front end for models; only kernel-level tests and benches
// drive a bare de::simulation_context, sampling traces with core::record.
//
// Builders compose hierarchically: make<T> a tdf::composite or
// eln::subcircuit (which own their children via module::make_child), wire
// TDF ports with tdf::connect()/operator>>, and bind ELN terminals to
// nodes — see docs/api.md "Hierarchical composition".  Composites behave
// identically inside run_set parallel sweeps (tests/test_hierarchy.cpp).
#ifndef SCA_CORE_SCENARIO_HPP
#define SCA_CORE_SCENARIO_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "kernel/context.hpp"
#include "kernel/signal.hpp"
#include "tdf/port.hpp"
#include "util/object_bag.hpp"
#include "util/report.hpp"
#include "util/trace.hpp"

namespace sca::tdf {
class dae_module;
}

namespace sca::core {

/// Sample every channel of `file` at now() and then every `period`, from a
/// method process named "trace_recorder" registered with `ctx` here.
/// Channels may still be added until the first sample.
void record(de::simulation_context& ctx, util::trace_file& file, const de::time& period);

// ----------------------------------------------------------------- params --

/// Typed, named parameter set with defaults and overrides.  The engine also
/// stamps each run's index and deterministic seed here, so model code can
/// seed its noise sources from `p.seed()`.
class params {
public:
    using value = std::variant<double, std::string>;

    params() = default;
    params(std::initializer_list<std::pair<const std::string, value>> init)
        : values_(init) {}

    params& set(const std::string& name, double v) {
        values_[name] = v;
        return *this;
    }
    params& set(const std::string& name, const char* v) {
        values_[name] = std::string(v);
        return *this;
    }
    params& set(const std::string& name, std::string v) {
        values_[name] = std::move(v);
        return *this;
    }

    [[nodiscard]] bool has(const std::string& name) const {
        return values_.count(name) != 0;
    }

    /// Value of `name`, or `fallback` when absent.
    [[nodiscard]] double get(const std::string& name, double fallback) const;
    [[nodiscard]] std::string get(const std::string& name, const std::string& fallback) const;

    /// Value of `name`; throws when absent (for required parameters).
    [[nodiscard]] double number(const std::string& name) const;
    [[nodiscard]] std::string text(const std::string& name) const;

    /// These overrides layered on top of `defaults`.
    [[nodiscard]] params merged_onto(const params& defaults) const;

    /// Sorted by name — the deterministic column order of result tables.
    [[nodiscard]] const std::map<std::string, value>& entries() const noexcept {
        return values_;
    }

    // --- run identity (stamped by the engine) ------------------------------
    [[nodiscard]] std::size_t run_index() const noexcept { return run_index_; }
    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
    void set_run_identity(std::size_t index, std::uint64_t seed) noexcept {
        run_index_ = index;
        seed_ = seed;
    }

private:
    std::map<std::string, value> values_;
    std::size_t run_index_ = 0;
    std::uint64_t seed_ = 0;
};

// -------------------------------------------------------------- testbench --

/// One fully built experiment: kernel context + owned model objects + named
/// probes and measurements + the elaborate/run lifecycle.  Independent
/// testbenches share no mutable state, so different worker threads may each
/// drive one concurrently.
class testbench {
public:
    explicit testbench(std::string name = "tb");
    ~testbench();

    testbench(const testbench&) = delete;
    testbench& operator=(const testbench&) = delete;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    /// Construct a model object owned by this testbench (destroyed before
    /// the context, in reverse construction order).  Activates this
    /// testbench's context first, so several testbenches can be built
    /// interleaved on one thread.
    template <typename T, typename... Args>
    T& make(Args&&... args) {
        activate();
        return bag_.make<T>(std::forward<Args>(args)...);
    }

    [[nodiscard]] de::simulation_context& context() noexcept { return *ctx_; }

    /// Make this testbench's context the thread's current one.
    void activate() noexcept { ctx_->make_current(); }

    /// Parameters this testbench was built with (set by scenario::build).
    [[nodiscard]] const params& parameters() const noexcept { return params_; }
    void set_parameters(params p) { params_ = std::move(p); }

    // --- probes & measurements ---------------------------------------------
    /// Record `fn` under `name` at every sample point of a transient run.
    void probe(std::string name, std::function<double()> fn);
    void probe(std::string name, const de::signal<double>& s) {
        probe(std::move(name), [&s] { return s.read(); });
    }
    void probe(std::string name, const de::signal<bool>& s) {
        probe(std::move(name), [&s] { return s.read() ? 1.0 : 0.0; });
    }
    void probe(std::string name, const tdf::signal<double>& s) {
        probe(std::move(name), [&s] { return s.last_value(); });
    }

    /// Register a scalar evaluated when a run finishes (waveform statistics,
    /// final values, counters...).
    void measure(std::string name, std::function<double()> fn);

    // --- live parameter hooks ----------------------------------------------
    /// Register a handler applied when `poke(name, value)` is called while
    /// the simulation is stopped between run() slices — the contract the
    /// streaming server uses for mid-session parameter changes (the handler
    /// typically rewrites a module member; dynamic-TDF modules then react
    /// through their own change_attributes path).  Register during build.
    void on_param(std::string name, std::function<void(double)> apply);

    /// Apply a registered param hook; throws when no hook is registered
    /// under `name`.  Must not be called while run() is executing.
    void poke(const std::string& name, double value);

    [[nodiscard]] bool has_param_hook(const std::string& name) const {
        return param_hooks_.count(name) != 0;
    }
    /// Sorted names of the registered param hooks.
    [[nodiscard]] std::vector<std::string> param_names() const;

    /// Record a named constant during build (e.g. the MNA row index of an
    /// output node) so analyses driven from outside the build lambda can
    /// refer to it:
    /// `solver::ac_sweep(tb.view().equations(), size_t(tb.note("out")), sw)`.
    void note(std::string name, double value) { notes_[std::move(name)] = value; }
    [[nodiscard]] double note(const std::string& name) const;

    // --- transient lifecycle -----------------------------------------------
    void set_stop_time(const de::time& t) { stop_time_ = t; }
    void set_sample_period(const de::time& p) { sample_period_ = p; }
    [[nodiscard]] const de::time& stop_time() const noexcept { return stop_time_; }
    [[nodiscard]] const de::time& sample_period() const noexcept { return sample_period_; }

    void elaborate();

    /// Transient run for the configured stop time (set_stop_time), recording
    /// all probes at the configured sample period, then evaluating all
    /// measurements.  May be called repeatedly to continue a run.
    void run();
    /// Same, advancing by an explicit duration.
    void run(const de::time& duration);

    // --- results -----------------------------------------------------------
    [[nodiscard]] const util::memory_trace& trace() const noexcept { return trace_; }
    [[nodiscard]] const std::vector<double>& times() const noexcept {
        return trace_.times();
    }
    /// Recorded samples of a named probe.
    [[nodiscard]] std::vector<double> waveform(const std::string& probe_name) const;
    [[nodiscard]] std::vector<std::string> probe_names() const;

    /// Value of a named measurement (valid after run()).
    [[nodiscard]] double measurement(const std::string& name) const;
    [[nodiscard]] const std::map<std::string, double>& measurements() const noexcept {
        return measured_;
    }

    /// Write the recorded probes as a tabular file (t, then one column per
    /// probe) — the quick way for examples to keep emitting waveforms.
    void save_trace(const std::string& path) const;

    // --- checkpoint/restore (core/snapshot) ----------------------------------
    /// Write a full-state snapshot of this testbench to `path` (one SCA1
    /// frame of type wire::msg_type::snapshot_state).  The simulation must
    /// be at a settled point — i.e. run() has returned.  Resume with
    /// scenario::resume(path).
    void snapshot(const std::string& path);

    /// Resume plumbing: replicate exactly what the first run() does before
    /// advancing time — mark the bench as run and attach the probe recorder
    /// process — so process registration order matches the saved context.
    /// Called by core/snapshot's restore path; not useful on its own.
    void attach_trace_for_resume();

    // --- analysis handle ---------------------------------------------------
    /// The continuous-time view (ELN network / LSF system) whose equations()
    /// the frequency- and static-domain analyses (solver::ac_sweep,
    /// noise_sweep, dc_solve) operate on.  With no argument the testbench
    /// must contain exactly one view; with a name, the view with that full
    /// hierarchical name.  Elaborates first, so the analyses can take a
    /// freshly built testbench.
    [[nodiscard]] tdf::dae_module& view();
    [[nodiscard]] tdf::dae_module& view(const std::string& full_name);

private:
    /// Mark the bench as run and, on the first call with probes, register
    /// the recorder process (core::record).
    void attach_trace();

    std::string name_;
    // A separate allocation, not a member object: an inline context
    // measured ~4% slower build + elaborate on the RC-stream model.
    std::unique_ptr<de::simulation_context> ctx_;
    util::object_bag bag_;
    util::memory_trace trace_;
    params params_;
    de::time stop_time_ = de::time::zero();
    de::time sample_period_ = de::time::zero();
    bool trace_attached_ = false;
    bool has_run_ = false;
    std::vector<std::pair<std::string, std::function<double()>>> measurement_defs_;
    std::map<std::string, double> measured_;
    std::map<std::string, double> notes_;
    std::map<std::string, std::function<void(double)>> param_hooks_;
};

// --------------------------------------------------------------- scenario --

/// A named, reusable recipe for building testbenches.  Copyable handle to
/// immutable shared state; building and running testbenches from one
/// scenario on several threads at once is safe.
class scenario {
public:
    using build_fn = std::function<void(testbench&, const params&)>;
    struct impl;  // shared immutable state (definition in scenario.cpp)

    scenario() = default;

    /// Define (or redefine) a scenario and register it by name.
    static scenario define(std::string name, build_fn build);
    static scenario define(std::string name, params defaults, build_fn build);

    /// Look up a previously defined scenario; throws when unknown.
    [[nodiscard]] static scenario find(const std::string& name);

    /// Sorted names of every registered scenario — the service catalog the
    /// streaming server (src/server/) enumerates for clients.
    [[nodiscard]] static std::vector<std::string> names();

    [[nodiscard]] bool valid() const noexcept { return impl_ != nullptr; }
    [[nodiscard]] const std::string& name() const;
    [[nodiscard]] const params& defaults() const;

    /// Instantiate a testbench with `overrides` layered on the defaults.
    /// The new testbench's context becomes current on the calling thread.
    [[nodiscard]] std::unique_ptr<testbench> build(const params& overrides = {}) const;

    /// Rebuild a testbench from a snapshot file written by
    /// testbench::snapshot() and overlay the saved state: the returned bench
    /// stands at the saved simulation time, and run(delta) continues
    /// bit-identically with the uninterrupted run.  The snapshot's scenario
    /// must be registered (same name, structurally identical build).
    /// Implemented in core/snapshot.cpp.
    [[nodiscard]] static std::unique_ptr<testbench> resume(const std::string& path);

private:
    explicit scenario(std::shared_ptr<const impl> i) : impl_(std::move(i)) {}

    std::shared_ptr<const impl> impl_;
};

namespace detail {
/// Deterministic per-run seed derivation (splitmix64 of base ^ index).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) noexcept;
}  // namespace detail

}  // namespace sca::core

#endif  // SCA_CORE_SCENARIO_HPP
