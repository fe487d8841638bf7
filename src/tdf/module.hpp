// TDF module base class.
//
//   struct scaler : sca::tdf::module {
//       sca::tdf::in<double> x;
//       sca::tdf::out<double> y;
//       explicit scaler(const sca::de::module_name& nm)
//           : module(nm), x("x"), y("y") {}
//       void set_attributes() override { set_timestep(1.0, sca::de::time_unit::us); }
//       void processing() override { y.write(2.0 * x.read()); }
//   };
//
// Modules connected through tdf::signal form a cluster; the synchronization
// layer derives the static schedule and drives the cluster from one DE
// process (paper §3: "continuous behaviour encapsulated in static dataflow
// modules", "synchronisation between discrete event and continuous time MoCs
// using static dataflow semantics").
#ifndef SCA_TDF_MODULE_HPP
#define SCA_TDF_MODULE_HPP

#include <complex>
#include <cstdint>
#include <vector>

#include "kernel/module.hpp"
#include "kernel/time.hpp"
#include "tdf/port.hpp"

namespace sca::solver {
struct sweep;
struct ac_point;
}  // namespace sca::solver

namespace sca::tdf {

class cluster;
class registry;
class block_view;

/// How a module exchanges samples with the DE world, in increasing order of
/// coupling: a cluster with a DE writer synchronizes with the kernel every
/// period, one that only reads DE signals batches periods like a pure one.
enum class de_coupling : std::uint8_t { none, reads, writes };

class module : public de::module {
public:
    [[nodiscard]] const char* kind() const noexcept override { return "tdf_module"; }

    /// Set rates, delays and timesteps. Called once before scheduling.
    virtual void set_attributes() {}

    /// Called once after the schedule is known, before the first processing().
    virtual void initialize() {}

    /// The per-activation behavior.
    virtual void processing() = 0;

    // --- block execution (see tdf/block.hpp) --------------------------------
    /// Declare that this module implements the span-based block path.  The
    /// cluster then hands it runs of consecutive firings through
    /// processing(block_view&) instead of one virtual call per sample.
    [[nodiscard]] virtual bool has_block_processing() const { return false; }

    /// Process `blk.count()` consecutive firings over contiguous per-port
    /// spans.  Only called when has_block_processing() returns true; must
    /// compute exactly what count() calls of processing() would (the
    /// per-sample path remains the fallback at ring-buffer wrap points and
    /// when block execution is disabled, and shares this module's state).
    virtual void processing(block_view& blk);

    // --- dynamic TDF (runtime attribute changes) ----------------------------
    /// Declare that this module may change its attributes at runtime via
    /// change_attributes().  A cluster containing such a module becomes
    /// dynamic: it calls change_attributes() between periods and reschedules
    /// incrementally when a request lands.  Clusters without any dynamic
    /// module keep the compiled static fast path untouched.
    [[nodiscard]] virtual bool does_attribute_changes() const { return false; }

    /// Declare that this module tolerates attribute changes requested by
    /// other cluster members (its timestep and port sample periods may then
    /// move between periods).  A module that changes attributes itself
    /// accepts them by default; a reschedule request reaching a member with
    /// accept_attribute_changes() == false is an error naming that member's
    /// full hierarchical path.
    [[nodiscard]] virtual bool accept_attribute_changes() const {
        return does_attribute_changes();
    }

    /// Called on dynamic modules between cluster periods (after the period's
    /// firings, before the next period is scheduled).  Override and call
    /// request_timestep() / request_rate() to retime the cluster; the new
    /// configuration takes effect at the next period boundary.
    virtual void change_attributes() {}

    /// Replace this module's timestep anchor (valid only inside
    /// change_attributes()).  The cluster re-resolves all member timesteps
    /// against the new anchor before the next period.
    void request_timestep(const de::time& t);
    void request_timestep(double v, de::time_unit u) { request_timestep(de::time(v, u)); }

    /// Request a new rate on one of this module's ports (valid only inside
    /// change_attributes()).  Changes the cluster's repetition vector; the
    /// recompiled (or cache-hit) firing program applies from the next period.
    void request_rate(port_base& p, unsigned rate);

    /// Optional small-signal frequency-domain model (paper §4, [6]: the
    /// mixed-signal system can be simulated "in the frequency domain,
    /// provided frequency-domain models are added to the discrete-time
    /// components").  Single-input single-output response at `f` Hz;
    /// modules without a frequency-domain model report has_ac_model()
    /// false and are rejected by cascade analyses.
    [[nodiscard]] virtual bool has_ac_model() const { return false; }
    [[nodiscard]] virtual std::complex<double> ac_response(double f) const {
        (void)f;
        return {1.0, 0.0};
    }

    // --- attribute helpers (valid inside set_attributes) --------------------
    /// Anchor this module's activation period.
    void set_timestep(const de::time& t) { timestep_request_ = t; }
    void set_timestep(double v, de::time_unit u) { timestep_request_ = de::time(v, u); }

    // --- timing queries (valid inside initialize()/processing()) -----------
    /// Activation period of this module.
    [[nodiscard]] const de::time& timestep() const noexcept { return timestep_; }
    /// Time of the first sample of the current activation.
    [[nodiscard]] const de::time& tdf_time() const noexcept { return current_time_; }

    [[nodiscard]] const de::time& timestep_request() const noexcept {
        return timestep_request_;
    }

    /// Ports declared by this module (registered automatically).
    [[nodiscard]] const std::vector<port_base*>& ports() const noexcept { return ports_; }
    void register_port(port_base& p) { ports_.push_back(&p); }

    /// Number of activations per cluster cycle (repetition count).
    [[nodiscard]] std::uint64_t repetitions() const noexcept { return repetitions_; }

    /// Total activations so far (diagnostics, benches).
    [[nodiscard]] std::uint64_t activation_count() const noexcept { return activations_; }

    // --- cluster interface ---------------------------------------------------
    void set_resolved_timestep(const de::time& t) noexcept { timestep_ = t; }
    void set_repetitions(std::uint64_t r) noexcept { repetitions_ = r; }

    /// Execute one firing at cycle start `t0`, firing index `k` in the cycle.
    void fire(const de::time& t0, std::uint64_t k) { fire_run(t0, k, 1); }

    /// Execute `n` consecutive firings starting at firing index `k0` of the
    /// cycle beginning at `t0` (the compiled firing program's inner loop).
    void fire_run(const de::time& t0, std::uint64_t k0, std::uint64_t n);

    /// Execute `n` consecutive firings through the block path: maximal
    /// contiguous sub-runs go to processing(block_view&); a firing whose
    /// tokens straddle a ring-buffer wrap point falls back to one per-sample
    /// fire.  Requires has_block_processing().
    void fire_block_run(const de::time& t0, std::uint64_t k0, std::uint64_t n);

    /// Block calls and samples processed through them (diagnostics/benches;
    /// wrap-point fallback firings count toward activation_count() only).
    [[nodiscard]] std::uint64_t block_call_count() const noexcept { return block_calls_; }
    [[nodiscard]] std::uint64_t block_firing_count() const noexcept {
        return block_firings_;
    }

    /// Declare that this module reads or writes DE signals outside its own
    /// object subtree (the DE-controlled ELN/LSF components call this on
    /// their network or system; bound DE ports below the module count on
    /// their own).  The strongest declaration wins.
    void declare_de_coupled(de_coupling c) noexcept {
        if (c > de_coupling_) de_coupling_ = c;
    }
    [[nodiscard]] de_coupling de_coupling_declared() const noexcept { return de_coupling_; }

    [[nodiscard]] cluster* owning_cluster() const noexcept { return cluster_; }
    void set_owning_cluster(cluster& c) noexcept { cluster_ = &c; }

    /// Scope guard state for change_attributes(): request_timestep() and
    /// request_rate() are only legal while the cluster runs the callback.
    void set_in_change_attributes(bool in) noexcept { in_change_attributes_ = in; }

    // --- checkpoint/restore (core/snapshot) ---------------------------------
    /// Overlay the runtime bookkeeping a snapshot captured for this module
    /// (activation clock and diagnostic counters).  Called by the owning
    /// cluster's restore, after the schedule is reinstalled.
    void restore_runtime_state(const de::time& current_time, std::uint64_t activations,
                               std::uint64_t block_calls,
                               std::uint64_t block_firings) noexcept {
        current_time_ = current_time;
        activations_ = activations;
        block_calls_ = block_calls;
        block_firings_ = block_firings;
    }

    /// Staged timestep request (consumed by the cluster at the reschedule
    /// point following change_attributes()).
    [[nodiscard]] bool has_pending_timestep() const noexcept {
        return has_pending_timestep_;
    }
    [[nodiscard]] const de::time& pending_timestep() const noexcept {
        return pending_timestep_;
    }
    void clear_pending_timestep() noexcept { has_pending_timestep_ = false; }

protected:
    explicit module(const de::module_name& nm);

private:
    std::vector<port_base*> ports_;
    de::time timestep_request_;  // zero = unconstrained
    de::time timestep_;
    de::time current_time_;
    de::time pending_timestep_;  // staged by request_timestep()
    std::uint64_t repetitions_ = 0;
    std::uint64_t activations_ = 0;
    std::uint64_t block_calls_ = 0;
    std::uint64_t block_firings_ = 0;
    de_coupling de_coupling_ = de_coupling::none;
    bool in_change_attributes_ = false;
    bool has_pending_timestep_ = false;
    cluster* cluster_ = nullptr;
};

/// Small-signal response of a cascade of TDF modules that carry
/// frequency-domain models (paper §4 [6]: mixed-signal frequency-domain
/// simulation "provided frequency-domain models are added to the
/// discrete-time components"): the product of their ac_response() at each
/// sweep frequency.  Throws if the chain is empty or any module lacks a
/// model.  Include solver/ac.hpp to use the result.
[[nodiscard]] std::vector<solver::ac_point> cascade_response(
    const std::vector<const module*>& chain, const solver::sweep& sw);

/// Structural-only TDF module: a reusable subsystem that owns child TDF
/// modules (via make_child) and exposes TDF ports that forward to them.  A
/// composite never fires — its ports have no owner module, so at elaboration
/// they resolve as pure aliases of the terminal signals while the children
/// join the cluster schedule individually.
///
///   struct gain_chain : sca::tdf::composite {
///       sca::tdf::in<double> in;
///       sca::tdf::out<double> out;
///       explicit gain_chain(const sca::de::module_name& nm)
///           : composite(nm), in("in"), out("out") {
///           auto& a = make_child<scaler>("a");
///           auto& b = make_child<scaler>("b");
///           a.x.bind(in);             // forwarded input
///           connect(a.y, b.x);        // auto-created interior signal
///           b.y.bind(out);            // exported output
///       }
///   };
class composite : public de::module {
public:
    [[nodiscard]] const char* kind() const noexcept override { return "tdf_composite"; }

protected:
    explicit composite(const de::module_name& nm) : de::module(nm) {}
};

}  // namespace sca::tdf

#endif  // SCA_TDF_MODULE_HPP
