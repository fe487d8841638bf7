// Cluster discovery, static scheduling, and DE-kernel attachment: the
// synchronization layer between the dataflow/continuous-time world and the
// discrete-event kernel (paper §3: "the concept of a dedicated manager, let
// us call it the synchronization layer").
//
// At elaboration each cluster compiles its repetition vector into a flat
// one-period firing program (run-length-encoded {module, count} entries)
// plus the number of periods one pass of it may fuse, with ring buffers
// preallocated for such a pass; at runtime every cluster executes passes of
// that program scaled by their period count, as a tight loop with no map
// lookups or allocations.  Clusters that do not write DE signals batch
// several schedule periods per DE kernel interaction, planned once their
// wake instant has settled and bounded by the next pending DE event and the
// end of the current run; clusters that write DE signals synchronize every
// period.
#ifndef SCA_TDF_CLUSTER_HPP
#define SCA_TDF_CLUSTER_HPP

#include <cstdint>
#include <vector>

#include "kernel/context.hpp"
#include "kernel/time.hpp"
#include "tdf/dynamic.hpp"
#include "tdf/schedule.hpp"

namespace sca::util {
class byte_writer;
class byte_reader;
}  // namespace sca::util

namespace sca::tdf {

class module;
class signal_base;

/// A maximal set of TDF modules connected through TDF signals, executed as
/// one statically scheduled unit from a single DE process.
class cluster : private de::pre_timestep_callback {
public:
    /// One compiled firing-program entry: `count` consecutive firings of
    /// `mod`, the first at cycle-relative firing index `first_firing`.  A
    /// pass of k periods fires `count * k` of them from `first_firing * k`.
    struct program_entry {
        module* mod;
        std::uint64_t first_firing;
        std::uint64_t count;
    };

    /// Default cap on schedule periods executed per DE kernel interaction.
    static constexpr std::uint64_t k_default_max_batch_periods = 64;

    explicit cluster(std::vector<module*> modules);

    /// Compute repetition vector, resolve timesteps, compile the firing
    /// program (PASS), size the buffers, and call initialize() on modules.
    void elaborate();

    /// Register the driving DE process with the kernel.  The driving process
    /// runs one cycle per timed wake and requests the pre-timestep stage;
    /// there, once every same-instant process has run, a cluster that writes
    /// no DE signal runs further cycles ahead of DE time — never past the
    /// next pending DE event or the end of the current scheduler run — and
    /// every cluster re-arms its next timed wake.
    void attach(de::simulation_context& ctx);

    /// Set by the registry: the clusters that write DE signals, whose next
    /// wakes bound every batch (at a shared instant their re-arm may still
    /// be pending).  The processes of the other clusters, which cannot
    /// observe one another, are marked at attach(), and their wakes bound
    /// nothing.
    void set_batch_bounds(std::vector<const cluster*> writers);

    /// The driving DE process (valid after attach()).
    [[nodiscard]] const de::method_process* process() const noexcept { return proc_; }

    [[nodiscard]] const de::time& period() const noexcept { return period_; }
    [[nodiscard]] const std::vector<module*>& modules() const noexcept { return modules_; }
    /// The compiled (run-length-encoded) one-period firing program.
    [[nodiscard]] const std::vector<program_entry>& program() const noexcept {
        return program_;
    }
    /// Periods one pass of the program fuses at most, as compile_schedule
    /// decided (<= max_batch_periods(); 1 on dynamic clusters and on loops
    /// with a single delay token through several modules).
    [[nodiscard]] std::uint64_t batch_periods() const noexcept {
        return last_compiled_.batch_periods;
    }
    [[nodiscard]] std::uint64_t cycle_count() const noexcept { return cycles_; }

    /// True when any member module reads or writes DE signals (converter
    /// ports or DE-controlled ELN/LSF components).
    [[nodiscard]] bool de_coupled() const noexcept { return de_coupled_; }

    /// True when any member writes DE signals (tdf::de_out, a bound de::out
    /// port, eln::de_vsink, lsf::to_de): such clusters synchronize with the
    /// DE kernel every period, while clusters that only read DE batch.
    [[nodiscard]] bool de_writer() const noexcept { return de_writer_; }

    /// Schedule periods executed per DE kernel interaction at most (>= 1;
    /// 1 disables batching).  Set through the registry defaults.
    [[nodiscard]] std::uint64_t max_batch_periods() const noexcept { return max_batch_; }

    // --- block execution (see tdf/block.hpp) --------------------------------
    /// Whether the block path is on (default).  Off is the exact per-sample
    /// executor; results are bit-identical either way.  Set through the
    /// registry defaults.
    [[nodiscard]] bool block_execution() const noexcept { return block_execution_; }

    /// Cycles executed in passes of more than one period (diagnostics).
    [[nodiscard]] std::uint64_t fused_cycle_count() const noexcept {
        return fused_cycles_;
    }

    // --- dynamic TDF (runtime attribute changes) ----------------------------
    /// True when any member declares does_attribute_changes(): the cluster
    /// calls change_attributes() between periods and reschedules when a
    /// request lands.  Static clusters (the common case) never enter this
    /// path and keep the compiled fast path bit-identically.
    [[nodiscard]] bool is_dynamic() const noexcept { return dynamic_; }

    /// Reschedules applied so far (requests that actually changed something).
    [[nodiscard]] std::uint64_t reschedule_count() const noexcept { return reschedules_; }
    /// Full schedule compilations triggered by reschedules (cache misses);
    /// stays constant once every visited configuration is cached.
    [[nodiscard]] std::uint64_t recompile_count() const noexcept { return recompiles_; }
    [[nodiscard]] std::uint64_t schedule_cache_hits() const noexcept {
        return cache_.hits();
    }
    [[nodiscard]] std::uint64_t schedule_cache_misses() const noexcept {
        return cache_.misses();
    }
    [[nodiscard]] std::size_t schedule_cache_size() const noexcept {
        return cache_.size();
    }

    // --- checkpoint/restore (core/snapshot) ----------------------------------
    /// Serialize the cluster's runtime state at a settled point: the
    /// schedule-determining attributes of every member (with the installed
    /// attribute signature, so restore revalidates instead of trusting),
    /// per-port stream positions, every signal's ring-buffer tokens, and the
    /// cycle/reschedule bookkeeping.
    void save_state(util::byte_writer& w) const;
    /// Restore onto a freshly elaborated cluster: overlay the saved
    /// attributes, reinstall the matching schedule (cache hit or recompile —
    /// only when the saved signature differs from the elaborated one), then
    /// overlay stream positions and ring-buffer tokens.  Token overlay runs
    /// last because schedule installation resets positions and buffers.
    void restore_state(util::byte_reader& r);

private:
    // The registry applies its defaults (registry::set_default_*) to every
    // cluster; these are not a per-cluster API.
    friend class registry;
    void set_max_batch_periods(std::uint64_t n);
    void set_block_execution(bool on) noexcept { block_execution_ = on; }

    void compute_repetitions();
    void resolve_timesteps();
    void build_schedule();
    void detect_de_coupling();
    /// Driving-process body: one cycle per timed wake (plus the
    /// change_attributes() window), then a pre-timestep request.
    void on_wake();
    /// Pre-timestep stage of a wake instant: run the batch, then re-arm.
    void pre_timestep() override;
    /// Fire `n` cluster cycles, the first starting at virtual time `start`,
    /// in passes of at most batch_periods() periods.  A dynamic cluster opens
    /// the change_attributes() window after each pass and stops early once a
    /// reschedule lands.
    void run_cycles(const de::time& start, std::uint64_t n);
    /// Cycles safe to run ahead of DE time, starting at next_cycle_start_.
    [[nodiscard]] std::uint64_t plan_batch_ahead() const;

    // --- dynamic rescheduling (see tdf/dynamic.hpp) -------------------------
    /// Compile the current rates/anchors into a firing program (the PASS run
    /// shared by elaboration and reschedule misses).
    [[nodiscard]] compiled_schedule compile_current() const;
    /// Install a compiled program into program_.
    void install_program(const compiled_schedule& compiled);
    /// Allocate ring buffers and restart stream positions.  `in_place`
    /// grows buffers only when needed (reschedules); elaboration allocates
    /// exactly.
    void size_buffers(const std::vector<std::size_t>& capacities, bool in_place);
    /// Call change_attributes() on every dynamic member; reschedule if a
    /// request landed.  Runs between periods (after a cycle's firings).
    void run_change_attributes();
    /// Gate, apply staged requests, and swap in the new configuration.
    void apply_attribute_changes();
    /// Swap in the configuration of the current attributes, whose signature
    /// is `sig`: from the schedule cache when it was visited before,
    /// otherwise via a full recompile that seeds the cache.
    void install_signature(const attribute_signature& sig);
    /// Current schedule-determining attributes as a cache key.
    [[nodiscard]] attribute_signature compute_signature() const;
    /// Snapshot the installed configuration (for caching after a compile).
    [[nodiscard]] cluster_config snapshot_config() const;
    /// Install a cached configuration (timing + program + buffers).
    void install_config(const cluster_config& cfg);

    std::vector<module*> modules_;
    std::vector<signal_base*> signals_;
    std::vector<program_entry> program_;
    std::vector<const cluster*> writers_;
    std::vector<module*> dynamic_modules_;
    schedule_cache cache_;
    compiled_schedule last_compiled_;  // index form of the installed program
    de::time period_;
    de::time next_cycle_start_;
    std::uint64_t cycles_ = 0;
    std::uint64_t max_batch_ = k_default_max_batch_periods;
    std::uint64_t reschedules_ = 0;
    std::uint64_t recompiles_ = 0;
    std::uint64_t fused_cycles_ = 0;
    bool de_coupled_ = false;
    bool de_writer_ = false;
    bool dynamic_ = false;
    bool block_execution_ = true;
    de::method_process* proc_ = nullptr;
    de::simulation_context* ctx_ = nullptr;
};

/// Per-context registry of TDF modules; installs the elaboration hook that
/// builds clusters (created lazily through simulation_context::domain_data).
class registry {
public:
    explicit registry(de::simulation_context& ctx);
    ~registry();  // out of line: adopted signals need the complete type

    static registry& of(de::simulation_context& ctx);

    void add_module(module& m);

    [[nodiscard]] const std::vector<std::unique_ptr<cluster>>& clusters() const noexcept {
        return clusters_;
    }

    /// Batch cap applied to every cluster (existing and future).
    void set_default_max_batch_periods(std::uint64_t n);

    /// Block-execution default applied to every cluster (existing and
    /// future); the per-sample A/B baseline is set_default_block_execution(false).
    void set_default_block_execution(bool on);

    /// Cluster discovery + scheduling; runs as an elaboration hook.  Resolves
    /// every TDF port's forwarding chain first, so discovery traverses
    /// hierarchical (port-to-port) bindings transparently.
    void elaborate_clusters();

    /// Take ownership of an auto-created signal (see tdf/connect.hpp); the
    /// signal lives until the context is destroyed.
    signal_base& adopt_signal(std::unique_ptr<signal_base> s);

private:
    /// Metrics collector body (registered with the context): append the
    /// cluster/module/solver counter totals to `out`.
    void report_metrics(util::metrics_snapshot& out) const;

    de::simulation_context* ctx_;
    std::vector<module*> modules_;
    std::vector<std::unique_ptr<cluster>> clusters_;
    std::vector<std::unique_ptr<signal_base>> adopted_signals_;
    std::uint64_t default_max_batch_ = cluster::k_default_max_batch_periods;
    bool default_block_execution_ = true;
    bool elaborated_ = false;
};

}  // namespace sca::tdf

#endif  // SCA_TDF_CLUSTER_HPP
