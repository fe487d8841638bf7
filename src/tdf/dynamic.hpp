// Dynamic TDF: runtime attribute changes with incremental rescheduling.
//
// A module that overrides change_attributes() (and declares it via
// does_attribute_changes()) may call request_timestep() / request_rate()
// between cluster periods; the owning cluster then re-resolves timesteps and
// recompiles its firing program before the next period.  Recompilation is
// incremental: every visited rate configuration is cached in a
// schedule_cache keyed by the cluster's attribute signature, so repeat
// visits (a model oscillating between a fast and a slow state) are a hash
// lookup, not a schedule compilation.  Clusters without any
// does_attribute_changes() module never touch this machinery and keep the
// compiled static fast path bit-identically.
#ifndef SCA_TDF_DYNAMIC_HPP
#define SCA_TDF_DYNAMIC_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "kernel/time.hpp"
#include "tdf/schedule.hpp"

namespace sca::tdf {

/// Flattened encoding of every schedule-determining attribute of a cluster:
/// per member module (in cluster order) the module timestep request in
/// femtoseconds, then per port the (rate, delay) pair.  Two equal signatures
/// resolve to identical schedules, so the signature is the cache key.
struct attribute_signature {
    std::vector<std::uint64_t> words;

    bool operator==(const attribute_signature&) const = default;
};

/// FNV-1a over the signature words.
struct attribute_signature_hash {
    [[nodiscard]] std::size_t operator()(const attribute_signature& s) const noexcept;
};

/// Everything a cluster installs when a rate configuration becomes active:
/// the resolved timing, the repetition vector, and the compiled firing
/// program with its ring-buffer capacities.  Module/port entries follow the
/// cluster's member order (ports module-major, in declaration order).
struct cluster_config {
    de::time period;
    std::vector<std::uint64_t> repetitions;  // per member module
    std::vector<de::time> module_timesteps;  // per member module
    std::vector<de::time> port_timesteps;    // module-major port order
    compiled_schedule compiled;              // program + buffer capacities
};

/// Per-cluster cache of compiled schedules keyed by attribute signature.
/// find() counts hits and misses; the counters back the incremental-
/// rescheduling contract asserted in tests and reported by benches.
///
/// The cache is bounded (k_max_entries): a model whose requested timestep is
/// computed from signal data can produce an endless stream of distinct
/// configurations, and an unbounded cache would grow without limit over a
/// long run.  When full, an arbitrary entry is evicted — the cache is purely
/// an optimization, a future miss just recompiles.
class schedule_cache {
public:
    static constexpr std::size_t k_max_entries = 256;

    /// Cached configuration for `sig`, or nullptr (counted as hit / miss).
    [[nodiscard]] const cluster_config* find(const attribute_signature& sig);

    /// Store the configuration compiled for `sig` (overwrites duplicates;
    /// evicts an arbitrary entry when the cache is full).
    void insert(const attribute_signature& sig, cluster_config cfg);

    [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
    [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

private:
    std::unordered_map<attribute_signature, cluster_config, attribute_signature_hash>
        entries_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

}  // namespace sca::tdf

#endif  // SCA_TDF_DYNAMIC_HPP
