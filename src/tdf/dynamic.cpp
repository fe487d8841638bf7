#include "tdf/dynamic.hpp"

namespace sca::tdf {

std::size_t attribute_signature_hash::operator()(
    const attribute_signature& s) const noexcept {
    // FNV-1a, folding each 64-bit word byte-free (multiply-xor per word is
    // enough: signatures are short and equality is checked on collision).
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::uint64_t w : s.words) {
        h ^= w;
        h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
}

const cluster_config* schedule_cache::find(const attribute_signature& sig) {
    const auto it = entries_.find(sig);
    if (it == entries_.end()) {
        ++misses_;
        return nullptr;
    }
    ++hits_;
    return &it->second;
}

void schedule_cache::insert(const attribute_signature& sig, cluster_config cfg) {
    if (entries_.size() >= k_max_entries && entries_.find(sig) == entries_.end()) {
        // Arbitrary eviction: any entry is as good as any other — a future
        // miss on the evicted configuration just recompiles it.
        entries_.erase(entries_.begin());
    }
    entries_[sig] = std::move(cfg);
}

}  // namespace sca::tdf
