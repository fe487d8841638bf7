#include "tdf/schedule.hpp"

#include <algorithm>
#include <numeric>

#include "util/report.hpp"

namespace sca::tdf {

namespace {

/// Exact rational with int64 numerator/denominator, kept reduced.
struct rational {
    std::int64_t num = 0;
    std::int64_t den = 1;

    static rational make(std::int64_t n, std::int64_t d) {
        const std::int64_t g = std::gcd(n, d);
        if (g != 0) {
            n /= g;
            d /= g;
        }
        if (d < 0) {
            n = -n;
            d = -d;
        }
        return {n, d};
    }

    [[nodiscard]] rational times(std::int64_t n, std::int64_t d) const {
        return make(num * n, den * d);
    }

    bool operator==(const rational&) const = default;
};

}  // namespace

std::vector<std::uint64_t> repetition_vector(std::size_t n,
                                             const std::vector<rate_edge>& edges) {
    // Adjacency with rate ratio: rep[to] = rep[from] * out_rate / in_rate.
    struct link {
        std::size_t other;
        std::int64_t num;  // multiply by num/den going from `this` to `other`
        std::int64_t den;
    };
    std::vector<std::vector<link>> adj(n);
    for (const auto& e : edges) {
        util::require(e.from < n && e.to < n, "repetition_vector", "edge index out of range");
        util::require(e.out_rate > 0 && e.in_rate > 0, "repetition_vector",
                      "rates must be positive");
        adj[e.from].push_back({e.to, e.out_rate, e.in_rate});
        adj[e.to].push_back({e.from, e.in_rate, e.out_rate});
    }

    std::vector<rational> rep(n, rational{0, 1});
    std::vector<std::size_t> stack;
    for (std::size_t start = 0; start < n; ++start) {
        if (rep[start].num != 0) continue;
        rep[start] = rational{1, 1};
        stack.push_back(start);
        while (!stack.empty()) {
            const std::size_t u = stack.back();
            stack.pop_back();
            for (const auto& l : adj[u]) {
                const rational expected = rep[u].times(l.num, l.den);
                if (rep[l.other].num == 0) {
                    rep[l.other] = expected;
                    stack.push_back(l.other);
                } else {
                    util::require(rep[l.other] == expected, "repetition_vector",
                                  "inconsistent dataflow rates: no finite static "
                                  "schedule exists for this graph");
                }
            }
        }
    }

    // Scale to the minimal integer vector: multiply by lcm of denominators,
    // then divide by the gcd of the numerators.
    std::int64_t den_lcm = 1;
    for (const auto& r : rep) den_lcm = std::lcm(den_lcm, r.den);
    std::vector<std::uint64_t> result(n);
    std::int64_t num_gcd = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t v = rep[i].num * (den_lcm / rep[i].den);
        result[i] = static_cast<std::uint64_t>(v);
        num_gcd = std::gcd(num_gcd, v);
    }
    if (num_gcd > 1) {
        for (auto& v : result) v /= static_cast<std::uint64_t>(num_gcd);
    }
    return result;
}

compiled_schedule compile_schedule(const std::vector<std::uint64_t>& repetitions,
                                   const std::vector<sdf_signal_desc>& signals,
                                   std::uint64_t max_batch_periods) {
    util::require(max_batch_periods >= 1, "compile_schedule",
                  "max batch periods must be >= 1");
    const std::size_t n_mod = repetitions.size();
    const std::size_t n_sig = signals.size();

    // Flat per-module port tables so the PASS loop and the pass replay below
    // run on plain indexed vectors (no associative lookups).
    struct input_ref {
        std::size_t signal;
        std::size_t reader;  // index into signals[signal].readers
        std::int64_t rate;
        std::int64_t delay;
        std::int64_t own_rate;  // tokens this module writes to `signal` per firing
    };
    struct output_ref {
        std::size_t signal;
        std::int64_t rate;
    };
    std::vector<std::vector<input_ref>> inputs(n_mod);
    std::vector<std::vector<output_ref>> outputs(n_mod);

    for (std::size_t s = 0; s < n_sig; ++s) {
        const sdf_signal_desc& sig = signals[s];
        util::require(sig.writer.module < n_mod, "compile_schedule",
                      "writer module index out of range");
        util::require(sig.writer.rate > 0, "compile_schedule", "writer rate must be positive");
        outputs[sig.writer.module].push_back({s, sig.writer.rate});
        for (std::size_t r = 0; r < sig.readers.size(); ++r) {
            const sdf_endpoint& rd = sig.readers[r];
            util::require(rd.module < n_mod, "compile_schedule",
                          "reader module index out of range");
            util::require(rd.rate > 0, "compile_schedule", "reader rate must be positive");
            const std::int64_t own = rd.module == sig.writer.module ? sig.writer.rate : 0;
            inputs[rd.module].push_back({s, r, rd.rate, rd.delay, own});
        }
    }

    // Token bookkeeping shared by PASS and the replay: tokens written per
    // signal (including the writer's delay tokens) and consumed per reader.
    std::vector<std::int64_t> produced(n_sig);
    std::vector<std::vector<std::int64_t>> consumed(n_sig);
    auto reset_tokens = [&] {
        for (std::size_t s = 0; s < n_sig; ++s) {
            produced[s] = signals[s].writer.delay;
            consumed[s].assign(signals[s].readers.size(), 0);
        }
    };
    // Whether `c` consecutive firings of `m` from the current state read
    // only tokens that exist.  Firing i needs consumed + (i + 1) x rate -
    // delay <= produced + i x own_rate: linear in i, so checking the first
    // and the last firing covers all of them.
    auto can_fire = [&](std::size_t m, std::int64_t c) {
        for (const input_ref& in : inputs[m]) {
            const std::int64_t short_by =
                consumed[in.signal][in.reader] - in.delay - produced[in.signal];
            if (short_by + in.rate > 0 || short_by + c * in.rate > (c - 1) * in.own_rate) {
                return false;
            }
        }
        return true;
    };
    auto fire = [&](std::size_t m, std::int64_t c) {
        for (const input_ref& in : inputs[m]) consumed[in.signal][in.reader] += c * in.rate;
        for (const output_ref& o : outputs[m]) produced[o.signal] += c * o.rate;
    };

    compiled_schedule out;
    for (std::size_t m = 0; m < n_mod; ++m) out.total_firings += repetitions[m];

    // PASS construction (Lee/Messerschmitt), greedy per module: firing a
    // module to exhaustion before moving on maximizes run lengths, so the
    // run-length-encoded program stays short.  Any PASS order produces the
    // same token streams (SDF is determinate).
    reset_tokens();
    std::vector<std::uint64_t> fired(n_mod, 0);
    std::uint64_t scheduled = 0;
    while (scheduled < out.total_firings) {
        bool progress = false;
        for (std::size_t m = 0; m < n_mod; ++m) {
            std::uint64_t run = 0;
            while (fired[m] < repetitions[m] && can_fire(m, 1)) {
                fire(m, 1);
                ++fired[m];
                ++run;
            }
            if (run == 0) continue;
            progress = true;
            scheduled += run;
            if (!out.program.empty() && out.program.back().module == m) {
                out.program.back().count += run;
            } else {
                out.program.push_back({m, fired[m] - run, run});
            }
        }
        util::require(progress, "tdf_schedule",
                      "dataflow deadlock: no module can fire; insert port delays to "
                      "break the cycle");
    }

    // Replay a pass of `k` periods entry by entry (every count scaled by k).
    // Returns false when a firing would read a token before it exists;
    // otherwise `caps` receives each signal's ring capacity: the largest
    // live-token span (newest produced minus oldest still needed; delayed
    // readers reach `delay` tokens into the past) plus one firing of slack,
    // but never less than the pass's tokens (writer rate x repetitions x k),
    // so a pass never wraps mid-period.  Within an entry the span is convex
    // in the firing index, so sampling it after the first and after the last
    // firing finds its maximum.
    std::vector<std::int64_t> max_span(n_sig);
    auto span = [&](std::size_t s) {
        std::int64_t oldest = produced[s];
        const sdf_signal_desc& sig = signals[s];
        for (std::size_t r = 0; r < sig.readers.size(); ++r) {
            oldest = std::min(oldest, consumed[s][r] -
                                          static_cast<std::int64_t>(sig.readers[r].delay));
        }
        max_span[s] = std::max(max_span[s], produced[s] - oldest);
    };
    auto replay = [&](std::uint64_t k, std::vector<std::size_t>& caps) {
        reset_tokens();
        std::fill(max_span.begin(), max_span.end(), 0);
        for (std::size_t s = 0; s < n_sig; ++s) span(s);
        for (const firing_entry& e : out.program) {
            const auto n = static_cast<std::int64_t>(e.count * k);
            for (const std::int64_t chunk : {std::int64_t{1}, n - 1}) {
                if (chunk == 0) continue;
                if (!can_fire(e.module, chunk)) return false;
                fire(e.module, chunk);
                for (const output_ref& o : outputs[e.module]) span(o.signal);
            }
        }
        caps.resize(n_sig);
        for (std::size_t s = 0; s < n_sig; ++s) {
            const sdf_endpoint& w = signals[s].writer;
            const std::uint64_t span_rule =
                static_cast<std::uint64_t>(std::max<std::int64_t>(max_span[s], 1)) + w.rate;
            const std::uint64_t pass_rule = w.rate * repetitions[w.module] * k;
            caps[s] = static_cast<std::size_t>(std::max(span_rule, pass_rule));
        }
        return true;
    };

    // Legality and ring size are both monotone in k, so a binary search
    // finds the largest k that fits; its first probe is the cap itself, the
    // usual answer.  A ring holds at least k tokens, so k never exceeds the
    // ring bound (a cluster without signals is held to it as well).
    constexpr std::uint64_t k_max_ring_tokens = std::uint64_t{1} << 16;
    std::vector<std::size_t> caps;
    std::uint64_t lo = 1;
    std::uint64_t hi = std::min(max_batch_periods, k_max_ring_tokens);
    for (std::uint64_t k = hi; lo < hi; k = lo + (hi - lo + 1) / 2) {
        if (replay(k, caps) &&
            std::all_of(caps.begin(), caps.end(),
                        [](std::size_t c) { return c <= k_max_ring_tokens; })) {
            lo = k;
            out.buffer_capacity.swap(caps);
        } else {
            hi = k - 1;
        }
    }
    // One period is legal by construction (PASS built it).
    if (lo == 1) (void)replay(1, out.buffer_capacity);
    out.batch_periods = lo;
    return out;
}

}  // namespace sca::tdf
