// Timed synchronous dataflow (TDF) ports and signals.
//
// A TDF port carries `rate` samples per module activation, optionally shifted
// by `delay` initial tokens, at a fixed sample period (`timestep`).  Ports of
// connected modules form clusters that are statically scheduled (paper §3:
// SDF models "have the nice property that a finite static scheduling can
// always be found").
#ifndef SCA_TDF_PORT_HPP
#define SCA_TDF_PORT_HPP

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "kernel/object.hpp"
#include "kernel/time.hpp"
#include "util/bytes.hpp"
#include "util/report.hpp"

namespace sca::tdf {

class module;
class signal_base;
class cluster;

/// Common state of TDF input and output ports.
class port_base : public de::object {
public:
    [[nodiscard]] const char* kind() const noexcept override { return "tdf_port"; }

    /// Samples transported per module activation (>= 1).
    void set_rate(unsigned rate) {
        util::require(rate >= 1, name(), "rate must be >= 1");
        rate_ = rate;
    }
    [[nodiscard]] unsigned rate() const noexcept { return rate_; }

    /// Initial tokens inserted on this port (shifts the stream).
    void set_delay(unsigned delay) noexcept { delay_ = delay; }
    [[nodiscard]] unsigned delay() const noexcept { return delay_; }

    /// Anchor the sample period of this port (propagated to the cluster).
    void set_timestep(const de::time& t) { timestep_request_ = t; }
    void set_timestep(double value, de::time_unit unit) {
        timestep_request_ = de::time(value, unit);
    }
    [[nodiscard]] const de::time& timestep_request() const noexcept {
        return timestep_request_;
    }

    /// Resolved sample period; valid after cluster elaboration.
    [[nodiscard]] const de::time& timestep() const noexcept { return timestep_; }
    void set_resolved_timestep(const de::time& t) noexcept { timestep_ = t; }

    /// Module this port belongs to (normally the enclosing tdf::module).
    [[nodiscard]] module* owner() const noexcept { return owner_; }
    /// Attach to a module explicitly (used by ELN/LSF converter primitives
    /// whose ports belong to the embedding network module).
    void set_owner(module& m);

    [[nodiscard]] signal_base* bound_signal() const noexcept { return signal_; }
    [[nodiscard]] bool is_input() const noexcept { return is_input_; }
    [[nodiscard]] bool bound() const noexcept {
        return signal_ != nullptr || forward_ != nullptr;
    }

    /// Follow the port-to-port forwarding chain to the terminal signal and,
    /// for ports that belong to a tdf::module (dataflow endpoints), attach as
    /// reader/writer there.  Forwarding ports of composite modules resolve to
    /// the same signal but never attach — they are structural aliases.
    /// Called by the synchronization layer before cluster discovery;
    /// idempotent.  Unbound chains are an elaboration error reporting the
    /// full hierarchical path.
    void resolve();

    /// Absolute stream position (tokens handled so far, including delay).
    [[nodiscard]] std::uint64_t position() const noexcept { return position_; }
    void advance() noexcept { position_ += rate_; }
    /// Advance by `n` firings at once (block execution).
    void advance_n(std::uint64_t n) noexcept { position_ += rate_ * n; }
    void reset_position(std::uint64_t p) noexcept { position_ = p; }

    // --- block execution (see tdf/block.hpp) --------------------------------
    /// Ring-buffer offset (in tokens) of this port's next token: the next
    /// unread token for inputs (with the read-side delay already applied,
    /// floored modulo, so pre-stream tokens map onto their prefilled slots)
    /// or the next unwritten token for outputs.
    [[nodiscard]] std::size_t ring_offset() const;

    /// Largest number of consecutive firings (<= want) whose tokens stay
    /// contiguous in the ring buffer starting at ring_offset().  Zero means
    /// the very next firing straddles the wrap point and must run on the
    /// per-sample path.
    [[nodiscard]] std::uint64_t contiguous_firings(std::uint64_t want) const;

    // --- dynamic TDF (runtime attribute changes) ----------------------------
    /// Stage a rate request (module::request_rate); the owning cluster
    /// consumes it at the next reschedule point.  0 = no request staged.
    void stage_rate(unsigned rate) {
        util::require(rate >= 1, name(), "requested rate must be >= 1");
        staged_rate_ = rate;
    }
    [[nodiscard]] bool has_staged_rate() const noexcept { return staged_rate_ != 0; }
    [[nodiscard]] unsigned staged_rate() const noexcept { return staged_rate_; }
    void clear_staged_rate() noexcept { staged_rate_ = 0; }

protected:
    port_base(std::string name, bool is_input);

    /// Record a direct signal binding (double binding is an error).
    void record_signal_binding(signal_base& s);
    /// Record a port-to-port forwarding binding (double binding is an error).
    void record_port_binding(port_base& p);

    signal_base* signal_ = nullptr;
    port_base* forward_ = nullptr;
    module* owner_ = nullptr;
    unsigned rate_ = 1;
    unsigned delay_ = 0;
    unsigned staged_rate_ = 0;  // dynamic-rate request, 0 = none
    bool is_input_;
    bool resolved_ = false;
    de::time timestep_request_;  // zero = unconstrained
    de::time timestep_;
    std::uint64_t position_ = 0;
};

namespace detail {
/// Name for an auto-created wire: "ownerbasename_portbasename" (or
/// "portbasename_wire" for orphan ports).  Used by tdf/connect.hpp.
[[nodiscard]] std::string auto_wire_name(const port_base& from);
}  // namespace detail

/// Untyped TDF signal: one writer, any number of readers.
class signal_base : public de::object {
public:
    [[nodiscard]] const char* kind() const noexcept override { return "tdf_signal"; }

    [[nodiscard]] port_base* writer() const noexcept { return writer_; }
    [[nodiscard]] const std::vector<port_base*>& readers() const noexcept { return readers_; }

    void attach_writer(port_base& p);
    void attach_reader(port_base& p);

    /// Ring-buffer allocation; called by the cluster after scheduling.
    virtual void allocate(std::size_t capacity) = 0;

    /// Ring-buffer (re)allocation for a reschedule: grows only when the
    /// current capacity is insufficient, otherwise resets tokens in place
    /// (stream positions restart, so pre-stream tokens must read the
    /// initial value again).
    virtual void ensure_allocated(std::size_t capacity) = 0;

    /// Current ring-buffer capacity in tokens (valid after elaboration).
    [[nodiscard]] virtual std::size_t capacity() const noexcept = 0;

    /// Refresh the traced last-written value from the token at absolute
    /// stream index `index` (block writes bypass write_token, which would
    /// otherwise keep the probe current).
    virtual void refresh_last(std::uint64_t index) = 0;

    // --- checkpoint/restore (core/snapshot) ---------------------------------
    /// Serialize the ring-buffer contents (type tag, capacity, every token,
    /// initial and last-written value).  Called by the owning cluster so
    /// tokens are captured alongside the stream positions they pair with.
    virtual void save_tokens(util::byte_writer& w) const = 0;
    /// Reallocate to the *saved* capacity and overlay the tokens.  Ring
    /// indexing is modulo the buffer size, so restoring the exact capacity —
    /// not merely a sufficient one — is what keeps resumed token placement
    /// bit-identical.  Runs after the cluster reinstalls its schedule (which
    /// resets buffers), never before.
    virtual void restore_tokens(util::byte_reader& r) = 0;

protected:
    explicit signal_base(std::string name) : de::object(std::move(name)) {}

    port_base* writer_ = nullptr;
    std::vector<port_base*> readers_;
};

/// Typed TDF signal holding the token ring buffer.
template <typename T>
class signal : public signal_base {
public:
    explicit signal(std::string name = "tdf_signal") : signal_base(std::move(name)) {}

    void allocate(std::size_t capacity) override {
        util::require(capacity > 0, name(), "zero buffer capacity");
        buffer_.assign(capacity, initial_);
    }

    void ensure_allocated(std::size_t capacity) override {
        util::require(capacity > 0, name(), "zero buffer capacity");
        if (capacity > buffer_.size()) {
            buffer_.assign(capacity, initial_);
        } else {
            // In-place: keep the (possibly larger) allocation, refresh the
            // pre-stream prefill so restarted delay tokens are deterministic.
            std::fill(buffer_.begin(), buffer_.end(), initial_);
        }
    }

    [[nodiscard]] std::size_t capacity() const noexcept override { return buffer_.size(); }

    /// Value used for tokens before the start of the stream (delay tokens).
    /// Intended to be called from module initialize(), i.e. after buffer
    /// allocation but before any token is produced: the prefill is refreshed.
    void set_initial_value(const T& v) {
        initial_ = v;
        std::fill(buffer_.begin(), buffer_.end(), v);
        last_value_ = v;
    }

    /// Token by absolute stream index; negative indices yield the initial
    /// value. Returned by value: tokens are small, and std::vector<bool>
    /// has no stable element references.
    [[nodiscard]] T read_token(std::int64_t index) const {
        if (index < 0) return initial_;
        return buffer_[static_cast<std::size_t>(index) % buffer_.size()];
    }

    void write_token(std::uint64_t index, const T& v) {
        buffer_[index % buffer_.size()] = v;
        last_value_ = v;
    }

    /// Most recently written token (tracing probe).
    [[nodiscard]] const T& last_value() const noexcept { return last_value_; }

    /// Raw ring-buffer storage for block spans (tdf/block.hpp).  Only
    /// instantiated for span-capable element types (not std::vector<bool>).
    [[nodiscard]] T* data() noexcept { return buffer_.data(); }
    [[nodiscard]] const T* data() const noexcept { return buffer_.data(); }

    void refresh_last(std::uint64_t index) override {
        last_value_ = buffer_[index % buffer_.size()];
    }

    void save_tokens(util::byte_writer& w) const override {
        w.u8(token_type_tag());
        w.u64(static_cast<std::uint64_t>(buffer_.size()));
        for (std::size_t i = 0; i < buffer_.size(); ++i) write_value(w, buffer_[i]);
        write_value(w, initial_);
        write_value(w, last_value_);
    }

    void restore_tokens(util::byte_reader& r) override {
        util::require(r.u8() == token_type_tag(), "snapshot",
                      "signal '" + name() + "': token type differs from snapshot");
        const auto cap = static_cast<std::size_t>(r.u64());
        util::require(cap > 0, "snapshot",
                      "signal '" + name() + "': zero capacity in snapshot");
        buffer_.assign(cap, initial_);
        for (std::size_t i = 0; i < cap; ++i) buffer_[i] = read_value(r);
        initial_ = read_value(r);
        last_value_ = read_value(r);
    }

private:
    [[nodiscard]] static constexpr std::uint8_t token_type_tag() {
        if constexpr (std::is_same_v<T, bool>) {
            return 1;
        } else if constexpr (std::is_floating_point_v<T>) {
            return 2;
        } else if constexpr (std::is_integral_v<T>) {
            return 3;
        } else {
            return 0;  // unsupported: save/restore refuse below
        }
    }
    static void write_value(util::byte_writer& w, const T& v) {
        if constexpr (std::is_same_v<T, bool>) {
            w.boolean(v);
        } else if constexpr (std::is_floating_point_v<T>) {
            w.f64(static_cast<double>(v));
        } else if constexpr (std::is_integral_v<T>) {
            w.i64(static_cast<std::int64_t>(v));
        } else {
            util::report_fatal("snapshot", "unsupported TDF token type");
        }
    }
    [[nodiscard]] static T read_value(util::byte_reader& r) {
        if constexpr (std::is_same_v<T, bool>) {
            return r.boolean();
        } else if constexpr (std::is_floating_point_v<T>) {
            return static_cast<T>(r.f64());
        } else if constexpr (std::is_integral_v<T>) {
            return static_cast<T>(r.i64());
        } else {
            util::report_fatal("snapshot", "unsupported TDF token type");
        }
    }

    std::vector<T> buffer_{T{}};
    T initial_{};
    T last_value_{};
};

/// TDF input port.  Binds to a tdf::signal<T> or, hierarchically, to another
/// in<T> (a composite module's forwarded input); reader attachment happens at
/// elaboration once the forwarding chain is resolved.
template <typename T>
class in : public port_base {
public:
    explicit in(std::string name = "in") : port_base(std::move(name), /*is_input=*/true) {}

    void bind(signal<T>& s) { record_signal_binding(s); }
    /// Hierarchical binding: this port reads through `parent` (an input port
    /// of the enclosing composite, or of a sibling composite's interior).
    void bind(in<T>& parent) { record_port_binding(parent); }
    void operator()(signal<T>& s) { bind(s); }
    void operator()(in<T>& parent) { bind(parent); }

    /// Sample `k` (0 <= k < rate) of the current activation.
    [[nodiscard]] T read(unsigned k = 0) const {
        const auto* s = static_cast<const signal<T>*>(signal_);
        util::require(s != nullptr, name(), "read of unbound TDF port");
        util::require(k < rate_, name(), "sample index exceeds port rate");
        return s->read_token(static_cast<std::int64_t>(position_ + k) -
                             static_cast<std::int64_t>(delay_));
    }

private:
};

/// TDF output port.  Binds to a tdf::signal<T> or, hierarchically, to the
/// out<T> of the enclosing composite module (export); writer attachment
/// happens at elaboration once the forwarding chain is resolved.
template <typename T>
class out : public port_base {
public:
    explicit out(std::string name = "out") : port_base(std::move(name), /*is_input=*/false) {}

    void bind(signal<T>& s) { record_signal_binding(s); }
    /// Hierarchical binding: this port writes through `parent`.
    void bind(out<T>& parent) { record_port_binding(parent); }
    void operator()(signal<T>& s) { bind(s); }
    void operator()(out<T>& parent) { bind(parent); }

    /// Write sample `k` (0 <= k < rate) of the current activation.
    void write(const T& v, unsigned k = 0) {
        auto* s = static_cast<signal<T>*>(signal_);
        util::require(s != nullptr, name(), "write to unbound TDF port");
        util::require(k < rate_, name(), "sample index exceeds port rate");
        s->write_token(position_ + k, v);
    }

    /// Set the value of the `delay()` initial tokens.
    void set_initial_value(const T& v) {
        auto* s = static_cast<signal<T>*>(signal_);
        util::require(s != nullptr, name(), "initial value on unbound TDF port");
        s->set_initial_value(v);
    }
};

}  // namespace sca::tdf

#endif  // SCA_TDF_PORT_HPP
