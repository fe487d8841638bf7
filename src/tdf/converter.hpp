// Converter ports between the TDF and DE worlds — the port-level face of the
// synchronization layer (paper §3: interactions between continuous-time and
// discrete-time MoCs "have to be formally defined").
//
// Semantics implemented here (documented in docs/architecture.md, "The
// batched-sync contract at converter ports"):
//  * de_in:  reads the DE signal value valid at the sample's time.  A
//            cluster that only reads DE signals batches periods ahead of DE
//            time but never past the next pending DE event, so that value
//            still holds when the batch reads it; a sample sharing an instant
//            with a DE write reads the value before the write.  Multirate
//            reads within one activation see the same value (zero-order
//            hold across the module period).
//  * de_out: writes are timestamped with the exact TDF sample time; samples
//            that fall after the current DE time are scheduled through a
//            helper process, so the DE world observes them at the right time.
#ifndef SCA_TDF_CONVERTER_HPP
#define SCA_TDF_CONVERTER_HPP

#include <deque>

#include "kernel/process.hpp"
#include "kernel/signal.hpp"
#include "tdf/module.hpp"

namespace sca::tdf {

/// DE -> TDF converter port; member of a tdf::module.
template <typename T>
class de_in : public de::in<T> {
public:
    explicit de_in(std::string name = "de_in") : de::in<T>(std::move(name)) {
        owner_ = dynamic_cast<module*>(this->parent());
        util::require(owner_ != nullptr, this->name(),
                      "de_in must be declared inside a tdf::module");
    }

    /// Sample `k` of the current activation; zero-order hold, so every
    /// in-activation sample reads the value at activation time.
    [[nodiscard]] const T& read(unsigned /*k*/ = 0) const { return de::in<T>::read(); }

private:
    module* owner_;
};

/// TDF -> DE converter port; member of a tdf::module.
template <typename T>
class de_out : public de::out<T> {
public:
    explicit de_out(std::string name = "de_out") : de::out<T>(std::move(name)) {
        owner_ = dynamic_cast<module*>(this->parent());
        util::require(owner_ != nullptr, this->name(),
                      "de_out must be declared inside a tdf::module");
        event_ = std::make_unique<de::event>(this->name() + ".wakeup");
        auto& proc = this->context().register_method(this->name() + ".writer",
                                                     [this] { drain(); });
        proc.dont_initialize();
        proc.make_sensitive(*event_);
    }

    /// Samples per module activation (determines sample timestamps).
    void set_rate(unsigned rate) {
        util::require(rate >= 1, this->name(), "rate must be >= 1");
        rate_ = rate;
    }
    [[nodiscard]] unsigned rate() const noexcept { return rate_; }

    /// Write sample `k` of the current activation at its exact TDF time.
    void write(const T& v, unsigned k = 0) {
        util::require(k < rate_, this->name(), "sample index exceeds port rate");
        const de::time step =
            de::time::from_fs(owner_->timestep().value_fs() / static_cast<std::int64_t>(rate_));
        const de::time at = owner_->tdf_time() + step * static_cast<std::int64_t>(k);
        const de::time now = this->context().now();
        if (at <= now) {
            de::out<T>::write(v);
            return;
        }
        queue_.push_back({at, v});
        event_->notify(at - now);  // earliest pending notification wins
    }

private:
    void drain() {
        const de::time now = this->context().now();
        while (!queue_.empty() && queue_.front().at <= now) {
            de::out<T>::write(queue_.front().value);
            queue_.pop_front();
        }
        if (!queue_.empty()) event_->notify(queue_.front().at - now);
    }

    struct pending {
        de::time at;
        T value;
    };

    module* owner_;
    unsigned rate_ = 1;
    std::deque<pending> queue_;
    std::unique_ptr<de::event> event_;
};

}  // namespace sca::tdf

#endif  // SCA_TDF_CONVERTER_HPP
