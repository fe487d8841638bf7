// Bounded per-session frame queue between a session's kernel worker thread
// (producer) and the server's poll() I/O thread (consumer).
//
// Backpressure discipline (the wireless-gk ring-buffer rule, applied to
// waveform streaming): the kernel must never block on a slow network peer.
// Sample batches are pushed with try_push_samples() — when the queue is at
// capacity the batch is dropped and counted, and the *next* delivered batch
// carries a first-index gap plus the cumulative drop count so the client can
// see exactly what it lost.  Control replies (opened/pace/error/close) are
// never dropped: they are rare, small, and the client cannot resynchronize
// without them, so push_control() ignores the capacity bound.
#ifndef SCA_SERVER_STREAM_QUEUE_HPP
#define SCA_SERVER_STREAM_QUEUE_HPP

#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "core/run_protocol.hpp"

namespace sca::server {

/// One frame waiting to be written to the session's socket.
struct outbound_frame {
    core::wire::msg_type type = core::wire::msg_type::error;
    std::vector<std::uint8_t> payload;
};

class stream_queue {
public:
    explicit stream_queue(std::size_t capacity) : capacity_(capacity ? capacity : 1) {}

    stream_queue(const stream_queue&) = delete;
    stream_queue& operator=(const stream_queue&) = delete;

    /// Enqueue a control reply; always accepted.
    void push_control(outbound_frame f) {
        const std::lock_guard<std::mutex> lock(mutex_);
        q_.push_back(std::move(f));
        if (q_.size() > max_depth_) max_depth_ = q_.size();
    }

    /// Enqueue a sample batch unless the queue is full; false = dropped.
    [[nodiscard]] bool try_push_samples(outbound_frame f) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (q_.size() >= capacity_) return false;
        q_.push_back(std::move(f));
        if (q_.size() > max_depth_) max_depth_ = q_.size();
        return true;
    }

    /// Dequeue the oldest frame; false when empty.
    [[nodiscard]] bool pop(outbound_frame& out) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (q_.empty()) return false;
        out = std::move(q_.front());
        q_.pop_front();
        return true;
    }

    [[nodiscard]] std::size_t size() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return q_.size();
    }

    /// High-water mark of queued frames over the queue's lifetime — the
    /// backpressure headroom figure the close frame reports.
    [[nodiscard]] std::uint64_t max_depth() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return max_depth_;
    }

private:
    mutable std::mutex mutex_;
    std::deque<outbound_frame> q_;
    std::size_t capacity_;
    std::uint64_t max_depth_ = 0;
};

}  // namespace sca::server

#endif  // SCA_SERVER_STREAM_QUEUE_HPP
