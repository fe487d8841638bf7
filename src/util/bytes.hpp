// The little-endian byte codec behind every SCA1 payload: the wire messages
// and frames of core/run_protocol, the checkpoint journal, snapshots, and
// the save_state / restore_state hooks each layer implements.  Lives in util
// so kernel/tdf headers can use it without a kernel -> core include cycle.
//
// All integers are little-endian regardless of host order; doubles travel as
// their raw IEEE-754 bit pattern (bit_cast to u64), so NaNs, signed zeros,
// infinities and denormals round-trip byte-exactly.  The reader throws
// sca::util::error on any short read instead of yielding garbage —
// truncated payloads are refused, never silently repaired.
#ifndef SCA_UTIL_BYTES_HPP
#define SCA_UTIL_BYTES_HPP

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "util/report.hpp"

namespace sca::util {

/// FNV-1a (32-bit): the SCA1 frame checksum and the snapshot's structural
/// fingerprint.
[[nodiscard]] inline std::uint32_t fnv1a_32(const std::uint8_t* data,
                                            std::size_t n) noexcept {
    std::uint32_t h = 2166136261U;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 16777619U;
    }
    return h;
}

/// Append-only little-endian encoder.
class byte_writer {
public:
    void reserve(std::size_t n) { buf_.reserve(n); }

    void u8(std::uint8_t v) { buf_.push_back(v); }

    void u32(std::uint32_t v) { le(v, 4); }

    void u64(std::uint64_t v) { le(v, 8); }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void boolean(bool v) { u8(v ? 1 : 0); }

    /// Append bytes verbatim (no length prefix).
    void raw(const std::vector<std::uint8_t>& bytes) {
        buf_.insert(buf_.end(), bytes.begin(), bytes.end());
    }

    void str(const std::string& s) {
        u32(static_cast<std::uint32_t>(s.size()));
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    void f64_vec(const std::vector<double>& v) {
        u64(v.size());
        for (double d : v) f64(d);
    }

    void u64_vec(const std::vector<std::uint64_t>& v) {
        u64(v.size());
        for (std::uint64_t w : v) u64(w);
    }

    [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
    [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }
    [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

private:
    /// Append the low `n` bytes of `v`, least significant first, with one
    /// size change: a push_back per byte pays a capacity check per byte,
    /// which dominates encoding long waveforms.
    void le(std::uint64_t v, int n) {
        const std::size_t at = buf_.size();
        buf_.resize(at + static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) buf_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }

    std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder over a borrowed byte range.
class byte_reader {
public:
    byte_reader(const std::uint8_t* data, std::size_t size)
        : data_(data), size_(size) {}

    explicit byte_reader(const std::vector<std::uint8_t>& v)
        : data_(v.data()), size_(v.size()) {}

    [[nodiscard]] std::uint8_t u8() {
        need(1);
        return data_[pos_++];
    }

    [[nodiscard]] std::uint32_t u32() {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v |= std::uint32_t(data_[pos_ + i]) << (8 * i);
        pos_ += 4;
        return v;
    }

    [[nodiscard]] std::uint64_t u64() {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v |= std::uint64_t(data_[pos_ + i]) << (8 * i);
        pos_ += 8;
        return v;
    }

    [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

    [[nodiscard]] bool boolean() { return u8() != 0; }

    /// Copy the next `n` bytes verbatim (no length prefix) into `out`.
    void raw(std::vector<std::uint8_t>& out, std::size_t n) {
        need(n);
        out.assign(data_ + pos_, data_ + pos_ + n);
        pos_ += n;
    }

    [[nodiscard]] std::string str() {
        std::uint32_t n = u32();
        need(n);
        std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    [[nodiscard]] std::vector<double> f64_vec() {
        std::uint64_t n = u64();
        // Bound the count by the bytes actually left before allocating (and
        // before n * 8 could wrap for a hostile length prefix).
        require(n <= remaining() / 8, "byte_reader", "vector length exceeds payload");
        std::vector<double> v;
        v.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) v.push_back(f64());
        return v;
    }

    [[nodiscard]] std::vector<std::uint64_t> u64_vec() {
        std::uint64_t n = u64();
        require(n <= remaining() / 8, "byte_reader", "vector length exceeds payload");
        std::vector<std::uint64_t> v;
        v.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) v.push_back(u64());
        return v;
    }

    /// Throw unless every byte has been consumed: a payload longer than its
    /// decoder expects is as malformed as a short one.
    void expect_end() const {
        if (pos_ != size_) {
            report_fatal("byte_reader", std::to_string(size_ - pos_) +
                                            " trailing bytes after a complete payload");
        }
    }

    [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }
    [[nodiscard]] bool at_end() const noexcept { return pos_ == size_; }

private:
    void need(std::size_t n) const {
        if (size_ - pos_ < n) {
            report_fatal("byte_reader", "truncated payload: need " + std::to_string(n) +
                                            " bytes at offset " + std::to_string(pos_) +
                                            ", have " + std::to_string(size_ - pos_));
        }
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

}  // namespace sca::util

#endif  // SCA_UTIL_BYTES_HPP
