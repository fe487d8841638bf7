// Stream-socket plumbing shared by the remote-TCP run_set backend
// (core/run_backend) and the streaming server and its client (src/server/):
// connect, listen and accept over loopback/numeric-IPv4 TCP or AF_UNIX.
// Every TCP connection, connected or accepted, gets TCP_NODELAY — SCA1
// frames are small request/reply messages that must not wait for Nagle.
// Failures throw sca::util::error naming the address.
#ifndef SCA_CORE_NET_HPP
#define SCA_CORE_NET_HPP

#include <cstdint>
#include <string>

namespace sca::core::net {

/// Connect to `host` (numeric IPv4) : `port`.  Returns the connected fd.
[[nodiscard]] int connect_tcp(const std::string& host, std::uint16_t port);

/// Connect to the AF_UNIX stream socket at `path`.
[[nodiscard]] int connect_unix(const std::string& path);

/// Listen on 127.0.0.1:`port`; port 0 picks an ephemeral port, and the
/// chosen one is written back.  Returns the listening fd.
[[nodiscard]] int listen_tcp(std::uint16_t& port);

/// Listen on the AF_UNIX path, replacing a stale socket file left there.
[[nodiscard]] int listen_unix(const std::string& path);

/// Accept one connection (TCP_NODELAY when `tcp`).  Returns -1 when a
/// non-blocking listener has nothing pending.
[[nodiscard]] int accept(int listen_fd, bool tcp);

void set_nonblocking(int fd);

}  // namespace sca::core::net

#endif  // SCA_CORE_NET_HPP
