#include "core/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/report.hpp"

namespace sca::core::net {

namespace {

void set_nodelay(int fd) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

sockaddr_un unix_address(const std::string& path) {
    sockaddr_un addr{};
    util::require(path.size() < sizeof addr.sun_path, "net",
                  "AF_UNIX path '" + path + "' is too long");
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    return addr;
}

int new_socket(int domain) {
    const int fd = ::socket(domain, SOCK_STREAM, 0);
    util::require(fd >= 0, "net", std::string("socket failed: ") + std::strerror(errno));
    return fd;
}

/// Connect `fd` to `addr`; on failure close the fd and throw, naming `where`.
template <typename Addr>
void connect_to(int fd, const Addr& addr, const std::string& where) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        const int err = errno;
        ::close(fd);
        util::report_fatal("net", "cannot connect to " + where + ": " + std::strerror(err));
    }
}

/// Bind `fd` to `addr` and listen; on failure close the fd and throw.
template <typename Addr>
void listen_on(int fd, const Addr& addr, const std::string& where) {
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, 128) != 0) {
        const int err = errno;
        ::close(fd);
        util::report_fatal("net", "cannot listen on " + where + ": " + std::strerror(err));
    }
}

}  // namespace

int connect_tcp(const std::string& host, std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    util::require(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1, "net",
                  "'" + host + "' is not a numeric IPv4 address");
    const int fd = new_socket(AF_INET);
    connect_to(fd, addr, host + ":" + std::to_string(port));
    set_nodelay(fd);
    return fd;
}

int connect_unix(const std::string& path) {
    const sockaddr_un addr = unix_address(path);
    const int fd = new_socket(AF_UNIX);
    connect_to(fd, addr, "AF_UNIX path '" + path + "'");
    return fd;
}

int listen_tcp(std::uint16_t& port) {
    const int fd = new_socket(AF_INET);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    listen_on(fd, addr, "127.0.0.1:" + std::to_string(port));
    socklen_t len = sizeof addr;
    util::require(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0, "net",
                  "getsockname failed");
    port = ntohs(addr.sin_port);
    return fd;
}

int listen_unix(const std::string& path) {
    const sockaddr_un addr = unix_address(path);
    const int fd = new_socket(AF_UNIX);
    ::unlink(path.c_str());
    listen_on(fd, addr, "AF_UNIX path '" + path + "'");
    return fd;
}

int accept(int listen_fd, bool tcp) {
    for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0) {
            if (tcp) set_nodelay(fd);
            return fd;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
        util::report_fatal("net", std::string("accept failed: ") + std::strerror(errno));
    }
}

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    util::require(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0, "net",
                  std::string("fcntl failed: ") + std::strerror(errno));
}

}  // namespace sca::core::net
