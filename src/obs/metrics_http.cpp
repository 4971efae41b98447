#include "obs/metrics_http.h"

#include <cerrno>
#include <cstring>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "util/logging.h"

namespace heb {
namespace obs {

namespace {

void
sendAll(int fd, const std::string &data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        ssize_t n = ::send(fd, data.data() + sent,
                           data.size() - sent, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue; // signal during send; retry
        if (n <= 0)
            return; // peer went away; scrape is best-effort
        sent += static_cast<std::size_t>(n);
    }
}

} // namespace

MetricsHttpServer::MetricsHttpServer(MetricsRegistry &registry,
                                     std::uint16_t port)
    : registry_(registry)
{
    // Close-on-exec so fork+exec children (editors, hooks, anything
    // the embedding process spawns) never inherit the listen port.
    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        fatal("metrics endpoint: socket() failed");
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        fatal("metrics endpoint: cannot bind 127.0.0.1:", port);
    }
    if (::listen(listenFd_, 8) != 0)
        fatal("metrics endpoint: listen() failed");

    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd_,
                      reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        fatal("metrics endpoint: getsockname() failed");
    port_ = ntohs(addr.sin_port);

    thread_ = std::thread([this] { serveLoop(); });
}

MetricsHttpServer::~MetricsHttpServer() { stop(); }

void
MetricsHttpServer::stop()
{
    if (stopping_.exchange(true))
        return;
    // shutdown() wakes the blocking accept(); close() alone can
    // leave it parked on some kernels.
    ::shutdown(listenFd_, SHUT_RDWR);
    ::close(listenFd_);
    if (thread_.joinable())
        thread_.join();
}

void
MetricsHttpServer::serveLoop()
{
    while (!stopping_.load(std::memory_order_relaxed)) {
        int client =
            ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (client < 0) {
            if (stopping_.load(std::memory_order_relaxed))
                break;
            continue; // EINTR or transient failure: re-accept
        }
        char buf[1024];
        ssize_t n;
        do {
            n = ::recv(client, buf, sizeof(buf) - 1, 0);
        } while (n < 0 && errno == EINTR);
        std::string request =
            n > 0 ? std::string(buf, static_cast<std::size_t>(n))
                  : std::string();
        if (request.compare(0, 4, "GET ") == 0) {
            std::string body = renderPrometheus(registry_);
            std::string response =
                "HTTP/1.0 200 OK\r\n"
                "Content-Type: text/plain; version=0.0.4; "
                "charset=utf-8\r\n"
                "Content-Length: " +
                std::to_string(body.size()) +
                "\r\n"
                "Connection: close\r\n\r\n";
            response += body;
            sendAll(client, response);
            served_.fetch_add(1, std::memory_order_relaxed);
        } else {
            sendAll(client, "HTTP/1.0 405 Method Not Allowed\r\n"
                            "Content-Length: 0\r\n"
                            "Connection: close\r\n\r\n");
        }
        ::close(client);
    }
}

} // namespace obs
} // namespace heb
