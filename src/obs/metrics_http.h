/**
 * @file
 * Minimal poll-able Prometheus scrape endpoint.
 *
 * MetricsHttpServer binds a loopback TCP socket and answers each
 * HTTP/1.0-style GET with a fresh renderPrometheus() snapshot of the
 * global registry — just enough protocol for `curl`, `promtool
 * query`, or a Prometheus static scrape target pointed at a running
 * `heb_fleet --metrics-listen PORT`. One accept thread, one request
 * per connection, no keep-alive, no routing beyond "any GET gets
 * metrics, anything else gets 405": the simulator is the product,
 * the endpoint is a tap.
 *
 * The server holds no registry snapshot of its own; every scrape
 * renders live values, so a long fleet run can be watched mid-
 * flight. Lifecycle is scoped: the destructor (or stop()) closes the
 * listen socket and joins the thread.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

namespace heb {
namespace obs {

class MetricsRegistry;

class MetricsHttpServer
{
  public:
    /**
     * Bind 127.0.0.1:@p port (0 picks an ephemeral port) and start
     * the accept thread. fatal() when the port cannot be bound.
     */
    MetricsHttpServer(MetricsRegistry &registry, std::uint16_t port);

    /** Stops and joins. */
    ~MetricsHttpServer();

    /** The bound port (the resolved one when constructed with 0). */
    std::uint16_t port() const { return port_; }

    /** Number of requests answered so far. */
    std::uint64_t requestsServed() const
    {
        return served_.load(std::memory_order_relaxed);
    }

    /** Close the socket and join the accept thread (idempotent). */
    void stop();

    /** The raw listening fd, for fd-flag assertions in tests. */
    int listenFdForTest() const { return listenFd_; }

    MetricsHttpServer(const MetricsHttpServer &) = delete;
    MetricsHttpServer &operator=(const MetricsHttpServer &) = delete;

  private:
    void serveLoop();

    MetricsRegistry &registry_;
    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> served_{0};
    std::thread thread_;
};

} // namespace obs
} // namespace heb
