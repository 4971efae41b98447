/**
 * @file
 * Metrics HTTP endpoint tests: a loopback GET returns a fresh,
 * valid Prometheus exposition with the right content type; other
 * methods are refused; stop() is idempotent and unblocks accept.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "obs/metrics_http.h"
#include "obs/prometheus.h"

namespace heb {
namespace obs {
namespace {

/** One blocking HTTP exchange against 127.0.0.1:@p port. */
std::string
httpExchange(std::uint16_t port, const std::string &request)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd,
                        reinterpret_cast<const sockaddr *>(&addr),
                        sizeof addr),
              0);
    EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    std::string response;
    char buf[4096];
    ssize_t got;
    while ((got = ::recv(fd, buf, sizeof buf, 0)) > 0)
        response.append(buf, static_cast<std::size_t>(got));
    ::close(fd);
    return response;
}

class MetricsHttpTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setTelemetryLevel(TelemetryLevel::Metrics);
    }
    void TearDown() override
    {
        setTelemetryLevel(TelemetryLevel::Off);
    }
};

TEST_F(MetricsHttpTest, GetServesValidExposition)
{
    MetricsRegistry reg;
    reg.counter("http.scraped").add(2.0);
    reg.gauge("http.gauge", {{"rack", "rack0"}}).set(0.75);
    MetricsHttpServer server(reg, 0);
    ASSERT_NE(server.port(), 0);

    std::string response = httpExchange(
        server.port(), "GET /metrics HTTP/1.1\r\n"
                       "Host: localhost\r\n"
                       "Connection: close\r\n\r\n");
    EXPECT_NE(response.find("200 OK"), std::string::npos)
        << response;
    EXPECT_NE(response.find("text/plain; version=0.0.4"),
              std::string::npos);

    std::size_t split = response.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos);
    std::string body = response.substr(split + 4);
    std::string error;
    EXPECT_TRUE(validatePrometheusText(body, &error)) << error;
    EXPECT_NE(body.find("heb_http_scraped_total 2\n"),
              std::string::npos)
        << body;
    EXPECT_NE(body.find("heb_http_gauge{rack=\"rack0\"} 0.75\n"),
              std::string::npos);
    EXPECT_EQ(server.requestsServed(), 1u);
}

TEST_F(MetricsHttpTest, ScrapesAreFreshPerRequest)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("http.fresh");
    MetricsHttpServer server(reg, 0);
    const std::string req = "GET / HTTP/1.0\r\n\r\n";

    c.inc();
    std::string first = httpExchange(server.port(), req);
    EXPECT_NE(first.find("heb_http_fresh_total 1\n"),
              std::string::npos);
    c.inc();
    std::string second = httpExchange(server.port(), req);
    EXPECT_NE(second.find("heb_http_fresh_total 2\n"),
              std::string::npos);
    EXPECT_EQ(server.requestsServed(), 2u);
}

TEST_F(MetricsHttpTest, NonGetRefused)
{
    MetricsRegistry reg;
    MetricsHttpServer server(reg, 0);
    std::string response = httpExchange(
        server.port(), "POST /metrics HTTP/1.1\r\n"
                       "Content-Length: 0\r\n\r\n");
    EXPECT_NE(response.find("405"), std::string::npos) << response;
}

TEST_F(MetricsHttpTest, StopIsIdempotent)
{
    MetricsRegistry reg;
    MetricsHttpServer server(reg, 0);
    server.stop();
    server.stop(); // second stop must be a no-op, not a crash
}

TEST_F(MetricsHttpTest, ListenSocketIsCloseOnExec)
{
    MetricsRegistry reg;
    MetricsHttpServer server(reg, 0);
    int fd = server.listenFdForTest();
    ASSERT_GE(fd, 0);
    int flags = ::fcntl(fd, F_GETFD);
    ASSERT_GE(flags, 0);
    EXPECT_NE(flags & FD_CLOEXEC, 0)
        << "listen socket would leak across exec";
}

} // namespace
} // namespace obs
} // namespace heb
