// Raw-frame test client: writes hand-built frames to a BrokerServer and
// reads its responses, for handshakes and malformed input the RemoteBroker
// never emits.
#pragma once

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <optional>
#include <string>

#include "src/net/frame.hpp"
#include "src/net/socket.hpp"

namespace entk::test {

class RawConn {
 public:
  explicit RawConn(const std::string& endpoint) {
    std::string host;
    std::uint16_t port = 0;
    EXPECT_TRUE(net::split_endpoint(endpoint, host, port));
    fd_ = net::connect_tcp(host, port, 2.0);
    EXPECT_GE(fd_, 0);
  }
  ~RawConn() {
    if (fd_ >= 0) net::close_fd(fd_);
  }

  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  void send(const net::Frame& frame) {
    const std::string wire = net::encode_frame(frame);
    ASSERT_EQ(::send(fd_, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
  }

  std::optional<net::Frame> recv_frame(double timeout_s = 2.0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (true) {
      std::optional<net::Frame> frame = net::decode_frame(buf_, off_);
      if (frame.has_value()) return frame;
      if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) continue;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t off_ = 0;
};

}  // namespace entk::test
