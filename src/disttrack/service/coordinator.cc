#include "disttrack/service/coordinator.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

namespace disttrack {
namespace service {

namespace {

/// Stop reading a connection whose unsent output exceeds this.
constexpr size_t kBackpressureBytes = 4u << 20;

/// Write end of RunUntilShutdown's self-pipe (-1 outside it).
volatile sig_atomic_t g_signal_pipe = -1;

extern "C" void WakeOnSignal(int) {
  int saved = errno;
  if (g_signal_pipe >= 0) {
    uint8_t byte = 1;
    ssize_t ignored = write(g_signal_pipe, &byte, 1);
    (void)ignored;
  }
  errno = saved;
}

}  // namespace

Coordinator::Coordinator(const ServiceOptions& options) : core_(options) {}

Coordinator::~Coordinator() {
  for (int fd : listeners_) close(fd);
  for (const Conn& conn : conns_) {
    if (!conn.closed) close(conn.fd);
  }
}

bool Coordinator::AddListener(const Endpoint& endpoint, std::string* error) {
  int fd = Listen(endpoint, error);
  if (fd < 0) return false;
  SetNonBlocking(fd, true);
  listeners_.push_back(fd);
  return true;
}

void Coordinator::AdoptConnection(int fd) {
  SetNonBlocking(fd, true);
  conns_.push_back(Conn{fd, false});
  core_.Open(fd);
}

void Coordinator::Close(Conn* conn) {
  if (conn->closed) return;
  close(conn->fd);
  conn->closed = true;
  core_.Closed(conn->fd);
}

void Coordinator::TryWrite(Conn* conn) {
  const uint8_t* data = nullptr;
  while (size_t size = core_.Staged(conn->fd, &data)) {
    // MSG_NOSIGNAL: a peer that died with output pending must cost its
    // connection (EPIPE / ECONNRESET close it below), not the daemon.
    ssize_t n = send(conn->fd, data, size, MSG_NOSIGNAL);
    if (n > 0) {
      core_.Sent(conn->fd, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    Close(conn);
    return;
  }
  if (core_.WantsClose(conn->fd)) Close(conn);
}

int Coordinator::PollOnce(int timeout_ms) {
  std::vector<pollfd> fds;
  fds.reserve(listeners_.size() + 1 + conns_.size());
  for (int fd : listeners_) fds.push_back(pollfd{fd, POLLIN, 0});
  const size_t first_conn = fds.size() + (signal_fd_ >= 0 ? 1 : 0);
  if (signal_fd_ >= 0) fds.push_back(pollfd{signal_fd_, POLLIN, 0});
  const size_t polled = conns_.size();
  for (const Conn& conn : conns_) {
    size_t pending = core_.pending(conn.fd);
    short events = 0;
    if (pending < kBackpressureBytes) events |= POLLIN;
    if (pending > 0) events |= POLLOUT;
    fds.push_back(pollfd{conn.fd, events, 0});
  }

  int ready = poll(fds.data(), fds.size(), timeout_ms);
  if (ready < 0 && errno != EINTR) return -1;

  for (size_t i = 0; i < listeners_.size(); ++i) {
    if ((fds[i].revents & POLLIN) == 0) continue;
    for (;;) {
      int fd = accept(listeners_[i], nullptr, nullptr);
      if (fd < 0) break;
      AdoptConnection(fd);
    }
  }
  if (signal_fd_ >= 0 && (fds[first_conn - 1].revents & POLLIN) != 0) {
    uint8_t drain[64];
    while (read(signal_fd_, drain, sizeof(drain)) > 0) {
    }
    core_.BeginShutdown();
  }

  int handled = 0;
  uint8_t buf[65536];
  for (size_t i = 0; i < polled; ++i) {
    Conn* conn = &conns_[i];
    short revents = fds[first_conn + i].revents;
    if (conn->closed || revents == 0) continue;
    if (revents & (POLLOUT | POLLERR | POLLHUP)) TryWrite(conn);
    if (conn->closed || (revents & POLLIN) == 0) continue;

    bool eof = false;
    for (;;) {
      long n = ReadSome(conn->fd, buf, sizeof(buf));
      if (n == -2) break;  // drained
      if (n <= 0) {
        eof = true;
        break;
      }
      handled += core_.Receive(conn->fd, buf, static_cast<size_t>(n));
      if (core_.WantsClose(conn->fd)) break;
      if (static_cast<size_t>(n) < sizeof(buf)) break;  // drained for now
    }
    if (eof) {
      Close(conn);
      continue;
    }
    // Push responses out now: a site may be parked on one of these frames.
    TryWrite(conn);
  }
  // Frames staged for other sites this round (a grant handed on, a
  // broadcast fanned out) go out now, not after another poll.
  for (Conn& conn : conns_) {
    if (!conn.closed && (core_.pending(conn.fd) > 0 ||
                         core_.WantsClose(conn.fd))) {
      TryWrite(&conn);
    }
  }

  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [](const Conn& c) { return c.closed; }),
               conns_.end());
  return handled;
}

int Coordinator::RunUntilShutdown() {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return 1;
  SetNonBlocking(pipe_fds[0], true);
  SetNonBlocking(pipe_fds[1], true);
  signal_fd_ = pipe_fds[0];
  g_signal_pipe = pipe_fds[1];
  struct sigaction wake = {};
  wake.sa_handler = WakeOnSignal;
  sigemptyset(&wake.sa_mask);
  struct sigaction old_term = {}, old_int = {};
  sigaction(SIGTERM, &wake, &old_term);
  sigaction(SIGINT, &wake, &old_int);

  bool poll_failed = false;
  while (!core_.ShutdownComplete() && !poll_failed) {
    poll_failed = PollOnce(100) < 0;
  }

  sigaction(SIGTERM, &old_term, nullptr);
  sigaction(SIGINT, &old_int, nullptr);
  g_signal_pipe = -1;
  signal_fd_ = -1;
  close(pipe_fds[0]);
  close(pipe_fds[1]);
  if (poll_failed) return 1;
  return 0;
}

}  // namespace service
}  // namespace disttrack
