// A closed-loop client for session::run_service, in the service's own
// thread: a paced std::streambuf pair hands the service one request at a
// time and captures each reply.
//
// The service reads a request with std::getline and flushes its reply once
// the request is answered. The request buffer asks the client for the next
// request only when the service wants to read again, which is after the
// previous reply was flushed, so exactly one request is in flight. A
// request's round trip is timed from the moment its line is handed to the
// service until the service flushes the reply that ends in the status line
// ("ok" or "error: ...").
#pragma once

#include <functional>
#include <optional>
#include <streambuf>
#include <string>

#include "decisive/session/service.hpp"
#include "harness.hpp"

namespace perfbench {

struct Reply {
  std::string request;
  std::string text;  ///< every line of the reply, the status line included
  double seconds = 0.0;
  [[nodiscard]] bool is_error() const;
};

class SessionClient {
 public:
  /// Returns the next request line (without newline), or nullopt to close
  /// the service's input.
  using NextRequest = std::function<std::optional<std::string>()>;
  using OnReply = std::function<void(const Reply&)>;

  SessionClient(NextRequest next, OnReply on_reply);

  /// Runs the service until the client closes its input or sends "quit";
  /// returns the service's exit code.
  int run(const decisive::session::ServiceOptions& options);

  [[nodiscard]] std::size_t errors() const noexcept { return errors_; }

 private:
  class RequestBuffer : public std::streambuf {
   public:
    explicit RequestBuffer(SessionClient& client) : client_(client) {}

   protected:
    int_type underflow() override;

   private:
    SessionClient& client_;
    std::string line_;
  };

  class ReplyBuffer : public std::streambuf {
   public:
    explicit ReplyBuffer(SessionClient& client) : client_(client) {}

   protected:
    int_type overflow(int_type c) override;
    std::streamsize xsputn(const char* s, std::streamsize n) override;
    int sync() override;

   private:
    SessionClient& client_;
  };

  void deliver_if_complete();

  NextRequest next_;
  OnReply on_reply_;
  std::string pending_request_;
  bool in_flight_ = false;
  Clock::time_point handed_off_{};
  std::string output_;
  std::size_t errors_ = 0;
};

/// Self-test of the client against a small model: every reply is matched
/// to its request, the client-side round trip of each `reanalyze` covers
/// the service's own reported time, the round trips sum to less than the
/// service's wall time, and exactly the malformed requests count as errors.
/// Returns "" on success, else what went wrong.
std::string client_self_test(const std::filesystem::path& work);

}  // namespace perfbench
