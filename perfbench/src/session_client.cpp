#include "session_client.hpp"

#include <istream>
#include <ostream>
#include <vector>

#include "decisive/core/synthetic.hpp"
#include "decisive/model/xmi.hpp"
#include "reply_parse.hpp"

namespace perfbench {

namespace session = decisive::session;

bool Reply::is_error() const { return last_line(text).rfind("error:", 0) == 0; }

SessionClient::SessionClient(NextRequest next, OnReply on_reply)
    : next_(std::move(next)), on_reply_(std::move(on_reply)) {}

SessionClient::RequestBuffer::int_type SessionClient::RequestBuffer::underflow() {
  // The service only reads again after it flushed the previous reply, so
  // nothing can be in flight here unless a reply lacked its status line.
  if (client_.in_flight_) client_.deliver_if_complete();
  const std::optional<std::string> request = client_.next_();
  if (!request.has_value()) return traits_type::eof();
  line_ = *request + "\n";
  client_.pending_request_ = *request;
  client_.in_flight_ = true;
  setg(line_.data(), line_.data(), line_.data() + line_.size());
  client_.handed_off_ = Clock::now();
  return traits_type::to_int_type(line_.front());
}

SessionClient::ReplyBuffer::int_type SessionClient::ReplyBuffer::overflow(int_type c) {
  if (!traits_type::eq_int_type(c, traits_type::eof())) {
    client_.output_.push_back(traits_type::to_char_type(c));
  }
  return traits_type::not_eof(c);
}

std::streamsize SessionClient::ReplyBuffer::xsputn(const char* s, std::streamsize n) {
  client_.output_.append(s, static_cast<std::size_t>(n));
  return n;
}

int SessionClient::ReplyBuffer::sync() {
  client_.deliver_if_complete();
  return 0;
}

void SessionClient::deliver_if_complete() {
  const double seconds = seconds_since(handed_off_);
  if (!in_flight_) {
    output_.clear();  // the start-up banner
    return;
  }
  if (output_.empty() || output_.back() != '\n') return;
  Reply reply{pending_request_, std::move(output_), seconds};
  output_.clear();
  const std::string_view last = last_line(reply.text);
  if (last != "ok" && last.rfind("error:", 0) != 0) {
    output_ = std::move(reply.text);  // a progress line; the reply continues
    return;
  }
  in_flight_ = false;
  if (reply.is_error()) ++errors_;
  on_reply_(reply);
}

int SessionClient::run(const session::ServiceOptions& options) {
  RequestBuffer requests(*this);
  ReplyBuffer replies(*this);
  std::istream in(&requests);
  std::ostream out(&replies);
  const int code = session::run_service(in, out, options);
  out.flush();  // "quit" is answered without a flush of its own
  return code;
}

std::string client_self_test(const std::filesystem::path& work) {
  auto system = decisive::core::make_scaled_architecture(4, 8);
  const auto model_path = work / "client_self_test.ssam";
  decisive::model::save_xmi_file(model_path.string(), system.model->repo(),
                                 system.model->meta());

  const std::vector<std::string> script = {
      "reanalyze",
      "set-fit Unit1.Leaf2 9.5",
      "reanalyze",
      "set-fit NoSuchComponent 1",  // error: unknown component
      "result",
      "frobnicate",                 // error: unknown command
      "reanalyze",
      "quit",
  };
  std::size_t next = 0;
  std::vector<Reply> replies;
  SessionClient client(
      [&]() -> std::optional<std::string> {
        if (next == script.size()) return std::nullopt;
        return script[next++];
      },
      [&](const Reply& reply) { replies.push_back(reply); });
  session::ServiceOptions options;
  options.model_path = model_path.string();
  options.component = "System";
  const auto start = Clock::now();
  const int code = client.run(options);
  const double wall = seconds_since(start);

  if (code != 0) return "service exited with " + std::to_string(code);
  if (replies.size() != script.size()) {
    return "expected " + std::to_string(script.size()) + " replies, got " +
           std::to_string(replies.size());
  }
  if (client.errors() != 2) return "expected 2 error replies, got " + std::to_string(client.errors());
  double total = 0.0;
  for (std::size_t i = 0; i < script.size(); ++i) {
    const Reply& reply = replies[i];
    total += reply.seconds;
    if (reply.request != script[i]) return "reply " + std::to_string(i) + " out of order";
    const bool should_fail = i == 3 || i == 5;
    if (reply.is_error() != should_fail) return "wrong status for '" + script[i] + "'";
    if (script[i] == "reanalyze") {
      const auto stats = parse_reanalyze(reply.text);
      if (!stats.has_value()) return "unreadable reanalyze reply";
      // The service's own timer runs inside the client's round trip.
      if (reply.seconds * 1e3 + 0.001 < stats->total_ms) {
        return "client round trip shorter than the service's own reanalyze time";
      }
    }
  }
  if (replies[1].text.rfind("fit(Unit1.Leaf2) = 9.5\n", 0) != 0) return "set-fit reply mismatched";
  if (total > wall) return "round trips exceed the service's wall time";
  return "";
}

}  // namespace perfbench
