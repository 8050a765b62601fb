// edit_loop: a closed-loop client drives `session::run_service` over the
// line protocol on make_scaled_architecture(40, 32) (~8 k elements; in a
// calm window its steps were steadier between runs than at (40, 96)). One
// iteration is one edit step: a seeded write (set-fit, rewire,
// add-failure-mode or deploy-sm), the `reanalyze` that follows it, then the
// reads in seeded order: a no-op `reanalyze`, `fta` twice (a cache miss,
// then a hit), `impact` of a seeded leaf and `result`. Writes and reads sit
// side by side, so a change that speeds one and slows the other shows.
#include <cstdio>
#include <deque>

#include "decisive/core/graph_fmea.hpp"
#include "decisive/core/synthetic.hpp"
#include "decisive/model/xmi.hpp"
#include "reply_parse.hpp"
#include "session_client.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = decisive::core;

namespace {

constexpr std::size_t kComposites = 40;
constexpr std::size_t kLeaves = 32;
/// Set-ups before the measurement (the last one's service serves it), and
/// as many again after it, so the median samples two points of the host's
/// drifting load.
constexpr int kSetupRepetitions = 2;

/// SetUp: the cold reanalyze; Closing: table, save and quit after the
/// measurement.
enum class Kind { SetUp, Write, EditReanalyze, Read, Closing };

struct Request {
  std::string line;
  Kind kind = Kind::Read;
  std::string series;  ///< the sample series of its round trip
};

std::string fixed(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3f", value);
  return buffer;
}

/// The seeded request script: an endless sequence of edit steps.
class EditScript {
 public:
  explicit EditScript(std::uint64_t seed) : random_(seed) {}

  std::deque<Request> next_step() {
    const std::string unit = "Unit" + std::to_string(random_.below(kComposites));
    const auto leaf = [&](std::size_t l) { return unit + ".Leaf" + std::to_string(l); };
    std::deque<Request> step;
    const double verb = random_.unit();
    if (verb < 0.4) {
      step.push_back({"set-fit " + leaf(random_.below(kLeaves)) + " " +
                          fixed(5.0 + 10.0 * random_.unit()),
                      Kind::Write, "request.set-fit"});
    } else if (verb < 0.6) {
      // A bypass around one to four leaves of the unit's serial chain.
      const std::size_t from = random_.below(kLeaves - 2);
      const std::size_t to = from + 2 + random_.below(std::min<std::size_t>(4, kLeaves - from - 2));
      step.push_back({"rewire " + unit + " " + leaf(from) + ".out " + leaf(to) + ".in",
                      Kind::Write, "request.rewire"});
    } else if (verb < 0.8) {
      step.push_back({"add-failure-mode " + leaf(random_.below(kLeaves)) + " Drift" +
                          std::to_string(added_++) + " 0.05 " +
                          (random_.unit() < 0.5 ? "erroneous" : "lossOfFunction"),
                      Kind::Write, "request.add-failure-mode"});
    } else {
      step.push_back({"deploy-sm " + leaf(random_.below(kLeaves)) + " SM" +
                          std::to_string(added_++) + " " + fixed(0.6 + 0.39 * random_.unit()) +
                          " " + fixed(1.0 + 4.0 * random_.unit()) + " Open",
                      Kind::Write, "request.deploy-sm"});
    }
    step.push_back({"reanalyze", Kind::EditReanalyze, "request.reanalyze.edit"});
    std::vector<Request> reads = {
        {"reanalyze", Kind::Read, "request.reanalyze.read"},
        {"fta", Kind::Read, "request.fta"},
        {"fta", Kind::Read, "request.fta"},
        {"impact " + leaf(random_.below(kLeaves)), Kind::Read, "request.impact"},
        {"result", Kind::Read, "request.result"},
    };
    for (std::size_t i = reads.size(); i > 1; --i) std::swap(reads[i - 1], reads[random_.below(i)]);
    step.insert(step.end(), reads.begin(), reads.end());
    return step;
  }

 private:
  SeededRandom random_;
  std::size_t added_ = 0;
};

/// The client of the last set-up: the cold reanalyze, every measurement
/// phase, then `table`, `save` and `quit` for the output check.
class EditSession {
 public:
  EditSession(Harness& h, Clock::time_point setup_start, std::filesystem::path final_model)
      : h_(h),
        setup_start_(setup_start),
        final_model_(std::move(final_model)),
        script_(h.options().seed),
        phases_(h.phases()) {
    queue_.push_back({"reanalyze", Kind::SetUp, ""});
  }

  std::optional<std::string> next() {
    if (measuring_ && queue_.empty()) advance();
    if (queue_.empty()) return std::nullopt;
    current_ = std::move(queue_.front());
    queue_.pop_front();
    return current_.line;
  }

  void on_reply(const Reply& reply) {
    h_.count_operations(1, reply.is_error() ? 1 : 0);
    if (current_.kind == Kind::SetUp) {
      h_.add_setup_seconds(seconds_since(setup_start_));
      measuring_ = true;
      return;
    }
    if (current_.kind == Kind::Closing) {
      if (current_.line == "table") table_ = reply.text;
      return;
    }
    const double ms = reply.seconds * 1e3;
    h_.record_sample(current_.series, ms);
    step_seconds_ += reply.seconds;
    if (current_.kind == Kind::Write) {
      write_ms_ = ms;
    } else if (current_.kind == Kind::EditReanalyze) {
      h_.record_sample("edit", write_ms_ + ms);
      if (const auto stats = parse_reanalyze(reply.text)) {
        step_rows_ = static_cast<std::size_t>(stats->rows);
        h_.record_sample("reply.fingerprint_ms", stats->fingerprint_ms);
        h_.record_sample("reply.analyze_ms", stats->analyze_ms);
        h_.record_sample("reply.hits", stats->hits);
        h_.record_sample("reply.units", stats->units);
        h_.record_sample("reply.widened", stats->widened);
      }
    } else {
      h_.record_sample("query", ms);
    }
  }

  [[nodiscard]] const std::string& table() const { return table_; }

 private:
  /// Between steps: close the finished step, move between phases, and
  /// queue the next step (or the closing requests).
  void advance() {
    if (in_step_) {
      h_.record_iteration(step_seconds_, step_rows_);
      in_step_ = false;
    }
    if (!h_.in_phase()) {
      h_.begin_phase(phases_[phase_index_]);
    } else if (!h_.keep_going()) {
      h_.end_phase();
      if (++phase_index_ == phases_.size()) {
        measuring_ = false;
        queue_ = {{"table", Kind::Closing, ""},
                  {"save " + final_model_.string(), Kind::Closing, ""},
                  {"quit", Kind::Closing, ""}};
        return;
      }
      h_.begin_phase(phases_[phase_index_]);
    }
    queue_ = script_.next_step();
    in_step_ = true;
    step_seconds_ = 0.0;
    step_rows_ = 0;
  }

  Harness& h_;
  Clock::time_point setup_start_;
  std::filesystem::path final_model_;
  EditScript script_;
  std::vector<Phase> phases_;
  std::size_t phase_index_ = 0;
  std::deque<Request> queue_;
  Request current_;
  bool measuring_ = false;
  bool in_step_ = false;
  double step_seconds_ = 0.0;
  std::size_t step_rows_ = 0;
  double write_ms_ = 0.0;
  std::string table_;
};

/// The `table` reply a service would give for `result`.
std::string table_reply(const core::FmedaResult& result) {
  std::string text = result.to_text().render() + "\n";
  for (const auto& warning : result.warnings) text += "note: " + warning + "\n";
  return text + "ok\n";
}

}  // namespace

void run_edit_loop(Harness& h) {
  const std::filesystem::path& work = h.options().work;
  if (const std::string problem = client_self_test(work); !problem.empty()) {
    h.fail_check("session client self-test: " + problem);
  }

  const auto model_path = work / "edit_loop.ssam";
  const auto final_path = work / "edit_loop_final.ssam";
  decisive::session::ServiceOptions service;
  service.model_path = model_path.string();
  service.component = "System";  // analysis jobs stay at the default of 1

  const auto generate = [&] {
    const auto system = core::make_scaled_architecture(kComposites, kLeaves);
    decisive::model::save_xmi_file(model_path.string(), system.model->repo(),
                                   system.model->meta());
  };
  const auto run_service = [&](SessionClient& client) {
    if (client.run(service) != 0) throw std::runtime_error("session failed to start");
  };
  // A set-up whose service quits after its cold reanalyze.
  const auto set_up = [&] {
    const auto start = Clock::now();
    generate();
    std::size_t sent = 0;
    SessionClient client(
        [&]() -> std::optional<std::string> { return sent++ == 0 ? "reanalyze" : "quit"; },
        [&](const Reply& reply) {
          h.count_operations(1, reply.is_error() ? 1 : 0);
          if (reply.request == "reanalyze") h.add_setup_seconds(seconds_since(start));
        });
    run_service(client);
  };

  for (int rep = 1; rep < kSetupRepetitions; ++rep) set_up();
  // The last set-up before the measurement keeps its service for it.
  const auto start = Clock::now();
  generate();
  EditSession session(h, start, final_path);
  SessionClient client([&] { return session.next(); },
                       [&](const Reply& reply) { session.on_reply(reply); });
  run_service(client);
  const std::string& table = session.table();

  // The saved final model, reloaded and analysed cold, must render the
  // table the service last returned.
  decisive::ssam::SsamModel reloaded;
  decisive::model::load_xmi_file(reloaded.repo(), reloaded.meta(), final_path.string());
  const auto root = reloaded.find_by_name(decisive::ssam::cls::Component, "System");
  const std::string expected = table_reply(core::analyze_component(reloaded, root));
  if (table != expected) h.fail_check("service table differs from a cold analysis of the saved model");

  std::string corrupted = table;
  if (!corrupted.empty()) corrupted[corrupted.size() / 2] ^= 0x01;
  h.expect_check_fires(corrupted != expected, "session table with one flipped byte");

  for (int rep = 0; rep < kSetupRepetitions; ++rep) set_up();
}

}  // namespace perfbench
