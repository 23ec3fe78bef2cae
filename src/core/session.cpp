#include "core/session.hpp"

#include <utility>

#include "core/progress.hpp"
#include "util/panic.hpp"

namespace nmad::core {

PackBuilder& PackBuilder::add(std::span<const std::byte> segment) {
  NMAD_ASSERT(!submitted_, "PackBuilder reused after submit");
  segments_.push_back(segment);
  return *this;
}

SendHandle PackBuilder::submit() {
  NMAD_ASSERT(!submitted_, "PackBuilder submitted twice");
  submitted_ = true;
  return session_->isend_segments(gate_, tag_, std::move(segments_));
}

UnpackBuilder& UnpackBuilder::add(std::span<std::byte> segment) {
  NMAD_ASSERT(!submitted_, "UnpackBuilder reused after submit");
  segments_.push_back(segment);
  return *this;
}

RecvHandle UnpackBuilder::submit() {
  NMAD_ASSERT(!submitted_, "UnpackBuilder submitted twice");
  submitted_ = true;
  return session_->recv(gate_, tag_, segments_);
}

Session::Session(std::string name, Scheduler::ClockFn clock,
                 Scheduler::DeferFn defer, ProgressFn progress,
                 Scheduler::TimerFn timer)
    : name_(std::move(name)),
      scheduler_(std::move(clock), std::move(defer), std::move(timer)),
      progress_(std::move(progress)) {
  NMAD_ASSERT(progress_ != nullptr, "Session needs a progress function");
}

Session::~Session() = default;

void Session::start_threaded(std::mutex& world_mutex, sim::Engine* engine,
                             std::size_t threads, std::function<void()> idle,
                             std::size_t submit_ring_capacity) {
  NMAD_ASSERT(progress_engine_ == nullptr, "session already threaded");
  NMAD_ASSERT(threads <= 1, "one progress thread per world");
  ProgressEngine::Config cfg;
  cfg.submission_capacity = submit_ring_capacity != 0
                                ? submit_ring_capacity
                                : ring_capacity_from_env("NMAD_SUBMIT_RING_CAP",
                                                         cfg.submission_capacity);
  ProgressEngine::Hooks hooks;
  hooks.lock = &world_mutex;
  hooks.engine = engine;
  hooks.idle = std::move(idle);
  progress_engine_ =
      std::make_unique<ProgressEngine>(scheduler_, cfg, std::move(hooks));
}

void Session::stop_threaded() { progress_engine_.reset(); }

std::unique_lock<std::mutex> Session::submission_burst() {
  if (progress_engine_ != nullptr) return progress_engine_->pause();
  return {};
}

void Session::flush_submissions() {
  if (progress_engine_ != nullptr) progress_engine_->flush_submissions();
}

void Session::register_metrics(obs::MetricsRegistry& registry, std::string prefix) {
  if (prefix.empty()) prefix = name_ + ".";
  scheduler_.register_metrics(registry, prefix);
  if (progress_engine_ != nullptr) {
    progress_engine_->register_metrics(registry, prefix + "progress.");
  }
}

GateId Session::connect(std::vector<drv::Driver*> rails,
                        std::string_view strategy_name,
                        const strat::StrategyConfig& cfg) {
  return scheduler_.add_gate(std::move(rails),
                             strat::make_strategy(strategy_name, cfg), cfg);
}

SendHandle Session::isend(GateId gate, Tag tag, std::span<const std::byte> data) {
  return send(gate, tag, std::span(&data, 1));
}

SendHandle Session::isend_segments(GateId gate, Tag tag,
                                   std::vector<std::span<const std::byte>> segments) {
  return send(gate, tag, segments);
}

SendHandle Session::send(GateId gate, Tag tag,
                         std::span<const std::span<const std::byte>> segments) {
  if (progress_engine_ != nullptr) {
    SendHandle h = scheduler_.make_send(gate, tag, segments);
    progress_engine_->submit(h);
    return h;
  }
  return scheduler_.isend(gate, tag, segments);
}

RecvHandle Session::irecv(GateId gate, Tag tag, std::span<std::byte> buffer) {
  return recv(gate, tag, std::span(&buffer, 1));
}

RecvHandle Session::recv(GateId gate, Tag tag,
                         std::span<const std::span<std::byte>> segments) {
  if (progress_engine_ != nullptr) {
    RecvHandle h = scheduler_.make_recv(gate, tag, segments);
    progress_engine_->submit(h);
    return h;
  }
  return scheduler_.irecv(gate, tag, segments);
}

void Session::wait(const SendHandle& h) {
  if (progress_engine_ != nullptr) {
    progress_engine_->wait([&] { return h->done(); });
  } else {
    progress_([&] { return h->done(); });
  }
  NMAD_ASSERT(h->done(), "wait returned with incomplete send (deadlock?)");
}

void Session::wait(const RecvHandle& h) {
  if (progress_engine_ != nullptr) {
    progress_engine_->wait([&] { return h->done(); });
  } else {
    progress_([&] { return h->done(); });
  }
  NMAD_ASSERT(h->done(), "wait returned with incomplete recv (deadlock?)");
}

void Session::wait_all(std::span<const SendHandle> sends,
                       std::span<const RecvHandle> recvs) {
  // A request also settles by *failing* (its gate lost every rail) — wait
  // returns then too; callers distinguish via completed()/failed().
  auto all_done = [&] {
    for (const auto& h : sends) {
      if (!h->done()) return false;
    }
    for (const auto& h : recvs) {
      if (!h->done()) return false;
    }
    return true;
  };
  if (progress_engine_ != nullptr) {
    progress_engine_->wait(all_done);
  } else {
    progress_(all_done);
  }
  NMAD_ASSERT(all_done(), "wait_all returned with incomplete requests (deadlock?)");
}

}  // namespace nmad::core
