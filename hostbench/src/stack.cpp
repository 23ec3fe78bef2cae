#include "stack.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/progress.hpp"
#include "drv/sim_driver.hpp"
#include "netmodel/nic_profile.hpp"
#include "sampling/ratio_table.hpp"
#include "sampling/sampler.hpp"

namespace hostbench {

namespace core = nmad::core;
namespace drv = nmad::drv;

namespace {

/// A loopback port that was free a moment ago (the kernel's pick for an
/// ephemeral bind), or 0.
std::uint16_t free_loopback_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  std::uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

}  // namespace

Stack::Stack(const StackSpec& spec, bool traced) {
  if (spec.transport == Transport::kSim) {
    build_sim(spec, traced);
  } else {
    build_tcp(spec, traced);
  }
}

Stack::~Stack() { stop_threads(); }

void Stack::stop_threads() {
  // Engine events cross sessions: both progress engines stop before either
  // session is destroyed (as in TwoNodePlatform).
  if (a_) a_->stop_threaded();
  if (b_) b_->stop_threaded();
}

std::vector<drv::Driver*> Stack::maybe_wrap(std::vector<drv::Driver*> raw,
                                            bool traced) {
  if (!traced) return raw;
  if (raw.size() > kMaxRails) throw std::runtime_error("more rails than BoundaryCounts keeps");
  std::vector<drv::Driver*> out;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    traced_drivers_.push_back(std::make_unique<TracedDriver>(*raw[i], i, counts_));
    out.push_back(traced_drivers_.back().get());
  }
  return out;
}

core::GateId Stack::connect(core::Session& s, std::vector<drv::Driver*> rails,
                            const StackSpec& spec, bool traced) {
  const nmad::strat::StrategyConfig cfg{};
  auto strategy = nmad::strat::make_strategy(spec.strategy, cfg);
  if (traced) strategy = traced_strategy(std::move(strategy), counts_);
  return s.scheduler().add_gate(std::move(rails), std::move(strategy), cfg);
}

void Stack::build_sim(const StackSpec& spec, bool traced) {
  // The paper's platform (§3.1): Myri-10G + Quadrics QM500 between two hosts.
  const std::vector<nmad::netmodel::NicProfile> links = {
      nmad::netmodel::myri10g(), nmad::netmodel::quadrics_qm500()};
  const nmad::netmodel::HostProfile host{};
  sim_ = std::make_unique<drv::SimWorld>();
  const drv::NodeId na = sim_->add_node(host);
  const drv::NodeId nb = sim_->add_node(host);
  std::vector<drv::Driver*> raw_a;
  std::vector<drv::Driver*> raw_b;
  for (const auto& nic : links) {
    auto [ea, eb] = sim_->add_link(na, nb, nic);
    raw_a.push_back(ea);
    raw_b.push_back(eb);
  }

  drv::SimWorld* w = sim_.get();
  SessionHooks hooks;
  hooks.clock = [w] { return w->now(); };
  hooks.defer = [w](std::function<void()> fn) { w->engine().schedule(0, std::move(fn)); };
  hooks.progress = [w](const std::function<bool()>& pred) { w->engine().run_until(pred); };
  hooks.timer = [w](nmad::sim::TimeNs delay, std::function<void()> fn) {
    w->engine().schedule(delay, std::move(fn));
  };
  if (traced) hooks = traced_hooks(std::move(hooks), Layer::kSimEngine);
  a_ = std::make_unique<core::Session>("A", hooks.clock, hooks.defer,
                                       hooks.progress, hooks.timer);
  b_ = std::make_unique<core::Session>("B", hooks.clock, hooks.defer,
                                       hooks.progress, hooks.timer);
  gate_ab_ = connect(*a_, maybe_wrap(raw_a, traced), spec, traced);
  gate_ba_ = connect(*b_, maybe_wrap(raw_b, traced), spec, traced);

  if (spec.sampled_ratios) {
    const std::int64_t t0 = now_ns();
    const nmad::sampling::RatioTable table(
        nmad::sampling::sample_rails(host, host, links));
    const std::vector<double> weights = table.weights();
    sampling_s_ = static_cast<double>(now_ns() - t0) / 1e9;
    a_->scheduler().gate(gate_ab_).set_ratios(weights);
    b_->scheduler().gate(gate_ba_).set_ratios(weights);
  }

  if (spec.threaded) {
    std::function<void()> idle;
    if (traced) {
      // Runs under the world mutex, so the plain counter is race-free.
      idle = [this] {
        if (Tracer::recording()) counts_.idle_rounds += 1;
      };
    }
    a_->start_threaded(w->progress_mutex(), &w->engine(), 1, idle);
    b_->start_threaded(w->progress_mutex(), &w->engine(), 1, idle);
  }
}

void Stack::build_tcp(const StackSpec& spec, bool traced) {
  // Both endpoints live in this process; a helper thread dials while this
  // thread accepts, and is joined before setup returns.
  for (int attempt = 0; attempt < 3 && !tcp_a_; ++attempt) {
    const std::uint16_t port = free_loopback_port();
    if (port == 0) continue;
    std::optional<nmad::util::Expected<std::unique_ptr<drv::TcpDriver>>> client;
    std::thread dialer([&client, port] {
      client.emplace(drv::TcpDriver::connect_to("127.0.0.1", port));
    });
    auto server = drv::TcpDriver::listen_one(port);
    dialer.join();
    if (server && client && *client) {
      tcp_a_ = std::move(client->value());
      tcp_b_ = std::move(server.value());
    }
  }
  if (!tcp_a_) throw std::runtime_error("could not connect over 127.0.0.1");

  real_ = std::make_unique<drv::RealWorld>();
  const auto rails_a = maybe_wrap({tcp_a_.get()}, traced);
  const auto rails_b = maybe_wrap({tcp_b_.get()}, traced);
  real_->attach(rails_a[0]);
  real_->attach(rails_b[0]);

  drv::RealWorld* w = real_.get();
  SessionHooks hooks;
  hooks.clock = [w] { return w->now(); };
  hooks.defer = [w](std::function<void()> fn) { w->defer(std::move(fn)); };
  hooks.progress = [w](const std::function<bool()>& pred) { w->progress_until(pred); };
  if (traced) hooks = traced_hooks(std::move(hooks), Layer::kRealProgress);
  a_ = std::make_unique<core::Session>("A", hooks.clock, hooks.defer, hooks.progress);
  b_ = std::make_unique<core::Session>("B", hooks.clock, hooks.defer, hooks.progress);
  gate_ab_ = connect(*a_, rails_a, spec, traced);
  gate_ba_ = connect(*b_, rails_b, spec, traced);
}

nmad::sim::TimeNs Stack::virtual_now() const noexcept {
  return sim_ ? sim_->now() : 0;
}

std::uint64_t Stack::events_fired() const noexcept {
  return sim_ ? sim_->engine().events_fired() : 0;
}

std::pair<std::uint64_t, std::uint64_t> Stack::pool_counts() {
  std::uint64_t misses = 0;
  std::uint64_t total = 0;
  for (auto [s, g] : {std::pair{a_.get(), gate_ab_}, std::pair{b_.get(), gate_ba_}}) {
    core::Gate& gate = s->scheduler().gate(g);
    for (nmad::proto::BufferPool* pool : {&gate.header_pool(), &gate.staging_pool()}) {
      misses += pool->miss_count();
      total += pool->miss_count() + pool->hit_count();
    }
  }
  return {misses, total};
}

std::uint64_t Stack::progress_stalls() {
  std::uint64_t n = 0;
  for (core::Session* s : {a_.get(), b_.get()}) {
    if (const core::ProgressEngine* pe = s->progress_engine()) {
      n += pe->submission_stalls() + pe->completion_stalls();
    }
  }
  return n;
}

std::size_t Stack::unhealthy_rails() {
  std::size_t n = 0;
  for (auto [s, g] : {std::pair{a_.get(), gate_ab_}, std::pair{b_.get(), gate_ba_}}) {
    for (const core::Rail& rail : s->scheduler().gate(g).rails()) {
      if (!rail.healthy()) ++n;
    }
  }
  return n;
}

}  // namespace hostbench
