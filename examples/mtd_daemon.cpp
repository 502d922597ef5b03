// mtd_daemon: the long-running MTD serving daemon (ROADMAP "Serving").
//
// Server mode loads a case, runs the pass-1 daily baseline, keys hour 0,
// and serves the newline-delimited-JSON protocol documented in DESIGN.md
// "Serving architecture" on a loopback TCP socket. Re-keying advances a
// virtual clock: on demand via the `tick` verb, or on a wall-clock
// interval with --rekey-ms. Client mode connects to a running daemon,
// sends each --request line, and prints the replies — the same wire
// format `nc 127.0.0.1 PORT` speaks.
//
// Replies are bit-identical for any --threads value and any interleaving
// of queries with re-keying (same --seed), which the CI smoke step
// enforces by diffing full transcripts across --threads 1 and 8.
//
// With --shards N > 1 the daemon serves a ShardedDaemon fleet: N
// independent copies of the case, shard k seeded with
// stream_seed(seed, k), routed by the "shard"/"case" request fields
// (DESIGN.md "Fleet sharding"); --rekey-ms then broadcast-ticks every
// shard.
//
// Usage:
//   mtd_daemon [--threads N] [--seed S] [--port P] [--history H]
//              [--shards N] [--attacks N] [--starts N] [--evals N]
//              [--base-evals N] [--rekey-ms MS] [--trace-out FILE] [case]
//   mtd_daemon --client PORT [--request JSON]...
//
// Defaults: case14, seed 7, port 0 (kernel-assigned, printed on stdout),
// history 24 hours, 1 shard, manual re-keying (rekey-ms 0). --trace-out
// enables the process-wide span tracer and writes everything collected
// over the daemon's lifetime as Chrome trace_event JSON (Perfetto /
// chrome://tracing) at shutdown.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "io/case_registry.hpp"
#include "obs/trace.hpp"
#include "serve/daemon.hpp"
#include "serve/server.hpp"
#include "serve/sharded.hpp"

namespace {

std::atomic<bool> g_signal_stop{false};

void handle_signal(int) { g_signal_stop.store(true); }

int run_client(std::uint16_t port, const std::vector<std::string>& requests) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("mtd_daemon: socket");
    return 1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    std::fprintf(stderr, "mtd_daemon: connect 127.0.0.1:%u: %s\n",
                 static_cast<unsigned>(port), std::strerror(errno));
    ::close(fd);
    return 1;
  }
  std::string buffer;
  char chunk[4096];
  for (const std::string& request : requests) {
    const std::string line = request + "\n";
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n =
          ::send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        std::fprintf(stderr, "mtd_daemon: send failed\n");
        ::close(fd);
        return 1;
      }
      sent += static_cast<std::size_t>(n);
    }
    // One reply line per request, in order.
    for (;;) {
      const std::size_t nl = buffer.find('\n');
      if (nl != std::string::npos) {
        std::printf("%s\n", buffer.substr(0, nl).c_str());
        buffer.erase(0, nl + 1);
        break;
      }
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) {
        std::fprintf(stderr, "mtd_daemon: connection closed before reply\n");
        ::close(fd);
        return 1;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mtdgrid;

  serve::DaemonOptions options;
  options.daily.effectiveness.num_attacks = 200;
  options.daily.selection.extra_starts = 2;
  options.daily.selection.search.max_evaluations = 600;
  unsigned long long port = 0;
  unsigned long long rekey_ms = 0;
  unsigned long long shards = 1;
  std::string trace_out;
  bool client_mode = false;
  unsigned long long client_port = 0;
  std::vector<std::string> client_requests;
  bool case_set = false;

  examples::Cli cli(
      argv[0],
      {"[--threads N] [--seed S] [--port P] [--history H]",
       "[--shards N] [--attacks N] [--starts N] [--evals N]",
       "[--base-evals N] [--rekey-ms MS] [--trace-out FILE] [case]"});
  cli.alternative("--client PORT [--request JSON]...");
  cli.flag_threads();
  cli.flag_u64("--seed", 0, ~0ULL,
               [&](unsigned long long v) { options.seed = v; });
  cli.flag_u64("--port", 0, 65535, [&](unsigned long long v) { port = v; });
  cli.flag_u64("--history", 1, 1000000, [&](unsigned long long v) {
    options.history_hours = static_cast<std::size_t>(v);
  });
  cli.flag_u64("--attacks", 1, 1000000, [&](unsigned long long v) {
    options.daily.effectiveness.num_attacks = static_cast<int>(v);
  });
  cli.flag_u64("--starts", 0, 1000, [&](unsigned long long v) {
    options.daily.selection.extra_starts = static_cast<int>(v);
  });
  cli.flag_u64("--evals", 1, 1000000, [&](unsigned long long v) {
    options.daily.selection.search.max_evaluations = static_cast<int>(v);
  });
  cli.flag_u64("--base-evals", 1, 1000000, [&](unsigned long long v) {
    options.daily.base_search_evaluations = static_cast<int>(v);
  });
  cli.flag_u64("--shards", 1, 64, [&](unsigned long long v) { shards = v; });
  cli.flag_u64("--rekey-ms", 0, 86400000,
               [&](unsigned long long v) { rekey_ms = v; });
  cli.flag_str("--trace-out",
               [&](const std::string& path) { trace_out = path; });
  cli.flag_u64("--client", 1, 65535, [&](unsigned long long v) {
    client_mode = true;
    client_port = v;
  });
  cli.flag_value("--request", [&](const char* raw) {
    // Blank lines get no reply from the daemon, so a blank --request
    // would hang the client waiting for one — reject it up front.
    if (std::string(raw).find_first_not_of(" \t\r\n") == std::string::npos)
      return false;
    client_requests.emplace_back(raw);
    return true;
  });
  cli.positional([&](const std::string& arg) {
    if (case_set || !io::CaseRegistry::global().knows(arg)) return false;
    options.case_name = arg;
    case_set = true;
    return true;
  });
  if (!cli.parse(argc, argv)) return 2;
  if (client_mode) {
    if (case_set || port != 0 || rekey_ms != 0 || shards != 1 ||
        !trace_out.empty())
      return cli.usage();
    return run_client(static_cast<std::uint16_t>(client_port),
                      client_requests);
  }
  if (!client_requests.empty()) return cli.usage();

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  // Enable span collection before construction so the pass-1 baseline
  // and hour-0 keying show up in the trace.
  if (!trace_out.empty()) obs::Tracer::global().set_enabled(true);

  std::printf("mtd-daemon: loading %llu x %s and keying hour 0...\n",
              shards, options.case_name.c_str());
  std::fflush(stdout);
  // One shard serves a plain MtdDaemon; more serve a ShardedDaemon fleet
  // of independent copies seeded with stream_seed(seed, shard).
  std::unique_ptr<serve::MtdDaemon> daemon_ptr;
  std::unique_ptr<serve::ShardedDaemon> fleet_ptr;
  try {
    if (shards == 1) {
      daemon_ptr = std::make_unique<serve::MtdDaemon>(options);
    } else {
      serve::ShardedOptions fleet_options;
      fleet_options.cases.assign(static_cast<std::size_t>(shards),
                                 options.case_name);
      fleet_options.seed = options.seed;
      fleet_options.history_hours = options.history_hours;
      fleet_options.daily = options.daily;
      fleet_ptr = std::make_unique<serve::ShardedDaemon>(fleet_options);
    }
  } catch (const io::CaseIoError& e) {
    std::fprintf(stderr, "mtd_daemon: %s\n", e.what());
    return 1;
  }
  serve::LineService& service =
      daemon_ptr ? static_cast<serve::LineService&>(*daemon_ptr)
                 : static_cast<serve::LineService&>(*fleet_ptr);
  const auto for_each_shard = [&](const auto& fn) {
    if (daemon_ptr) {
      fn(*daemon_ptr);
    } else {
      for (std::size_t k = 0; k < fleet_ptr->num_shards(); ++k)
        fn(fleet_ptr->shard(k));
    }
  };
  for_each_shard([](const serve::MtdDaemon& shard) {
    const auto snap = shard.current_snapshot();
    std::printf("mtd-daemon: %s keyed at hour %zu (gamma_th=%.2f, "
                "eta=%.2f, load=%.0f MW)\n",
                shard.case_name().c_str(), snap->hour,
                snap->record.gamma_threshold, snap->record.eta_at_target,
                snap->record.total_load_mw);
  });

  serve::SocketServer server(service, static_cast<std::uint16_t>(port));
  std::printf("mtd-daemon: listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::printf("mtd-daemon: re-keying %s; try:  "
              "printf '{\"op\":\"status\"}\\n' | nc 127.0.0.1 %u\n",
              rekey_ms > 0 ? "on a wall-clock interval" : "via the tick verb",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  // Optional wall-clock re-keying scheduler: the virtual clock advances
  // one hour every rekey_ms milliseconds (an accelerated stand-in for
  // the paper's hourly MTD period).
  std::thread rekey_thread;
  if (rekey_ms > 0) {
    rekey_thread = std::thread([&] {
      auto next = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(rekey_ms);
      while (!service.shutdown_requested() && !g_signal_stop.load()) {
        if (std::chrono::steady_clock::now() < next) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          continue;
        }
        next += std::chrono::milliseconds(rekey_ms);
        const std::size_t hour =
            daemon_ptr ? daemon_ptr->tick() : fleet_ptr->tick_all().front();
        std::printf("mtd-daemon: re-keyed to hour %zu\n", hour);
        std::fflush(stdout);
      }
    });
  }

  // Serve until a client sends `shutdown` or a signal arrives. Polling
  // keeps the loop signal-safe (a handler cannot notify a condition
  // variable).
  while (!service.shutdown_requested() && !g_signal_stop.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  if (daemon_ptr)
    daemon_ptr->request_shutdown();
  else
    fleet_ptr->request_shutdown();
  server.stop();
  if (rekey_thread.joinable()) rekey_thread.join();

  serve::DaemonCounters counters;  // summed across shards
  obs::WorkSnapshot work{};        // engine work, summed across shards
  for_each_shard([&](const serve::MtdDaemon& shard) {
    const serve::DaemonCounters c = shard.counters();
    counters.requests += c.requests;
    counters.errors += c.errors;
    counters.ticks += c.ticks;
    const obs::WorkSnapshot w = shard.registry().work_snapshot();
    for (std::size_t i = 0; i < obs::kWorkCount; ++i) work[i] += w[i];
  });
  std::printf("mtd-daemon: shutting down after %llu requests "
              "(%llu errors, %llu re-keys)\n",
              static_cast<unsigned long long>(counters.requests),
              static_cast<unsigned long long>(counters.errors),
              static_cast<unsigned long long>(counters.ticks));
  const auto work_of = [&](mtdgrid::obs::Work w) {
    return static_cast<unsigned long long>(
        work[static_cast<std::size_t>(w)]);
  };
  std::printf("mtd-daemon: engine work: %llu dispatch certificate hits, "
              "%llu LP solves, %llu simplex pivots, %llu MC trials, "
              "%llu engine hours\n",
              work_of(obs::Work::kDispatchCertificateHits),
              work_of(obs::Work::kSimplexSolves),
              work_of(obs::Work::kSimplexPhase1Iterations) +
                  work_of(obs::Work::kSimplexPhase2Iterations),
              work_of(obs::Work::kMcTrials),
              work_of(obs::Work::kEngineHours));

  if (!trace_out.empty()) {
    // Workers are quiesced (server stopped, scheduler joined), so the
    // drain sees every span recorded over the daemon's lifetime.
    const std::vector<obs::TraceEvent> events = obs::Tracer::global().drain();
    std::ofstream out(trace_out);
    if (!out) {
      std::fprintf(stderr, "mtd_daemon: cannot write %s\n",
                   trace_out.c_str());
      return 1;
    }
    obs::write_chrome_trace(out, events);
    std::printf("mtd-daemon: wrote %zu trace events to %s\n", events.size(),
                trace_out.c_str());
  }
  return 0;
}
