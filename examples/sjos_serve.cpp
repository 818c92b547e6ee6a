// sjos_serve: the network query server as a binary. Loads or generates a
// dataset, wraps it in sjos::Engine, and serves the framed-JSON wire
// protocol (see src/net/codec.h) until stdin reaches EOF — so a harness
// can run it in the background and stop it by closing the pipe:
//
//   ./build/examples/sjos_serve --dataset Pers --nodes 20000 --port 7544 &
//   ... drive it with sjos_shell --connect 127.0.0.1:7544
//
// The chosen port is printed as "LISTENING <port>" on stdout (flushed) so
// scripts can scrape it when --port 0 picked an ephemeral one. With
// --http-port an HTTP observability endpoint starts beside the query port
// (printed as "HTTP LISTENING <port>"): /metrics, /healthz, /statusz —
// see src/net/http.h. --query-log / --slow-log / --slow-ms wire the JSONL
// audit and slow-query sinks.
//
// Graceful drain: SIGTERM, the stdin command "drain", or the wire 'drain'
// verb all begin a drain (stop accepting, shed new submits with retry
// hints, finish or deadline-cancel in-flight work), after which the
// process exits — "DRAINING" is printed when it starts. --idle-timeout-ms
// arms the slow-loris/idle reaper. Every query runs under the server-wide
// byte bound (net::kMaxQueryLiveBytes) or a smaller one it asks for.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <poll.h>
#include <unistd.h>

#include "net/http.h"
#include "net/server.h"
#include "query/workload.h"
#include "service/engine.h"
#include "xml/parser.h"

using namespace sjos;

namespace {

uint64_t ArgU64(int argc, char** argv, int* i, const char* flag) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "%s needs a value\n", flag);
    std::exit(2);
  }
  return std::strtoull(argv[++*i], nullptr, 10);
}

// SIGTERM → one byte down the self-pipe; the poll() loop turns it into a
// graceful drain. Async-signal-safe (write only).
int g_signal_pipe[2] = {-1, -1};

void OnSigTerm(int) {
  const char byte = 't';
  ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dataset = "Pers";
  std::string load_path;
  uint64_t nodes = 20'000;
  net::ServerOptions server_options;
  net::HttpServerOptions http_options;
  EngineOptions engine_options;
  bool http_enabled = false;
  // The paper workload's broad Pers twigs return ~100k-row results; the
  // standalone server defaults to a frame budget that carries them.
  server_options.max_frame_bytes = 16 * 1024 * 1024;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--port") == 0) {
      server_options.port = static_cast<uint16_t>(ArgU64(argc, argv, &i, arg));
    } else if (std::strcmp(arg, "--dataset") == 0 && i + 1 < argc) {
      dataset = argv[++i];
    } else if (std::strcmp(arg, "--load") == 0 && i + 1 < argc) {
      load_path = argv[++i];
    } else if (std::strcmp(arg, "--nodes") == 0) {
      nodes = ArgU64(argc, argv, &i, arg);
    } else if (std::strcmp(arg, "--max-in-flight") == 0) {
      engine_options.max_in_flight =
          static_cast<size_t>(ArgU64(argc, argv, &i, arg));
    } else if (std::strcmp(arg, "--max-connections") == 0) {
      server_options.max_connections =
          static_cast<size_t>(ArgU64(argc, argv, &i, arg));
    } else if (std::strcmp(arg, "--max-frame-bytes") == 0) {
      server_options.max_frame_bytes =
          static_cast<size_t>(ArgU64(argc, argv, &i, arg));
    } else if (std::strcmp(arg, "--http-port") == 0) {
      http_options.port = static_cast<uint16_t>(ArgU64(argc, argv, &i, arg));
      http_enabled = true;
    } else if (std::strcmp(arg, "--query-log") == 0 && i + 1 < argc) {
      engine_options.query_log.path = argv[++i];
    } else if (std::strcmp(arg, "--slow-log") == 0 && i + 1 < argc) {
      engine_options.query_log.slow_path = argv[++i];
    } else if (std::strcmp(arg, "--slow-ms") == 0) {
      engine_options.query_log.slow_query_ms = ArgU64(argc, argv, &i, arg);
    } else if (std::strcmp(arg, "--drain-deadline-ms") == 0) {
      server_options.drain_deadline_ms = ArgU64(argc, argv, &i, arg);
    } else if (std::strcmp(arg, "--idle-timeout-ms") == 0) {
      server_options.idle_timeout_ms = ArgU64(argc, argv, &i, arg);
    } else {
      std::fprintf(stderr,
                   "usage: sjos_serve [--port N] [--dataset Pers|DBLP|Mbench] "
                   "[--load file.xml] [--nodes N] [--max-in-flight N] "
                   "[--max-connections N] [--max-frame-bytes N] "
                   "[--http-port N] [--query-log file.jsonl] "
                   "[--slow-log file.jsonl] [--slow-ms N] "
                   "[--drain-deadline-ms N] [--idle-timeout-ms N]\n");
      return 2;
    }
  }

  Engine engine(engine_options);
  if (!load_path.empty()) {
    Result<Document> doc = ParseXmlFile(load_path);
    if (!doc.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   doc.status().ToString().c_str());
      return 1;
    }
    if (!engine.OpenDatabase(Database::Open(std::move(doc).value(), load_path))
             .ok()) {
      return 1;
    }
  } else {
    DatasetScale scale;
    scale.base_nodes = nodes;
    Result<Database> db = MakePaperDataset(dataset, scale);
    if (!db.ok()) {
      std::fprintf(stderr, "dataset '%s' failed: %s\n", dataset.c_str(),
                   db.status().ToString().c_str());
      return 1;
    }
    if (!engine.OpenDatabase(std::move(db).value()).ok()) return 1;
  }
  std::fprintf(stderr, "serving '%s' (%zu nodes)\n",
               engine.db().name().c_str(), engine.db().doc().NumNodes());

  net::QueryServer server(&engine, server_options);
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("LISTENING %u\n", server.port());
  std::fflush(stdout);

  net::ObservabilityServer http(&engine, http_options);
  if (http_enabled) {
    Status http_st = http.Start();
    if (!http_st.ok()) {
      std::fprintf(stderr, "http start failed: %s\n",
                   http_st.ToString().c_str());
      server.Stop();
      return 1;
    }
    std::printf("HTTP LISTENING %u\n", http.port());
    std::fflush(stdout);
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "signal pipe failed: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnSigTerm;
  ::sigaction(SIGTERM, &sa, nullptr);

  // Serve until a drain finishes, the harness closes stdin, or "quit"
  // arrives. stdin is read line-by-line but multiplexed with the signal
  // pipe so SIGTERM interrupts an idle read.
  bool drain_announced = false;
  std::string stdin_buffer;
  bool stdin_open = true;
  bool quit = false;
  while (!quit) {
    if (server.drained()) break;
    pollfd fds[2];
    fds[0] = {g_signal_pipe[0], POLLIN, 0};
    fds[1] = {STDIN_FILENO, POLLIN, 0};
    const int nfds = stdin_open ? 2 : 1;
    const int rc = ::poll(fds, nfds, /*timeout_ms=*/200);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;
    if (fds[0].revents != 0) {
      char drainbuf[16];
      (void)!::read(g_signal_pipe[0], drainbuf, sizeof(drainbuf));
      server.BeginDrain();
    }
    if (stdin_open && fds[1].revents != 0) {
      char buf[256];
      const ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
      if (n <= 0) {
        stdin_open = false;
        if (!server.draining()) quit = true;  // pipe closed: plain stop
      } else {
        stdin_buffer.append(buf, static_cast<size_t>(n));
        size_t nl;
        while ((nl = stdin_buffer.find('\n')) != std::string::npos) {
          const std::string line = stdin_buffer.substr(0, nl);
          stdin_buffer.erase(0, nl + 1);
          if (line == "quit") {
            quit = true;
          } else if (line == "drain") {
            server.BeginDrain();
          }
        }
      }
    }
    if (server.draining() && !drain_announced) {
      drain_announced = true;
      std::printf("DRAINING\n");
      std::fflush(stdout);
    }
  }
  if (server.draining()) server.Drain();
  http.Stop();
  server.Stop();
  // Everything appended is on disk before the exit message.
  engine.query_log().Flush();
  std::fprintf(stderr, "server stopped\n");
  return 0;
}
