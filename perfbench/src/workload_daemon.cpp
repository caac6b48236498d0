// daemon_hot: a spawned qfsd with one compile worker, driven closed-loop
// over one connection without pipelining. Requests are qfsd_loadgen's
// defaults (surface17, trivial placer and router, latency on, seed 2022)
// for the QASMBench fixtures plus the paper-suite members under 1k gates
// that fit the device. The daemon's cache is filled during set-up, so
// every timed request is a hot in-memory hit.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "cache/artifact.h"
#include "qasm/writer.h"
#include "service/client.h"
#include "support/rng.h"
#include "workloads.h"

#ifndef QFS_PERFBENCH_QFSD
#error "QFS_PERFBENCH_QFSD must name the qfsd binary"
#endif

namespace perfbench {

namespace fs = std::filesystem;
using qfs::service::CompileRequest;
using qfs::service::CompileResponse;

namespace {

constexpr const char* kDevice = "surface17";
constexpr int kDeviceQubits = 17;
constexpr int kMaxSuiteGates = 1000;
constexpr const char* kFixtureDir = "tools/testdata/qasmbench";

/// A private qfsd on a Unix socket under the work directory. The process
/// is reaped and the socket removed on every exit path; the child also
/// dies with this process (PR_SET_PDEATHSIG) should it be killed.
class Daemon {
 public:
  Daemon(const std::string& socket_path, int workers)
      : socket_path_(socket_path), endpoint_("unix:" + socket_path) {
    fs::remove(socket_path_);
    std::vector<std::string> args = {QFS_PERFBENCH_QFSD, "--listen",
                                     endpoint_, "--workers",
                                     std::to_string(workers)};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }

  ~Daemon() {
    if (pid_ > 0 && !reaped_) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    std::error_code ec;
    fs::remove(socket_path_, ec);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& endpoint() const { return endpoint_; }

  /// Wait until the daemon answers ping (at most 20 s). Polls every
  /// millisecond, so the wait adds little beyond the daemon's start-up.
  void wait_ready() {
    const Clock::time_point start = Clock::now();
    while (ms_since(start) < 20000.0) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        reaped_ = true;
        throw std::runtime_error("qfsd exited during start-up");
      }
      qfs::service::Client probe(endpoint_);
      if (probe.op("ping").is_ok()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw std::runtime_error("qfsd did not answer ping");
  }

  /// Ask for a graceful shutdown and reap. Returns the exit code (-1 when
  /// it had to be killed).
  int stop() {
    {
      std::string error;
      const int fd = qfs::service::connect_endpoint(endpoint_, error);
      if (fd >= 0) {
        qfs::service::send_all(fd, "{\"op\":\"shutdown\"}\n");
        std::string line;
        qfs::service::LineReader(fd).next(line);
        ::close(fd);
      }
    }
    int status = 0;
    for (int i = 0; i < 200; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        reaped_ = true;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    reaped_ = true;
    return -1;
  }

 private:
  std::string socket_path_;
  std::string endpoint_;
  pid_t pid_ = -1;
  bool reaped_ = false;
};

/// One raw connection for the traced client (closed on scope exit).
class Connection {
 public:
  explicit Connection(const std::string& endpoint) {
    std::string error;
    fd_ = qfs::service::connect_endpoint(endpoint, error);
    if (fd_ < 0) throw std::runtime_error("connect: " + error);
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

struct Input {
  std::string name;
  std::string qasm;
  int gates = 0;
};

std::vector<Input> daemon_inputs(std::uint64_t seed) {
  std::vector<Input> inputs;
  std::vector<fs::path> fixtures;
  for (const auto& entry : fs::directory_iterator(kFixtureDir)) {
    if (entry.path().extension() == ".qasm") fixtures.push_back(entry.path());
  }
  std::sort(fixtures.begin(), fixtures.end());
  for (const auto& path : fixtures) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    inputs.push_back({path.filename().string(), text.str(), 0});
  }
  if (inputs.empty()) {
    throw std::runtime_error(std::string("no fixtures under ") + kFixtureDir);
  }
  for (const auto& b : seeded_paper_suite(seed)) {
    if (b.circuit.gate_count() >= kMaxSuiteGates ||
        b.circuit.num_qubits() > kDeviceQubits) {
      continue;
    }
    inputs.push_back(
        {b.name, qfs::qasm::to_qasm(b.circuit), b.circuit.gate_count()});
  }
  return inputs;
}

CompileRequest loadgen_request(const Input& input, std::size_t index) {
  CompileRequest request;
  request.id = "r" + std::to_string(index);
  request.qasm = input.qasm;
  request.source_name = input.name;
  request.device = kDevice;
  request.options.placer = "trivial";
  request.options.router = "trivial";
  request.options.compute_latency = true;
  request.seed = 2022;
  return request;
}

std::string metrics_document(const CompileResponse& resp) {
  return qfs::service::mapping_metrics_json(resp).to_string();
}

/// One traced round trip on a raw connection: encode, wire, decode.
CompileResponse traced_round_trip(int fd, qfs::service::LineReader& reader,
                                  const CompileRequest& request,
                                  Tracer& tracer, TraceLedger& ledger,
                                  long long rid, bool& transport_ok) {
  CompileResponse response;
  transport_ok = false;
  const Clock::time_point start = Clock::now();
  ScopedSpan root(tracer, "client.rtt", rid);
  std::string line;
  Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(tracer, "client.encode", rid);
    line = qfs::service::request_to_json(request).to_string() + "\n";
  }
  const double encode_ms = ms_since(t0);
  t0 = Clock::now();
  std::string reply;
  {
    ScopedSpan span(tracer, "client.wire", rid);
    if (!qfs::service::send_all(fd, line) || !reader.next(reply)) {
      return response;
    }
  }
  const double wire_ms = ms_since(t0);
  t0 = Clock::now();
  {
    ScopedSpan span(tracer, "client.decode", rid);
    auto json = qfs::JsonValue::parse(reply);
    if (!json.is_ok()) return response;
    auto decoded = qfs::service::response_from_json(json.value());
    if (!decoded.is_ok()) return response;
    response = std::move(decoded).value();
  }
  const double decode_ms = ms_since(t0);
  transport_ok = true;
  ledger.client_rtt_ms.push_back(ms_since(start));
  ledger.client_codec_ms.push_back(encode_ms + decode_ms);
  ledger.server_queue_ms.push_back(response.timing.queue_ms);
  ledger.server_total_ms.push_back(response.timing.total_ms);
  ledger.client_transport_ms.push_back(wire_ms - response.timing.queue_ms -
                                       response.timing.total_ms);
  return response;
}

}  // namespace

RunResult run_daemon_hot(const RunOptions& opts, Checker& checker,
                         Tracer& tracer, TraceLedger& ledger) {
  const std::vector<Input> inputs = daemon_inputs(opts.seed);
  std::vector<CompileRequest> requests;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    requests.push_back(loadgen_request(inputs[i], i));
  }
  int suite_members = 0;
  long long suite_gates = 0;
  for (const auto& in : inputs) {
    if (in.gates > 0) {
      ++suite_members;
      suite_gates += in.gates;
    }
  }
  std::cerr << "daemon_hot: " << inputs.size() - suite_members
            << " fixtures + " << suite_members << " suite circuits ("
            << suite_gates << " gates)\n";

  // In-process reference: the same requests through CompileService with
  // its own cache (also the replay's cache in the traced run). In the
  // traced run these first compiles are traced too: they are the cache
  // stores (encode + store) of this workload; their replays write into
  // caches of their own so that they miss as execute does.
  qfs::cache::CompileCache ref_cache(qfs::cache::CacheConfig{});
  const qfs::service::CompileService ref_service({.cache = &ref_cache});
  std::vector<CompileResponse> expected;
  {
    qfs::cache::CompileCache untraced(qfs::cache::CacheConfig{});
    qfs::cache::CompileCache traced(qfs::cache::CacheConfig{});
    for (const auto& request : requests) {
      expected.push_back(
          opts.trace ? traced_request(ref_service, request,
                                      {&untraced, &traced}, tracer, ledger,
                                      checker, request.source_name)
                     : ref_service.execute(request));
      checker.expect(expected.back().ok(), request.source_name + ": " +
                                               expected.back().error_message);
    }
  }

  const std::string socket_path =
      opts.work_dir + "/qfsd-" + std::to_string(::getpid()) + ".sock";
  Daemon daemon(socket_path, /*workers=*/1);
  daemon.wait_ready();

  EndToEnd e2e;
  RunResult result;
  {
    qfs::service::RetryPolicy no_retry;
    no_retry.max_attempts = 1;
    qfs::service::Client client(daemon.endpoint(), no_retry);

    // Fill the daemon's cache; every first answer must match in-process.
    for (std::size_t i = 0; i < requests.size(); ++i) {
      CompileResponse resp = client.call(requests[i]);
      if (!checker.expect(resp.ok(), requests[i].source_name + " via qfsd: " +
                                         resp.error_message)) {
        continue;
      }
      checker.expect(metrics_document(resp) == metrics_document(expected[i]),
                     requests[i].source_name +
                         ": daemon metrics differ from in-process execute");
      e2e.mapped_gates += resp.mapping.gates_after;
      e2e.swaps += resp.mapping.swaps_inserted;
      e2e.artifact_bytes += static_cast<double>(
          qfs::cache::serialize_mapping_result(expected[i].mapping).size());
    }

    std::vector<std::size_t> order(requests.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    qfs::Rng rng(qfs::derive_seed(opts.seed, 0xd43));
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<int>(i) - 1))]);
    }
    e2e.setup_s = ms_since(opts.process_start) / 1000.0;

    std::unique_ptr<Connection> raw;
    std::unique_ptr<qfs::service::LineReader> reader;
    if (opts.trace) {
      raw = std::make_unique<Connection>(daemon.endpoint());
      reader = std::make_unique<qfs::service::LineReader>(raw->fd());
    }

    std::vector<double> rtt_ms;
    std::vector<std::vector<double>> request_rtt_ms(requests.size());
    const Clock::time_point run_start = Clock::now();
    while (rtt_ms.empty() || ms_since(run_start) < opts.seconds * 1000.0) {
      for (std::size_t k : order) {
        const CompileRequest& request = requests[k];
        CompileResponse resp;
        bool transport_ok = true;
        const Clock::time_point t0 = Clock::now();
        if (opts.trace) {
          const long long rid = ledger.requests;
          resp = traced_round_trip(raw->fd(), *reader, request, tracer, ledger,
                                   rid, transport_ok);
          rtt_ms.push_back(ms_since(t0));
          request_rtt_ms[k].push_back(rtt_ms.back());
          // The hit path, replayed in process against the reference cache.
          const CompileResponse in_process =
              traced_request(ref_service, request, {&ref_cache, &ref_cache},
                             tracer, ledger, checker, request.source_name);
          checker.expect(in_process.cache_hit,
                         request.source_name + ": in-process replay missed");
        } else {
          resp = client.call(request);
          rtt_ms.push_back(ms_since(t0));
          request_rtt_ms[k].push_back(rtt_ms.back());
        }
        ++result.attempted;
        if (!transport_ok || !resp.ok()) {
          ++result.failed;
          checker.expect(false, request.source_name + " via qfsd: " +
                                    resp.error_message);
          continue;
        }
        checker.expect(resp.cache_hit,
                       request.source_name + ": timed request missed");
        checker.expect(resp.mapped_digest == expected[k].mapped_digest,
                       request.source_name + ": digest differs");
      }
    }
    describe("daemon_hot rtt ms", rtt_ms);
    e2e.latency_ms = sum_of_minima(request_rtt_ms) /
                     static_cast<double>(requests.size());
  }

  const int exit_code = daemon.stop();
  checker.expect(exit_code == 0,
                 "qfsd exit code " + std::to_string(exit_code));
  checker.expect(!fs::exists(socket_path), "qfsd left its socket behind");
  e2e.peak_rss_mb = peak_rss_mb_children();
  result.metrics = end_to_end_metrics(e2e);
  return result;
}

}  // namespace perfbench
