// Ablation (DESIGN.md): online multiplication cost of the two secure
// multiplication strategies the library ships.
//
//   GRR (mpc/protocol.h Mul) — BGW's classic degree reduction: each party
//   re-shares its local product; n*(n-1) messages of k elements per batch,
//   fresh polynomial sampling on the critical path, no preprocessing.
//
//   Beaver (mpc/beaver.h)    — consume a preprocessed triple per product;
//   online cost is ONE joint opening of (x - a, y - b): n*(n-1) messages
//   of 2k elements but no online polynomial sampling, and the opening can
//   be batched with other openings.
//
// The trade is classic: Beaver moves work offline (a deployment would run
// an offline triple protocol) for a leaner online phase. SQM can sit on
// either: SqmOptions::mul_backend selects GRR or the pre-dealt
// BeaverTriplePool end to end, and the differential suite proves the
// released bits identical.
//
// With --json=FILE the per-row numbers and the quorum-path round counts
// are also written as a JSON record (scripts/check.sh archives it as
// BENCH_beaver_vs_grr.json).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/party_sqm.h"
#include "core/sqm.h"
#include "mpc/beaver.h"
#include "mpc/protocol.h"
#include "net/lockstep.h"
#include "net/tcp/party_config.h"
#include "net/tcp/socket.h"
#include "net/tcp/tcp_transport.h"
#include "poly/parser.h"

namespace sqm {
namespace {

double SecondsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Row {
  size_t parties = 0;
  size_t batch = 0;
  double grr_seconds = 0.0;
  unsigned long long grr_elements = 0;
  double offline_seconds = 0.0;  ///< Pool pre-dealing, per batch.
  double online_seconds = 0.0;   ///< Pool-backed online phase only.
  unsigned long long beaver_elements = 0;
};

struct RoundCounts {
  bool ok = false;
  uint64_t grr_rounds = 0;
  uint64_t beaver_rounds = 0;
  uint64_t grr_census_messages = 0;
  uint64_t beaver_census_messages = 0;
};

struct PartyRun {
  bool ok = false;
  SqmReport report;  ///< Party 0's report.
};

/// Runs every party of a 3-party degrade-policy deployment as a thread
/// over real loopback TCP (the sqm-party daemon path, where the quorum
/// census actually goes on the wire) and returns party 0's report.
PartyRun RunQuorumTcp(const std::string& backend, uint64_t run_id) {
  PartyRun result;
  DeploymentConfig config;
  config.run_id = run_id;
  config.session_key = 0xbea7e5;
  config.parties.assign(3, {"127.0.0.1", 0});
  config.rows = 8;
  config.cols = 3;
  config.data_seed = 7;
  config.polynomial = "x0*x1 + x2; x2*x2";
  config.gamma = 64;
  config.mu = 4.0;
  config.seed = 42;
  config.mul_backend = backend;
  config.dropout_policy = "degrade";
  config.receive_timeout_seconds = 1.0;
  config.connect_timeout_seconds = 10.0;

  const size_t n = config.parties.size();
  std::vector<net::Socket> listeners;
  for (size_t i = 0; i < n; ++i) {
    Result<net::Socket> listener = net::ListenOn("127.0.0.1", 0);
    if (!listener.ok()) return result;
    Result<uint16_t> port = net::LocalPort(listener.ValueOrDie());
    if (!port.ok()) return result;
    config.parties[i].port = port.ValueOrDie();
    listeners.push_back(std::move(listener.ValueOrDie()));
  }
  std::vector<SqmReport> reports(n);
  // Not vector<bool>: parties write concurrently, and its bit packing
  // would make neighboring writes race.
  std::vector<char> party_ok(n, 0);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) {
    const int fd = listeners[i].Release();
    threads.emplace_back([&, i, fd] {
      Result<std::unique_ptr<TcpTransport>> transport =
          TcpTransport::Create(TcpOptionsFromDeployment(config, i, fd));
      if (!transport.ok()) return;
      Result<SqmReport> report =
          RunPartySqm(config, i, transport.ValueOrDie().get());
      transport.ValueOrDie()->Shutdown();
      if (!report.ok()) return;
      reports[i] = report.ValueOrDie();
      party_ok[i] = 1;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < n; ++i) {
    if (!party_ok[i]) return result;
  }
  result.ok = true;
  result.report = reports[0];
  return result;
}

/// Runs the same SQM release on the networked quorum
/// (dropout_policy=degrade) path under both Mul backends and reports the
/// transport round counters: GRR needs a sub-share exchange plus a census
/// round per multiplication level, Beaver one packed opening and no
/// census at all. (The in-process driver sees every dealer directly and
/// skips the census, so the halving is only visible here.)
RoundCounts CountQuorumRounds() {
  RoundCounts counts;
  if (!net::TcpSupported()) return counts;
  const PartyRun grr = RunQuorumTcp("grr", 9101);
  const PartyRun beaver = RunQuorumTcp("beaver", 9102);
  if (!grr.ok || !beaver.ok) return counts;
  if (grr.report.raw != beaver.report.raw) return counts;

  counts.ok = true;
  counts.grr_rounds = grr.report.network.rounds;
  counts.beaver_rounds = beaver.report.network.rounds;
  for (const PhaseStats& phase : grr.report.transport.phases) {
    if (phase.phase == "census") {
      counts.grr_census_messages = phase.traffic.messages;
    }
  }
  for (const PhaseStats& phase : beaver.report.transport.phases) {
    if (phase.phase == "census") {
      counts.beaver_census_messages = phase.traffic.messages;
    }
  }
  return counts;
}

void WriteJson(const std::string& path, bool paper_scale,
               const std::vector<Row>& rows, const RoundCounts& counts) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out,
               "{\"bench\":\"beaver_vs_grr\",\"scale\":\"%s\",\"rows\":[",
               paper_scale ? "paper" : "small");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(
        out,
        "%s{\"parties\":%zu,\"batch\":%zu,\"grr_seconds\":%.6f,"
        "\"grr_elements\":%llu,\"beaver_offline_seconds\":%.6f,"
        "\"beaver_online_seconds\":%.6f,\"beaver_elements\":%llu}",
        i > 0 ? "," : "", row.parties, row.batch, row.grr_seconds,
        row.grr_elements, row.offline_seconds, row.online_seconds,
        row.beaver_elements);
  }
  std::fprintf(out, "],\"quorum_rounds\":{\"ok\":%s,\"grr\":%llu,"
                    "\"beaver\":%llu,\"grr_census_messages\":%llu,"
                    "\"beaver_census_messages\":%llu}}\n",
               counts.ok ? "true" : "false",
               static_cast<unsigned long long>(counts.grr_rounds),
               static_cast<unsigned long long>(counts.beaver_rounds),
               static_cast<unsigned long long>(counts.grr_census_messages),
               static_cast<unsigned long long>(counts.beaver_census_messages));
  std::fclose(out);
}

}  // namespace
}  // namespace sqm

int main(int argc, char** argv) {
  using namespace sqm;
  const bench::BenchConfig config = bench::ParseArgs(argc, argv);
  const int repeats = config.paper_scale ? 50 : 10;

  bench::PrintHeader(
      "Ablation: GRR degree reduction vs Beaver triples (online phase)",
      "batched secure multiplication, mean over repeated batches");

  std::printf("%-8s %-8s | %-12s %-14s | %-12s %-12s %-14s\n", "parties",
              "batch", "GRR s", "GRR elements", "offline s", "online s",
              "Beaver elems");
  bench::PrintRule();

  std::vector<Row> json_rows;
  for (size_t parties : {4u, 8u, 16u}) {
    for (size_t batch : config.paper_scale
                            ? std::vector<size_t>{1024, 16384}
                            : std::vector<size_t>{256, 4096}) {
      const size_t threshold = (parties - 1) / 2;
      LockstepTransport network(parties, 0.0);
      BgwProtocol protocol(ShamirScheme(parties, threshold), &network, 3);

      std::vector<Field::Element> values(batch);
      for (size_t i = 0; i < batch; ++i) values[i] = i + 1;
      const SharedVector x = protocol.ShareFromParty(0, values).ValueOrDie();
      const SharedVector y = protocol.ShareFromParty(1, values).ValueOrDie();

      // GRR timing.
      NetworkStats before = network.stats();
      auto start = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) {
        (void)protocol.Mul(x, y).ValueOrDie();
      }
      const double grr_seconds = SecondsSince(start) / repeats;
      const uint64_t grr_elements =
          (network.stats().field_elements - before.field_elements) /
          repeats;

      // Beaver: pre-deal the whole run's triples up front (the offline
      // phase, timed separately), then time the pure online phase.
      start = std::chrono::steady_clock::now();
      BeaverTriplePool pool(ShamirScheme(parties, threshold), 5,
                            batch * static_cast<size_t>(repeats));
      const double offline_seconds = SecondsSince(start) / repeats;
      protocol.set_beaver_pool(&pool);
      before = network.stats();
      start = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) {
        (void)protocol.Mul(x, y).ValueOrDie();
      }
      const double online_seconds = SecondsSince(start) / repeats;
      const uint64_t beaver_elements =
          (network.stats().field_elements - before.field_elements) /
          repeats;

      Row row;
      row.parties = parties;
      row.batch = batch;
      row.grr_seconds = grr_seconds;
      row.grr_elements = grr_elements;
      row.offline_seconds = offline_seconds;
      row.online_seconds = online_seconds;
      row.beaver_elements = beaver_elements;
      json_rows.push_back(row);

      std::printf(
          "%-8zu %-8zu | %-12.5f %-14llu | %-12.5f %-12.5f %-14llu\n",
          parties, batch, grr_seconds,
          static_cast<unsigned long long>(grr_elements), offline_seconds,
          online_seconds, static_cast<unsigned long long>(beaver_elements));
    }
  }

  std::printf(
      "\nReading: `offline s` + `online s` split Beaver multiplication "
      "through the BeaverTriplePool — the pool is charged once up front "
      "and the online phase is a single packed opening per batch. "
      "Per-batch traffic is the 2k-element opening vs GRR's k-element "
      "re-sharing — comparable volume, but Beaver needs no online "
      "randomness and composes with opening batches.\n");

  const RoundCounts counts = CountQuorumRounds();
  std::printf(
      "\nQuorum-path round accounting (dropout_policy=degrade, same "
      "release both backends):\n");
  if (counts.ok) {
    std::printf("  GRR    rounds: %llu  (census messages: %llu)\n",
                static_cast<unsigned long long>(counts.grr_rounds),
                static_cast<unsigned long long>(counts.grr_census_messages));
    std::printf("  Beaver rounds: %llu  (census messages: %llu)\n",
                static_cast<unsigned long long>(counts.beaver_rounds),
                static_cast<unsigned long long>(
                    counts.beaver_census_messages));
    std::printf(
        "  Each GRR multiplication level costs a sub-share round plus a "
        "census round; Beaver replaces both with ONE packed opening "
        "(opened values are public, so no census), halving the per-Mul "
        "round count. Released bits were verified identical.\n");
  } else {
    std::printf("  (quorum comparison failed to run)\n");
  }

  if (!config.json_path.empty()) {
    WriteJson(config.json_path, config.paper_scale, json_rows, counts);
    std::printf("JSON summary written to %s\n", config.json_path.c_str());
  }
  return 0;
}
