// sqm_cli: run the Skellam Quantization Mechanism on a CSV database from
// the command line — the "downstream user" entry point that needs no C++.
//
//   ./build/examples/sqm_cli --poly "x0*x1; x0^2" --data mydata.csv
//       --epsilon 1 --gamma 2048 --backend bgw
//
// Flags:
//   --poly "<dims>"     required; ';'-separated polynomial dimensions
//                       (grammar in poly/parser.h).
//   --data <path>       CSV of numeric features (header row assumed; use
//                       --no-header otherwise). Without it, a synthetic
//                       database is generated (--rows/--cols).
//   --epsilon/--delta   privacy target (default 1.0 / 1e-5).
//   --gamma <g>         quantization scale (default 2048).
//   --max-f <v>         upper bound on max ||f(x)||_2 over the unit ball
//                       (default 1.0; part of the sensitivity bound —
//                       choose honestly, it is a privacy parameter).
//   --backend bgw|plaintext  (default plaintext).
//   --transport inprocess|tcp  (default inprocess). tcp runs the release
//                       as one TcpTransport per party over loopback
//                       sockets — the sqm-party deployment path in a
//                       single process (implies bgw; synthetic data only,
//                       since networked parties derive their columns from
//                       the shared seed; see docs/DEPLOYMENT.md).
//   --no-noise          skip DP noise (utility debugging only).
//   --rows/--cols       synthetic database shape (default 200 x 3).
//   --seed <s>          RNG seed (default 42).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/party_sqm.h"
#include "core/sqm.h"
#include "dp/rdp.h"
#include "dp/skellam.h"
#include "net/tcp/party_config.h"
#include "net/tcp/socket.h"
#include "net/tcp/tcp_transport.h"
#include "poly/parser.h"
#include "sampling/gaussian_sampler.h"
#include "sampling/rng.h"
#include "vfl/csv.h"
#include "vfl/dataset.h"

namespace {

struct CliArgs {
  std::string poly;
  std::string data_path;
  bool has_header = true;
  double epsilon = 1.0;
  double delta = 1e-5;
  double gamma = 2048.0;
  double max_f = 1.0;
  bool use_bgw = false;
  bool use_tcp = false;
  bool no_noise = false;
  size_t rows = 200;
  size_t cols = 3;
  uint64_t seed = 42;
};

bool ParseFlag(int argc, char** argv, int& i, const char* name,
               std::string* out) {
  if (std::strcmp(argv[i], name) != 0) return false;
  if (i + 1 >= argc) {
    std::fprintf(stderr, "%s needs a value\n", name);
    std::exit(2);
  }
  *out = argv[++i];
  return true;
}

/// Runs every party of `config` as a thread over a real loopback TCP mesh
/// (pre-bound port-0 listeners, the coordinator's race-free handover) and
/// returns party 0's report after checking all parties released the same
/// values. The demo twin of a real deployment: swap threads for processes
/// and loopback for a network and you have sqm-party (docs/DEPLOYMENT.md).
sqm::Result<sqm::SqmReport> RunTcpMesh(sqm::DeploymentConfig config) {
  using sqm::net::ListenOn;
  using sqm::net::LocalPort;
  using sqm::net::Socket;
  if (!sqm::net::TcpSupported()) {
    return sqm::Status::Unimplemented(
        "--transport tcp needs POSIX sockets on this platform");
  }
  const size_t n = config.parties.size();
  std::vector<Socket> listeners;
  for (size_t i = 0; i < n; ++i) {
    sqm::Result<Socket> listener = ListenOn("127.0.0.1", 0);
    if (!listener.ok()) return listener.status();
    sqm::Result<uint16_t> port = LocalPort(listener.ValueOrDie());
    if (!port.ok()) return port.status();
    config.parties[i].port = port.ValueOrDie();
    listeners.push_back(std::move(listener.ValueOrDie()));
  }

  std::vector<sqm::SqmReport> reports(n);
  std::vector<std::string> errors(n);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) {
    const int fd = listeners[i].Release();
    threads.emplace_back([&, i, fd] {
      sqm::Result<std::unique_ptr<sqm::TcpTransport>> transport =
          sqm::TcpTransport::Create(
              sqm::TcpOptionsFromDeployment(config, i, fd));
      if (!transport.ok()) {
        errors[i] = transport.status().ToString();
        return;
      }
      sqm::Result<sqm::SqmReport> report =
          sqm::RunPartySqm(config, i, transport.ValueOrDie().get());
      transport.ValueOrDie()->Shutdown();
      if (!report.ok()) {
        errors[i] = report.status().ToString();
      } else {
        reports[i] = report.ValueOrDie();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < n; ++i) {
    if (!errors[i].empty()) {
      return sqm::Status::Internal("party " + std::to_string(i) + ": " +
                                   errors[i]);
    }
    if (reports[i].raw != reports[0].raw) {
      return sqm::Status::IntegrityViolation(
          "party " + std::to_string(i) + " released different values");
    }
  }
  return reports[0];
}

int Usage() {
  std::fprintf(stderr,
               "usage: sqm_cli --poly \"<dims>\" [--data file.csv] "
               "[--epsilon E] [--delta D] [--gamma G] [--max-f V] "
               "[--backend bgw|plaintext] [--transport inprocess|tcp] "
               "[--no-noise] [--no-header] [--rows M] [--cols N] "
               "[--seed S]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sqm;
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argc, argv, i, "--poly", &value)) {
      args.poly = value;
    } else if (ParseFlag(argc, argv, i, "--data", &value)) {
      args.data_path = value;
    } else if (ParseFlag(argc, argv, i, "--epsilon", &value)) {
      args.epsilon = std::atof(value.c_str());
    } else if (ParseFlag(argc, argv, i, "--delta", &value)) {
      args.delta = std::atof(value.c_str());
    } else if (ParseFlag(argc, argv, i, "--gamma", &value)) {
      args.gamma = std::atof(value.c_str());
    } else if (ParseFlag(argc, argv, i, "--max-f", &value)) {
      args.max_f = std::atof(value.c_str());
    } else if (ParseFlag(argc, argv, i, "--backend", &value)) {
      args.use_bgw = value == "bgw";
    } else if (ParseFlag(argc, argv, i, "--transport", &value)) {
      if (value == "tcp") {
        args.use_tcp = true;
        args.use_bgw = true;  // TCP parties run BGW by construction.
      } else if (value != "inprocess") {
        std::fprintf(stderr, "unknown transport '%s'\n", value.c_str());
        return Usage();
      }
    } else if (ParseFlag(argc, argv, i, "--rows", &value)) {
      args.rows = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(argc, argv, i, "--cols", &value)) {
      args.cols = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(argc, argv, i, "--seed", &value)) {
      args.seed = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (std::strcmp(argv[i], "--no-noise") == 0) {
      args.no_noise = true;
    } else if (std::strcmp(argv[i], "--no-header") == 0) {
      args.has_header = false;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return Usage();
    }
  }
  if (args.poly.empty()) return Usage();

  // --- Function of interest.
  auto parsed = ParsePolynomialVector(args.poly);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const PolynomialVector f = std::move(parsed).ValueOrDie();

  if (args.use_tcp && !args.data_path.empty()) {
    std::fprintf(stderr,
                 "--transport tcp is incompatible with --data: networked "
                 "parties derive their columns from the shared seed\n");
    return 2;
  }
  if (args.use_tcp && args.cols < 3) {
    std::fprintf(stderr,
                 "--transport tcp needs --cols >= 3 (one party per "
                 "attribute; BGW multiplication needs n >= 2t+1 with "
                 "t >= 1)\n");
    return 2;
  }

  // --- Database.
  Matrix x;
  if (args.use_tcp) {
    // The deployment generator: each party will re-derive exactly these
    // columns from (rows, cols, data_seed) on its own machine.
    x = GenerateDeploymentMatrix(args.rows, args.cols,
                                 args.seed ^ 0xda7a5eedull);
  } else if (!args.data_path.empty()) {
    CsvOptions csv;
    csv.has_header = args.has_header;
    auto loaded = LoadCsvDataset(args.data_path, csv);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    x = std::move(loaded).ValueOrDie().features;
  } else {
    x = Matrix(args.rows, args.cols);
    Rng rng(args.seed ^ 0xdada);
    GaussianSampler gaussian(0.5);
    for (auto& v : x.data()) v = gaussian.Sample(rng);
  }
  NormalizeRecords(x, 1.0);
  std::printf("database: %zu records x %zu attributes (normalized to "
              "||x||<=1)\n",
              x.rows(), x.cols());
  std::printf("function: dims=%zu degree=%u\n", f.output_dim(), f.Degree());

  // --- Calibration.
  double mu = 0.0;
  SensitivityBound sens{};
  if (!args.no_noise) {
    sens = PolynomialSensitivity(f, args.gamma, 1.0, args.max_f);
    auto calibrated = CalibrateSkellamMuSingleRelease(
        args.epsilon, args.delta, sens.l1, sens.l2);
    if (!calibrated.ok()) {
      std::fprintf(stderr, "%s\n",
                   calibrated.status().ToString().c_str());
      return 1;
    }
    mu = calibrated.ValueOrDie();
  }

  // --- Run.
  SqmReport report;
  if (args.use_tcp) {
    DeploymentConfig deployment;
    deployment.run_id = args.seed;
    deployment.session_key = args.seed ^ 0x5e55u;
    deployment.parties.assign(x.cols(), {"127.0.0.1", 0});
    deployment.rows = x.rows();
    deployment.cols = x.cols();
    deployment.data_seed = args.seed ^ 0xda7a5eedull;
    deployment.polynomial = args.poly;
    deployment.gamma = args.gamma;
    deployment.mu = mu;
    deployment.seed = args.seed;
    deployment.dp_delta = args.delta;
    deployment.max_f_l2 = args.max_f;
    std::printf("transport: tcp — %zu parties on loopback sockets\n",
                x.cols());
    auto run = RunTcpMesh(deployment);
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 1;
    }
    report = std::move(run).ValueOrDie();
    std::printf("all %zu parties released bit-identical values\n", x.cols());
  } else {
    SqmOptions options;
    options.gamma = args.gamma;
    options.mu = mu;
    options.backend =
        args.use_bgw ? MpcBackend::kBgw : MpcBackend::kPlaintext;
    options.seed = args.seed;
    options.max_f_l2 = args.max_f;
    SqmEvaluator evaluator(options);
    auto run = evaluator.Evaluate(f, x);
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 1;
    }
    report = std::move(run).ValueOrDie();
  }

  std::printf("\nrelease (gamma=%g, mu=%.4g, backend=%s):\n", args.gamma,
              mu,
              args.use_tcp ? "bgw/tcp"
                           : (args.use_bgw ? "bgw" : "plaintext"));
  for (size_t t = 0; t < report.estimate.size(); ++t) {
    std::printf("  F[%zu] = %.8g\n", t, report.estimate[t]);
  }
  if (!args.no_noise) {
    const auto curve = [&](double alpha) {
      return SkellamRdpServer(alpha, sens.l1, sens.l2, mu);
    };
    std::printf("\nprivacy: (%.4g, %.1e)-DP server-observed (requested "
                "%.4g)\n",
                BestEpsilonFromCurve(curve, DefaultAlphaGrid(), args.delta),
                args.delta, args.epsilon);
  } else {
    std::printf("\nWARNING: --no-noise set, the release is NOT private.\n");
  }
  if (args.use_bgw) {
    const NetworkStats& traffic = report.transport.totals;
    std::printf("bgw: %llu messages, %llu field elements, %llu rounds\n",
                static_cast<unsigned long long>(traffic.messages),
                static_cast<unsigned long long>(traffic.field_elements),
                static_cast<unsigned long long>(traffic.rounds));
  }
  return 0;
}
