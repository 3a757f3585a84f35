// Bit-identity pins for the four calibrators. Every row is a target and
// the exact double (hex) or status code that the full bisection returns
// for it: 200 steps (100 for DP-SGD), each a full scan of the alpha grid.
// A cheaper search must return the same bits.
//
// The rows cover reachable targets, targets below the alpha grid's floor
// (0.0446 at delta = 1e-5, about 0.081 at 1e-7) and malformed arguments.
// DP-SGD targets below the floor are checked in gaussian_dp_test instead:
// the full search reported them as kInternal, not kInvalidArgument.

#include <gtest/gtest.h>

#include <cstddef>

#include "core/status.h"
#include "dp/gaussian.h"
#include "dp/skellam.h"

namespace sqm {
namespace {

constexpr StatusCode kOk = StatusCode::kOk;
constexpr StatusCode kInvalid = StatusCode::kInvalidArgument;

void ExpectPinned(const Result<double>& got, StatusCode code, double value) {
  ASSERT_EQ(got.status().code(), code) << got.status().ToString();
  if (got.ok()) {
    EXPECT_EQ(got.ValueOrDie(), value);
  }
}

struct SingleReleasePin {
  double epsilon;
  double delta;
  double l1;
  double l2;
  StatusCode code;
  double expected;
};

// {epsilon, delta, l1, l2, code, mu}
constexpr SingleReleasePin kSingleReleasePins[] = {
    {-1.0, 0.0, 1.0, 1.0, kInvalid, 0.0},
    {-1.0, 0.001, 1.0, 1.0, kInvalid, 0.0},
    {-1.0, 1e-05, 1.0, 1.0, kInvalid, 0.0},
    {-1.0, 1e-09, 1.0, 1.0, kInvalid, 0.0},
    {0.01, 0.0, 1.0, 1.0, kInvalid, 0.0},
    {0.01, 0.001, 1.0, 1.0, kOk, 0x1.2ddfa17290e13p+14},
    {0.01, 0.001, 10.0, 3.0, kOk, 0x1.53998bcf78806p+17},
    {0.01, 0.001, 2.44e8, 8.58e6, kOk, 0x1.3bcc1ab7017aap+60},
    {0.01, 1e-05, 1.0, 1.0, kInvalid, 0.0},
    {0.01, 1e-05, 10.0, 3.0, kInvalid, 0.0},
    {0.01, 1e-05, 2.44e8, 8.58e6, kInvalid, 0.0},
    {0.01, 1e-09, 1.0, 1.0, kInvalid, 0.0},
    {0.01, 1e-09, 10.0, 3.0, kInvalid, 0.0},
    {0.01, 1e-09, 2.44e8, 8.58e6, kInvalid, 0.0},
    {0.0446, 0.0, 1.0, 1.0, kInvalid, 0.0},
    {0.0446, 0.001, 1.0, 1.0, kOk, 0x1.87d0cc7e65ddp+9},
    {0.0446, 0.001, 10.0, 3.0, kOk, 0x1.b88928a24794fp+12},
    {0.0446, 0.001, 2.44e8, 8.58e6, kOk, 0x1.99a1406fbec5cp+55},
    {0.0446, 1e-05, 1.0, 1.0, kInvalid, 0.0},
    {0.0446, 1e-05, 10.0, 3.0, kInvalid, 0.0},
    {0.0446, 1e-05, 2.44e8, 8.58e6, kInvalid, 0.0},
    {0.0446, 1e-09, 1.0, 1.0, kInvalid, 0.0},
    {0.0446, 1e-09, 10.0, 3.0, kInvalid, 0.0},
    {0.0446, 1e-09, 2.44e8, 8.58e6, kInvalid, 0.0},
    {0.05, 0.0, 1.0, 1.0, kInvalid, 0.0},
    {0.05, 0.001, 1.0, 1.0, kOk, 0x1.46c32233999ep+9},
    {0.05, 0.001, 10.0, 3.0, kOk, 0x1.6f59aa11061dcp+12},
    {0.05, 0.001, 2.44e8, 8.58e6, kOk, 0x1.5592db6e30da1p+55},
    {0.05, 1e-05, 1.0, 1.0, kOk, 0x1.72bb9c690ceedp+12},
    {0.05, 1e-05, 10.0, 3.0, kOk, 0x1.a10ae8d3e1ad4p+15},
    {0.05, 1e-05, 2.44e8, 8.58e6, kOk, 0x1.83cf4074a1284p+58},
    {0.05, 1e-09, 1.0, 1.0, kInvalid, 0.0},
    {0.05, 1e-09, 10.0, 3.0, kInvalid, 0.0},
    {0.05, 1e-09, 2.44e8, 8.58e6, kInvalid, 0.0},
    {0.1, 0.0, 1.0, 1.0, kInvalid, 0.0},
    {0.1, 0.001, 1.0, 1.0, kOk, 0x1.a80b439704f0fp+7},
    {0.1, 0.001, 10.0, 3.0, kOk, 0x1.dc01117f082acp+10},
    {0.1, 0.001, 2.44e8, 8.58e6, kOk, 0x1.ba850d9071364p+53},
    {0.1, 1e-05, 1.0, 1.0, kOk, 0x1.20f192aeb894dp+9},
    {0.1, 1e-05, 10.0, 3.0, kOk, 0x1.44ce932ba608fp+12},
    {0.1, 1e-05, 2.44e8, 8.58e6, kOk, 0x1.2e032e799271fp+55},
    {0.1, 1e-09, 1.0, 1.0, kInvalid, 0.0},
    {0.1, 1e-09, 10.0, 3.0, kInvalid, 0.0},
    {0.1, 1e-09, 2.44e8, 8.58e6, kInvalid, 0.0},
    {0.5, 0.0, 1.0, 1.0, kInvalid, 0.0},
    {0.5, 0.001, 1.0, 1.0, kOk, 0x1.cce7fb62e0295p+3},
    {0.5, 0.001, 10.0, 3.0, kOk, 0x1.f4da6e686873bp+6},
    {0.5, 0.001, 2.44e8, 8.58e6, kOk, 0x1.cf92298857884p+49},
    {0.5, 1e-05, 1.0, 1.0, kOk, 0x1.dec7d5d0cc723p+4},
    {0.5, 1e-05, 10.0, 3.0, kOk, 0x1.09176eea1ae03p+8},
    {0.5, 1e-05, 2.44e8, 8.58e6, kOk, 0x1.ec038db6724a4p+50},
    {0.5, 1e-09, 1.0, 1.0, kOk, 0x1.fe0cffd1f7433p+5},
    {0.5, 1e-09, 10.0, 3.0, kOk, 0x1.1cd901c84087p+9},
    {0.5, 1e-09, 2.44e8, 8.58e6, kOk, 0x1.08a42b5e440dbp+52},
    {1.0, 0.0, 1.0, 1.0, kInvalid, 0.0},
    {1.0, 0.001, 1.0, 1.0, kOk, 0x1.30de4914482dcp+2},
    {1.0, 0.001, 10.0, 3.0, kOk, 0x1.343ed725909afp+5},
    {1.0, 0.001, 2.44e8, 8.58e6, kOk, 0x1.19f23176e1f54p+48},
    {1.0, 1e-05, 1.0, 1.0, kOk, 0x1.16f2774689386p+3},
    {1.0, 1e-05, 10.0, 3.0, kOk, 0x1.28de95e9813ecp+6},
    {1.0, 1e-05, 2.44e8, 8.58e6, kOk, 0x1.11ed441b7d6ebp+49},
    {1.0, 1e-09, 1.0, 1.0, kOk, 0x1.1376a5e74b7a5p+4},
    {1.0, 1e-09, 10.0, 3.0, kOk, 0x1.2d9f236662732p+7},
    {1.0, 1e-09, 2.44e8, 8.58e6, kOk, 0x1.177af096ce2f9p+50},
    {2.0, 0.0, 1.0, 1.0, kInvalid, 0.0},
    {2.0, 0.001, 1.0, 1.0, kOk, 0x1.cd76db41a496ep+0},
    {2.0, 0.001, 10.0, 3.0, kOk, 0x1.8aece7e233eeep+3},
    {2.0, 0.001, 2.44e8, 8.58e6, kOk, 0x1.5a9317876df19p+46},
    {2.0, 1e-05, 1.0, 1.0, kOk, 0x1.693f4721152c9p+1},
    {2.0, 1e-05, 10.0, 3.0, kOk, 0x1.56b04121a2095p+4},
    {2.0, 1e-05, 2.44e8, 8.58e6, kOk, 0x1.3566aa3a81fa4p+47},
    {2.0, 1e-09, 1.0, 1.0, kOk, 0x1.3d967d9f92b24p+2},
    {2.0, 1e-09, 10.0, 3.0, kOk, 0x1.454052c79ee75p+5},
    {2.0, 1e-09, 2.44e8, 8.58e6, kOk, 0x1.2a3d954637d48p+48},
    {8.0, 0.0, 1.0, 1.0, kInvalid, 0.0},
    {8.0, 0.001, 1.0, 1.0, kOk, 0x1.15f348c52e321p-2},
    {8.0, 0.001, 10.0, 3.0, kOk, 0x1.ddc5d19334cdap+0},
    {8.0, 0.001, 2.44e8, 8.58e6, kOk, 0x1.241d3f8ffced6p+43},
    {8.0, 1e-05, 1.0, 1.0, kOk, 0x1.6457ce8c64dc6p-2},
    {8.0, 1e-05, 10.0, 3.0, kOk, 0x1.3bbb727af512cp+1},
    {8.0, 1e-05, 2.44e8, 8.58e6, kOk, 0x1.b42b18221a66ep+43},
    {8.0, 1e-09, 1.0, 1.0, kOk, 0x1.fd7e819c1cf1ap-2},
    {8.0, 1e-09, 10.0, 3.0, kOk, 0x1.d79d85a5b66cap+1},
    {8.0, 1e-09, 2.44e8, 8.58e6, kOk, 0x1.6d8862d3e9653p+44},
    {32.0, 0.0, 1.0, 1.0, kInvalid, 0.0},
    {32.0, 0.001, 1.0, 1.0, kOk, 0x1.82ba70dd57d53p-5},
    {32.0, 0.001, 10.0, 3.0, kOk, 0x1.d012edd669663p-2},
    {32.0, 0.001, 2.44e8, 8.58e6, kOk, 0x1.43a94748db2e7p+40},
    {32.0, 1e-05, 1.0, 1.0, kOk, 0x1.c3caf50898aa9p-5},
    {32.0, 1e-05, 10.0, 3.0, kOk, 0x1.0c40817d1aa55p-1},
    {32.0, 1e-05, 2.44e8, 8.58e6, kOk, 0x1.87cddd57c99d1p+40},
    {32.0, 1e-09, 1.0, 1.0, kOk, 0x1.0ff0e38b2f3f1p-4},
    {32.0, 1e-09, 10.0, 3.0, kOk, 0x1.42ee0e35481aep-1},
    {32.0, 1e-09, 2.44e8, 8.58e6, kOk, 0x1.1c7dd85618c48p+41},
};

TEST(CalibrationPinTest, SkellamSingleReleaseMuIsBitIdentical) {
  for (const SingleReleasePin& pin : kSingleReleasePins) {
    SCOPED_TRACE(::testing::Message()
                 << "epsilon " << pin.epsilon << " delta " << pin.delta);
    ExpectPinned(CalibrateSkellamMuSingleRelease(pin.epsilon, pin.delta, pin.l1,
                                                 pin.l2),
                 pin.code, pin.expected);
  }
}

struct SubsampledPin {
  double epsilon;
  double delta;
  double l1;
  double l2;
  double q;
  size_t rounds;
  StatusCode code;
  double expected;
};

// {epsilon, delta, l1, l2, q, rounds, code, mu}
constexpr SubsampledPin kSubsampledPins[] = {
    {0.01, 1e-05, 10.0, 3.0, 0.01, 10, kInvalid, 0.0},
    {0.01, 1e-05, 1.0, 1.0, 0.001, 1000, kInvalid, 0.0},
    {0.01, 1e-05, 2.44e8, 8.58e6, 0.05, 30, kInvalid, 0.0},
    {0.01, 1e-07, 10.0, 3.0, 0.01, 10, kInvalid, 0.0},
    {0.01, 1e-07, 1.0, 1.0, 0.001, 1000, kInvalid, 0.0},
    {0.01, 1e-07, 2.44e8, 8.58e6, 0.05, 30, kInvalid, 0.0},
    {0.05, 1e-05, 10.0, 3.0, 0.01, 10, kOk, 0x1.fb75a614f9a8p+5},
    {0.05, 1e-05, 1.0, 1.0, 0.001, 1000, kOk, 0x1.cc5dffe87afb5p+2},
    {0.05, 1e-05, 2.44e8, 8.58e6, 0.05, 30, kOk, 0x1.d4c545f39fd05p+54},
    {0.05, 1e-07, 10.0, 3.0, 0.01, 10, kInvalid, 0.0},
    {0.05, 1e-07, 1.0, 1.0, 0.001, 1000, kInvalid, 0.0},
    {0.05, 1e-07, 2.44e8, 8.58e6, 0.05, 30, kInvalid, 0.0},
    {0.5, 1e-05, 10.0, 3.0, 0.01, 10, kOk, 0x1.1a9adf38a35e3p+3},
    {0.5, 1e-05, 1.0, 1.0, 0.001, 1000, kOk, 0x1.8aaaa664fa1afp-1},
    {0.5, 1e-05, 2.44e8, 8.58e6, 0.05, 30, kOk, 0x1.ae706c47566a6p+47},
    {0.5, 1e-07, 10.0, 3.0, 0.01, 10, kOk, 0x1.a364e38852694p+3},
    {0.5, 1e-07, 1.0, 1.0, 0.001, 1000, kOk, 0x1.11027050d076dp+0},
    {0.5, 1e-07, 2.44e8, 8.58e6, 0.05, 30, kOk, 0x1.462f72852ef55p+48},
    {1.0, 1e-05, 10.0, 3.0, 0.01, 10, kOk, 0x1.515d8504cafb2p+2},
    {1.0, 1e-05, 1.0, 1.0, 0.001, 1000, kOk, 0x1.f3fbfed83b008p-2},
    {1.0, 1e-05, 2.44e8, 8.58e6, 0.05, 30, kOk, 0x1.62ea0ed3111dap+46},
    {1.0, 1e-07, 10.0, 3.0, 0.01, 10, kOk, 0x1.d1b734cc8836fp+2},
    {1.0, 1e-07, 1.0, 1.0, 0.001, 1000, kOk, 0x1.4e4152124676ep-1},
    {1.0, 1e-07, 2.44e8, 8.58e6, 0.05, 30, kOk, 0x1.f3271ce0d3085p+46},
    {4.0, 1e-05, 10.0, 3.0, 0.01, 10, kOk, 0x1.188afbe091a9dp+1},
    {4.0, 1e-05, 1.0, 1.0, 0.001, 1000, kOk, 0x1.00bc7a1bdd21cp-2},
    {4.0, 1e-05, 2.44e8, 8.58e6, 0.05, 30, kOk, 0x1.82f6d635e35b6p+44},
    {4.0, 1e-07, 10.0, 3.0, 0.01, 10, kOk, 0x1.593a00cda9449p+1},
    {4.0, 1e-07, 1.0, 1.0, 0.001, 1000, kOk, 0x1.28c79bd60a056p-2},
    {4.0, 1e-07, 2.44e8, 8.58e6, 0.05, 30, kOk, 0x1.06a9a1081f17ep+45},
    {1.0, 1e-05, 10.0, 3.0, 1.0, 5, kOk, 0x1.70cb2372ada77p+8},
    {1.0, 1e-05, 10.0, 3.0, 0.01, 0, kInvalid, 0.0},
};

TEST(CalibrationPinTest, SkellamSubsampledMuIsBitIdentical) {
  for (const SubsampledPin& pin : kSubsampledPins) {
    SCOPED_TRACE(::testing::Message()
                 << "epsilon " << pin.epsilon << " delta " << pin.delta);
    ExpectPinned(CalibrateSkellamMuSubsampled(pin.epsilon, pin.delta, pin.l1,
                                              pin.l2, pin.q, pin.rounds),
                 pin.code, pin.expected);
  }
}

struct GaussianPin {
  double epsilon;
  double delta;
  double l2;
  StatusCode code;
  double expected;
};

// {epsilon, delta, l2, code, sigma}
constexpr GaussianPin kGaussianPins[] = {
    {0.0, 1e-05, 1.0, kInvalid, 0.0},
    {0.01, 0.001, 1.0, kOk, 0x1.77a132aa9fa3p+6},
    {0.01, 0.001, 7.5, kOk, 0x1.60271f7ff5a8dp+9},
    {0.01, 0.001, 1e6, kOk, 0x1.663a76f5c025dp+26},
    {0.01, 1e-05, 1.0, kOk, 0x1.e79224e313ff5p+7},
    {0.01, 1e-05, 7.5, kOk, 0x1.c9190294e2bf6p+10},
    {0.01, 1e-05, 1e6, kOk, 0x1.d0fbdbb59efe3p+27},
    {0.01, 1e-09, 1.0, kOk, 0x1.ca822ce458d1cp+8},
    {0.01, 1e-09, 7.5, kOk, 0x1.adda0a161344ap+11},
    {0.01, 1e-09, 1e6, kOk, 0x1.b5448d17f4c46p+28},
    {0.25, 0.001, 1.0, kOk, 0x1.075500656be71p+3},
    {0.25, 0.001, 7.5, kOk, 0x1.edbf60be2a50bp+5},
    {0.25, 0.001, 1e6, kOk, 0x1.f64418a972364p+22},
    {0.25, 1e-05, 1.0, kOk, 0x1.a92305d26e7b3p+3},
    {0.25, 1e-05, 7.5, kOk, 0x1.8e90d57547941p+6},
    {0.25, 1e-05, 1e6, kOk, 0x1.95712a7962e4fp+23},
    {0.25, 1e-09, 1.0, kOk, 0x1.4c8cbc25668e4p+4},
    {0.25, 1e-09, 7.5, kOk, 0x1.37c3f063102aep+7},
    {0.25, 1e-09, 1e6, kOk, 0x1.3d24e71e1afe2p+24},
    {1.0, 0.001, -1.0, kInvalid, 0.0},
    {1.0, 0.001, 1.0, kOk, 0x1.498e5c76bb594p+1},
    {1.0, 0.001, 7.5, kOk, 0x1.34f576af4fa3ap+4},
    {1.0, 0.001, 1e6, kOk, 0x1.3a4a08262b436p+21},
    {1.0, 1e-05, -1.0, kInvalid, 0.0},
    {1.0, 1e-05, 1.0, kOk, 0x1.dd8556607a8fap+1},
    {1.0, 1e-05, 7.5, kOk, 0x1.bfad00fa72e67p+4},
    {1.0, 1e-05, 1e6, kOk, 0x1.c7663d141a615p+21},
    {1.0, 1e-09, -1.0, kInvalid, 0.0},
    {1.0, 1e-09, 1.0, kOk, 0x1.5fb270d309dc9p+2},
    {1.0, 1e-09, 7.5, kOk, 0x1.49b749c5d93ecp+5},
    {1.0, 1e-09, 1e6, kOk, 0x1.4f6788a103139p+22},
    {1.0, 1.5, -1.0, kInvalid, 0.0},
    {1.0, 1.5, 1.0, kInvalid, 0.0},
    {1.0, 1.5, 7.5, kInvalid, 0.0},
    {1.0, 1.5, 1e6, kInvalid, 0.0},
    {4.0, 0.001, 1.0, kOk, 0x1.a56a703862eb3p-1},
    {4.0, 0.001, 7.5, kOk, 0x1.8b13c934dcbc8p+2},
    {4.0, 0.001, 1e6, kOk, 0x1.91e4b5ed86361p+19},
    {4.0, 1e-05, 1.0, kOk, 0x1.14c705e15f4eep+0},
    {4.0, 1e-05, 7.5, kOk, 0x1.037a95834959fp+3},
    {4.0, 1e-05, 1e6, kOk, 0x1.07f49d97a2889p+20},
    {4.0, 1e-09, 1.0, kOk, 0x1.7ce0b3a807261p+0},
    {4.0, 1e-09, 7.5, kOk, 0x1.6512a86d86b3bp+3},
    {4.0, 1e-09, 1e6, kOk, 0x1.6b3bbad56a715p+20},
    {20.0, 0.001, 1.0, kOk, 0x1.f9494717cf008p-3},
    {20.0, 0.001, 7.5, kOk, 0x1.d9b4b2a652108p+0},
    {20.0, 0.001, 1e6, kOk, 0x1.e1e0e610b0a59p+17},
    {20.0, 1e-05, 1.0, kOk, 0x1.29009e13becb7p-2},
    {20.0, 1e-05, 7.5, kOk, 0x1.1670943282debp+1},
    {20.0, 1e-05, 1e6, kOk, 0x1.1b3e5ac10ca0cp+18},
    {20.0, 1e-09, 1.0, kOk, 0x1.707294638c47fp-2},
    {20.0, 1e-09, 7.5, kOk, 0x1.596b6b1d53837p+1},
    {20.0, 1e-09, 1e6, kOk, 0x1.5f61058bbfb42p+18},
};

TEST(CalibrationPinTest, GaussianSigmaIsBitIdentical) {
  for (const GaussianPin& pin : kGaussianPins) {
    SCOPED_TRACE(::testing::Message()
                 << "epsilon " << pin.epsilon << " delta " << pin.delta);
    ExpectPinned(CalibrateGaussianSigma(pin.epsilon, pin.delta, pin.l2),
                 pin.code, pin.expected);
  }
}

struct DpSgdPin {
  double epsilon;
  double delta;
  double q;
  size_t rounds;
  StatusCode code;
  double expected;
};

// {epsilon, delta, q, rounds, code, noise multiplier}
constexpr DpSgdPin kDpSgdPins[] = {
    {0.0, 1e-05, 0.01, 10, kInvalid, 0.0},
    {0.0, 1e-07, 0.01, 10, kInvalid, 0.0},
    {0.05, 1e-05, 0.01, 10, kOk, 0x1.de80f0a798301p+1},
    {0.05, 1e-05, 0.01, 1000, kOk, 0x1.13bcecfc2e4cdp+5},
    {0.05, 1e-05, 0.2, 50, kOk, 0x1.34310994c39a6p+7},
    {0.07, 1e-05, 0.01, 10, kOk, 0x1.99e7d9401d2b1p+1},
    {0.07, 1e-05, 0.01, 1000, kOk, 0x1.fdc316cb8a06fp+3},
    {0.07, 1e-05, 0.2, 50, kOk, 0x1.1c8ffc3c36241p+6},
    {0.5, 1e-05, 0.01, 10, kOk, 0x1.5b2b7e3eca8b4p+0},
    {0.5, 1e-05, 0.01, 1000, kOk, 0x1.4ac77edcb8fedp+1},
    {0.5, 1e-05, 0.2, 50, kOk, 0x1.62a38597960c1p+3},
    {0.5, 1e-05, 0.01, 0, kInvalid, 0.0},
    {0.5, 1e-07, 0.01, 10, kOk, 0x1.abe18cb1a3451p+0},
    {0.5, 1e-07, 0.01, 1000, kOk, 0x1.98761657ca42ap+1},
    {0.5, 1e-07, 0.2, 50, kOk, 0x1.bba0a1455dc5p+3},
    {0.5, 1e-07, 0.01, 0, kInvalid, 0.0},
    {2.0, 1e-05, 0.01, 10, kOk, 0x1.89fa4ad84f82dp-1},
    {2.0, 1e-05, 0.01, 1000, kOk, 0x1.05dc1a37eeb1bp+0},
    {2.0, 1e-05, 0.2, 50, kOk, 0x1.a995883f7f4e1p+1},
    {2.0, 1e-07, 0.01, 10, kOk, 0x1.cf6308910f503p-1},
    {2.0, 1e-07, 0.01, 1000, kOk, 0x1.297bf92a8f868p+0},
    {2.0, 1e-07, 0.2, 50, kOk, 0x1.ffa1f6ced2787p+1},
    {8.0, 1e-05, 0.01, 10, kOk, 0x1.dfa455a0f79f7p-2},
    {8.0, 1e-05, 0.01, 1000, kOk, 0x1.3c1761d33e1e8p-1},
    {8.0, 1e-05, 0.2, 50, kOk, 0x1.3d48a2cd972d7p+0},
    {8.0, 1e-07, 0.01, 10, kOk, 0x1.fde57c3a44744p-2},
    {8.0, 1e-07, 0.01, 1000, kOk, 0x1.5f065db1b4a35p-1},
    {8.0, 1e-07, 0.2, 50, kOk, 0x1.67a89786e9f79p+0},
};

TEST(CalibrationPinTest, DpSgdNoiseIsBitIdentical) {
  for (const DpSgdPin& pin : kDpSgdPins) {
    SCOPED_TRACE(::testing::Message()
                 << "epsilon " << pin.epsilon << " delta " << pin.delta);
    ExpectPinned(CalibrateDpSgdNoise(pin.epsilon, pin.delta, pin.q, pin.rounds),
                 pin.code, pin.expected);
  }
}

}  // namespace
}  // namespace sqm
