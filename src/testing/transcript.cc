#include "testing/transcript.h"

#include <algorithm>

namespace sqm {
namespace testing {

MessageInterceptor::SendVerdict TranscriptRecorder::OnSend(
    const WireContext& context, std::vector<uint64_t>& payload) {
  SendVerdict verdict;
  if (next_ != nullptr) {
    verdict = next_->OnSend(context, payload);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto record = [&](const std::vector<uint64_t>& delivered) {
    TranscriptEntry entry;
    entry.round = context.round;
    entry.phase = context.phase;
    entry.from = context.from;
    entry.to = context.to;
    entry.payload = delivered;
    transcript_.entries.push_back(std::move(entry));
  };
  if (!verdict.swallow) {
    record(payload);
    for (const std::vector<uint64_t>& replay : verdict.replays) {
      record(replay);
    }
  }
  return verdict;
}

Transcript TranscriptRecorder::transcript() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transcript_;
}

size_t TranscriptRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transcript_.entries.size();
}

void TranscriptRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  transcript_.entries.clear();
}

std::vector<uint64_t> TranscriptPrivacyVerifier::CoalitionView(
    const Transcript& transcript, const std::vector<size_t>& coalition) {
  auto in_coalition = [&](size_t party) {
    return std::find(coalition.begin(), coalition.end(), party) !=
           coalition.end();
  };
  std::vector<uint64_t> view;
  for (const TranscriptEntry& entry : transcript.entries) {
    if (!in_coalition(entry.to) || in_coalition(entry.from)) continue;
    view.insert(view.end(), entry.payload.begin(), entry.payload.end());
  }
  return view;
}

Result<ChiSquareResult> TranscriptPrivacyVerifier::VerifyUniform(
    const Transcript& transcript,
    const std::vector<size_t>& coalition) const {
  const std::vector<uint64_t> view = CoalitionView(transcript, coalition);
  if (view.size() < options_.bins * 5) {
    return Status::InvalidArgument(
        "coalition view has only " + std::to_string(view.size()) +
        " field elements; too few for a " + std::to_string(options_.bins) +
        "-bin test");
  }
  return ChiSquareUniform(BinTopBits(view, options_.bins));
}

Status TranscriptPrivacyVerifier::CheckCoalitionUniform(
    const Transcript& transcript,
    const std::vector<size_t>& coalition) const {
  SQM_ASSIGN_OR_RETURN(const ChiSquareResult result,
                       VerifyUniform(transcript, coalition));
  if (result.p_value < options_.min_p_value) {
    return Status::IntegrityViolation(
        "coalition view is distinguishable from uniform (chi-square " +
        std::to_string(result.statistic) + ", p = " +
        std::to_string(result.p_value) +
        "): shares leak information below the threshold");
  }
  return Status::OK();
}

}  // namespace testing
}  // namespace sqm
