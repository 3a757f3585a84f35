#include "obs/ledger.h"

namespace sqm::obs {

PrivacyLedger& PrivacyLedger::Global() {
  static PrivacyLedger* ledger = new PrivacyLedger();  // Never destroyed.
  return *ledger;
}

uint64_t PrivacyLedger::Append(LedgerEntry entry) {
  MutexLock lock(mu_);
  entry.sequence = next_sequence_++;
  entry.elapsed_seconds = static_cast<double>(NowMicros()) * 1e-6;
  const uint64_t sequence = entry.sequence;
  entries_.push_back(std::move(entry));
  return sequence;
}

std::vector<LedgerEntry> PrivacyLedger::Entries() const {
  MutexLock lock(mu_);
  return entries_;
}

std::vector<LedgerEntry> PrivacyLedger::EntriesSince(
    uint64_t sequence) const {
  MutexLock lock(mu_);
  std::vector<LedgerEntry> out;
  for (const LedgerEntry& entry : entries_) {
    if (entry.sequence >= sequence) out.push_back(entry);
  }
  return out;
}

size_t PrivacyLedger::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

uint64_t PrivacyLedger::NextSequence() const {
  MutexLock lock(mu_);
  return next_sequence_;
}

void PrivacyLedger::Clear() {
  MutexLock lock(mu_);
  entries_.clear();
}

}  // namespace sqm::obs
