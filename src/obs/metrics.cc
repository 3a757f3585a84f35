#include "obs/metrics.h"

#include "core/json.h"

namespace sqm::obs {

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  for (const CounterSample& sample : counters) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

std::string MetricsSnapshot::ToJson() const {
  JsonWriter writer;
  writer.BeginObject();
  writer.BeginArray("counters");
  for (const CounterSample& sample : counters) {
    writer.BeginObject()
        .Field("name", sample.name)
        .Field("value", sample.value)
        .EndObject();
  }
  writer.EndArray();
  writer.BeginArray("gauges");
  for (const GaugeSample& sample : gauges) {
    writer.BeginObject()
        .Field("name", sample.name)
        .Field("value", sample.value)
        .EndObject();
  }
  writer.EndArray();
  writer.BeginArray("histograms");
  for (const HistogramSample& sample : histograms) {
    writer.BeginObject()
        .Field("name", sample.name)
        .Field("count", sample.count)
        .Field("sum", sample.sum);
    writer.BeginArray("buckets");
    for (const HistogramBucket& bucket : sample.buckets) {
      writer.BeginObject()
          .Field("upper", bucket.upper)
          .Field("count", bucket.count)
          .EndObject();
    }
    writer.EndArray();
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  return writer.str();
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // Never destroyed: metrics
  return *registry;  // may be touched by detached threads during exit.
}

Counter& Registry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>(name);
  return *slot;
}

Gauge& Registry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>(name);
  return *slot;
}

Histogram& Registry::GetHistogram(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(name);
  return *slot;
}

MetricsSnapshot Registry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->Get()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, gauge->Get()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramSample sample;
    sample.name = name;
    sample.count = histogram->Count();
    sample.sum = histogram->Sum();
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      const uint64_t count = histogram->BucketCount(b);
      if (count != 0) {
        sample.buckets.push_back({Histogram::BucketUpper(b), count});
      }
    }
    snapshot.histograms.push_back(std::move(sample));
  }
  return snapshot;
}

void Registry::ResetAll() {
  MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace sqm::obs
