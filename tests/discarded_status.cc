// Compile-only fixture for the discarded-Status tests in CMakeLists.txt:
// as is (a dropped Status) and with SQM_DISCARD_RESULT (a dropped
// Result<T>) it must not compile; with SQM_DISCARD_EXPLICITLY it must.

#include "core/status.h"

namespace {

sqm::Status Flush() { return sqm::Status::OK(); }
sqm::Result<int> Parse() { return 1; }

}  // namespace

void DiscardStatus() {
#if defined(SQM_DISCARD_EXPLICITLY)
  (void)Flush();
  (void)Parse();
#elif defined(SQM_DISCARD_RESULT)
  (void)Flush();
  Parse();
#else
  Flush();
  (void)Parse();
#endif
}
