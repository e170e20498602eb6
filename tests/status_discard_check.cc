// Compiled, never run, by the status_discard_* ctests with -Wall -Wextra
// -Werror -fsyntax-only. With DROP defined, each call below drops a
// [[nodiscard]] Status or Result, and the compile must fail; without it,
// the same calls discard their result through (void) and must compile.

#include "common/result.h"
#include "common/status.h"

namespace {

dblayout::Status Save() { return dblayout::Status::OK(); }
dblayout::Result<int> Count() { return 1; }

struct Store {
  dblayout::Status Flush() { return dblayout::Status::OK(); }
};

}  // namespace

void DiscardEach(Store& store) {
#ifdef DROP
  Save();
  Count();
  store.Flush();
#else
  (void)Save();
  (void)Count();
  (void)store.Flush();
#endif
}
