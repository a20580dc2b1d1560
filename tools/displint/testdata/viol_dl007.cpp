// displint selftest fixture: DL007 (co-await-condition) shapes — a co_await
// in a while condition, in a for header and in a do-while condition, next
// to the accepted form that awaits in the loop body.  Expect exactly
// 3 × DL007 (any scope).
#include <cstdint>

namespace fixture {

Task parkUntilWoken(Engine& engine, std::uint32_t a) {
  while (!co_await engine.park(a)) {  // DL007
  }
  for (std::uint32_t i = 0; i < co_await engine.budget(a); ++i) {  // DL007
    co_await engine.nextActivation(a);
  }
  do {
    co_await engine.nextActivation(a);
  } while (!co_await engine.park(a));  // DL007
  for (bool woken = false; !woken;) woken = co_await engine.park(a);  // accepted
}

}  // namespace fixture
